"""Inputs the library refuses with its own errors: empty matrices and bases, and block structures
that do not fit the fixed-point basis they are read against."""

from math import inf

import numpy as np
import pytest

from qentropy import (
    Block,
    BlockStructure,
    DimensionMismatchError,
    FixedPointBasis,
    NotAnAlgebraError,
    NotHermitianError,
    StructureMismatchError,
    ValidationError,
    block_form_residual,
    choi_from_matrix,
    decompose_fixed_point_algebra,
    fixed_point_space,
    parse_block_spec,
    probability_vector,
    stochastic_matrix,
    synthesize_pair,
    validate_state,
)


@pytest.fixture(scope="module")
def basis():
    """The fixed-point basis of a synthesized 2x2,1x3 channel (N = 7), with its structure."""
    phi, _, _ = synthesize_pair(parse_block_spec("2x2,1x3"), 1)
    return fixed_point_space(phi)


class TestBlockFormResidualRefusesAStructureThatDoesNotFit:
    def test_a_complete_structure_is_read(self, basis):
        assert block_form_residual(basis, basis.structure) <= 1e-12

    def test_a_left_out_block(self, basis):
        partial = BlockStructure(7, basis.structure.blocks[:1])
        message = "^block dimensions do not add up to the space$"
        with pytest.raises(StructureMismatchError, match=message):
            block_form_residual(basis, partial)

    def test_no_blocks(self, basis):
        with pytest.raises(StructureMismatchError, match="do not add up"):
            block_form_residual(basis, BlockStructure(7, ()))

    def test_another_dimension(self, basis):
        other = synthesize_pair(parse_block_spec("2x1,1x2"), 1)[2]
        with pytest.raises(DimensionMismatchError, match="^dims differ: structure 4, basis 7$"):
            block_form_residual(basis, other)

    def test_an_isometry_of_the_wrong_shape(self, basis):
        first, second = basis.structure.blocks
        cut = Block(first.isometry[:, :-1], first.dim_left, first.dim_right)
        dl, dr = first.dim_left, first.dim_right
        shapes = rf"shape \(7, {dl * dr - 1}\), expected \(7, {dl * dr}\)"
        message = rf"^isometry 0 has {shapes} for a {dl}x{dr} block$"
        with pytest.raises(StructureMismatchError, match=message):
            block_form_residual(basis, BlockStructure(7, (cut, second)))


class TestEmptyInputs:
    def test_stochastic_matrix(self):
        with pytest.raises(ValidationError, match="^matrix must be non-empty$"):
            stochastic_matrix(np.zeros((0, 0)))

    def test_probability_vector_keeps_its_message(self):
        message = "^probability vector must be a non-empty 1-D array$"
        with pytest.raises(ValidationError, match=message):
            probability_vector([])

    def test_choi_matrix(self):
        with pytest.raises(ValidationError, match="^Choi matrix must be non-empty$"):
            choi_from_matrix(np.zeros((0, 0)))

    def test_state_matrix(self):
        # refused before its trace check, which read the empty trace 0 as |trace - 1| = 1
        with pytest.raises(ValidationError, match="^state matrix must be non-empty$"):
            validate_state(np.zeros((0, 0)))

    def test_empty_fixed_point_basis(self):
        f = FixedPointBasis(3, np.zeros((0, 3, 3), dtype=complex), 0.0, inf)
        with pytest.raises(NotAnAlgebraError, match="^identity is not in the span$"):
            decompose_fixed_point_algebra(f)
        # no element deviates from any block form
        assert block_form_residual(f, BlockStructure(3, (Block(np.eye(3), 1, 3),))) == 0.0

    def test_fixed_point_basis_with_neither_basis_nor_structure(self):
        # refused when built, not by an AttributeError on the first read of its basis
        message = "^a fixed-point basis needs basis or structure; both are None$"
        with pytest.raises(ValidationError, match=message):
            FixedPointBasis(2, None, 0.0, 1.0)


@pytest.mark.parametrize("validate", [validate_state, choi_from_matrix], ids=["state", "choi"])
def test_one_hermiticity_message(validate):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-6
    message = "^hermiticity deviation 1.000e-06 exceeds 1.0e-09$"
    with pytest.raises(NotHermitianError, match=message):
        validate(m)
