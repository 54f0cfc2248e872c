"""Inputs the library refuses with its own errors: empty matrices and bases, block structures that
do not fit the fixed-point basis they are read against, and malformed matrices, Choi matrices,
classical inputs, channels and serialized records."""

import json
from math import inf, nan

import numpy as np
import pytest

from qentropy import (
    Block,
    BlockStructure,
    DimensionMismatchError,
    FixedPointBasis,
    NotAnAlgebraError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NotStochasticError,
    StructureMismatchError,
    ValidationError,
    block_form_residual,
    channel_from_choi,
    choi_from_matrix,
    decompose_fixed_point_algebra,
    fixed_point_space,
    kraus_channel,
    kraus_matrix,
    parse_block_spec,
    probability_vector,
    stochastic_matrix,
    synthesize_pair,
    validate_state,
    verify_block_structure,
)
from qentropy.serialization import dumps, load_classical_batch, state_from_obj


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


class TestHandBuiltStructures:
    @pytest.mark.parametrize("shape", [(1, 2, 2), (3, 3), (1, 3, 2)])
    def test_a_basis_that_is_not_a_stack_of_its_dimension(self, shape):
        # refused when built, not by a numpy ValueError where the basis is read
        message = rf"^basis shape \({shape[0]}, .*\) is not \(d, 3, 3\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            FixedPointBasis(3, np.zeros(shape, dtype=complex), 0.0, 1.0)

    @pytest.mark.parametrize("basis, error, message", [
        ((np.eye(2), np.eye(3)), DimensionMismatchError, r"^basis is not a \(d, 2, 2\) stack$"),
        (np.full((1, 2, 2), nan), ValidationError, "^basis contains non-finite entries$"),
    ])
    def test_a_basis_that_cannot_be_read(self, basis, error, message):
        # refused when built, not as numpy's ValueError (ragged) or a NaN span failing later
        with pytest.raises(error, match=message):
            FixedPointBasis(2, basis, 0.0, 1.0)

    def test_a_basis_is_held_as_one_read_only_complex_array(self):
        given = np.eye(2)[None]  # real and writable
        basis = FixedPointBasis(2, given, 0.0, 1.0).basis
        assert basis.dtype == complex and not basis.flags.writeable and given.flags.writeable

    @pytest.mark.parametrize("read", ["block_form_residual", "verify_block_structure"])
    def test_a_non_finite_isometry(self, read):
        # refused before numpy's SVD fails to converge on it, or a residual reads nan
        structure = BlockStructure(2, (Block(np.full((2, 2), nan), 2, 1),))
        identity = kraus_channel([np.eye(2)])
        with pytest.raises(StructureMismatchError, match="^isometry 0 has non-finite entries$"):
            if read == "block_form_residual":
                block_form_residual(fixed_point_space(identity), structure)
            else:
                verify_block_structure(structure, identity, validate_state(np.eye(2) / 2))


@pytest.mark.parametrize("validate", [validate_state, choi_from_matrix], ids=["state", "choi"])
def test_one_hermiticity_message(validate):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-6
    message = "^hermiticity deviation 1.000e-06 exceeds 1.0e-09$"
    with pytest.raises(NotHermitianError, match=message):
        validate(m)


class TestMalformedMatrices:
    def test_not_a_matrix(self):
        with pytest.raises(ValidationError, match="^expected a matrix, got an array of ndim 1$"):
            validate_state([1.0, 0.0])

    def test_non_finite_entries(self):
        with pytest.raises(ValidationError, match="^matrix contains non-finite entries$"):
            validate_state([[nan, 0.0], [0.0, 1.0]])

    def test_non_square_choi_matrix(self):
        message = r"^Choi matrix must be square, got \(2, 3\)$"
        with pytest.raises(NotSquareError, match=message):
            choi_from_matrix(np.zeros((2, 3)))

    def test_choi_size_not_a_perfect_square(self):
        with pytest.raises(ValidationError, match="^Choi matrix size 3 is not a perfect square$"):
            choi_from_matrix(np.eye(3))

    def test_zero_choi_matrix_has_no_kraus_operators(self):
        message = "^Choi matrix is numerically zero; no Kraus operators$"
        with pytest.raises(ValidationError, match=message):
            channel_from_choi(choi_from_matrix(np.zeros((4, 4))))

    def test_non_square_kraus_operator(self):
        message = r"^Kraus operator of shape \(2, 3\) is not square$"
        with pytest.raises(NotSquareError, match=message):
            kraus_channel([np.zeros((2, 3))])


class TestClassicalInputs:
    @pytest.mark.parametrize(
        "validate, entries, what",
        [
            (probability_vector, [inf, 0.0], "probability vector"),
            (stochastic_matrix, [[inf, 0.0], [0.0, 1.0]], "matrix"),
        ],
        ids=["vector", "matrix"],
    )
    def test_non_finite_entries(self, validate, entries, what):
        with pytest.raises(ValidationError, match=f"^{what} contains non-finite entries$"):
            validate(entries)

    def test_entry_below_minus_tol_psd(self):
        with pytest.raises(NotPositiveError, match="^entry -1.000e-01 below -1.0e-10$"):
            probability_vector([1.1, -0.1])

    def test_entries_that_do_not_sum_to_one(self):
        with pytest.raises(ValidationError, match="^entries sum to 0.9, not 1$"):
            probability_vector([0.5, 0.4])

    def test_non_square_stochastic_matrix(self):
        message = r"^expected a square matrix, got shape \(2, 3\)$"
        with pytest.raises(NotSquareError, match=message):
            stochastic_matrix(np.full((2, 3), 0.5))

    def test_kraus_matrix_of_a_channel_neither_stochastic_nor_unital(self):
        message = (r"^Kraus matrix needs a trace-preserving \(or unital\) channel; "
                   r"residuals 1.061e\+00 / 1.061e\+00$")
        with pytest.raises(NotStochasticError, match=message):
            kraus_matrix(kraus_channel([0.5 * np.eye(2)]))


class TestSerializedRecords:
    def test_state_without_matrix(self):
        with pytest.raises(ValidationError, match='^expected an object with a "matrix" field$'):
            state_from_obj({"dim": 2})

    def test_csv_record_without_a_dimension_line(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("0.5,0.5\n0.5,0.5\n")
        with pytest.raises(ValidationError, match="^expected a dimension line, got '0.5,0.5'$"):
            load_classical_batch(path)

    @pytest.mark.parametrize("record", [{"p": [1.0]}, {"matrix": [[1.0]]}], ids=["matrix", "p"])
    def test_batch_record_without_a_field(self, tmp_path, record):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ValidationError, match='^each record needs "matrix" and "p" fields$'):
            load_classical_batch(path)

    def test_dumps_writes_non_finite_floats_as_the_json_module_reads_them(self):
        text = dumps([nan, inf, -inf])
        assert text == "[NaN, Infinity, -Infinity]"
        assert np.array_equal(json.loads(text), [nan, inf, -inf], equal_nan=True)

    def test_dumps_refuses_a_value_it_cannot_serialize(self):
        with pytest.raises(TypeError, match="^cannot serialize value of type object$"):
            dumps({"x": object()})
