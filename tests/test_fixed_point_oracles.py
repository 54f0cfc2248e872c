"""The fixed-point and decomposition kernels against dense reference versions.

The oracles below are the direct dense algorithms: a complex eigensolve of
s^dag s on all N x N matrices, the center as the null space of the full
(d N^2) x d commutator system, and a loop over block pairs for the block-form
residual.  The library computes the same objects in smaller spaces (real
symmetric on Herm(N), span coordinates, one batched conjugation).
"""

import math
import tracemalloc

import numpy as np
import pytest

from qentropy import (
    BlockSpec,
    FixedPointBasis,
    NotAnAlgebraError,
    channel_distance,
    decompose_fixed_point_algebra,
    fixed_point_space,
    parse_block_spec,
    random_bistochastic_channel,
    superoperator_matrix,
    synthesize_pair,
    unvec,
    vec,
)
from qentropy.entropy_analysis import (
    _center_basis,
    _check_algebra_closure,
    _orthonormal_span,
    _partial_trace_right,
    _seeded_rng,
    block_form_residual,
)

from conftest import SIGMA_X

SPECS = ["2x1,1x2", "2x2", "1x1,1x1,1x1", "3x1,1x3", "2x2,2x1,1x2", "1x4,2x2", "3x2,2x3"]


def oracle_fixed_point_space(phi, tol):
    """Eigenvalue-1 eigenspace of the complex N^2 x N^2 matrix s^dag s."""
    s = superoperator_matrix(phi).matrix
    g = s.conj().T @ s
    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    fixed_mask = vals >= 1.0 - tol.fix
    below = vals[~fixed_mask]
    gap = float(1.0 - below.max()) if below.size else math.inf
    return [unvec(vecs[:, i]) for i in np.nonzero(fixed_mask)[0]], gap


def oracle_center(work, tol):
    """Null space of the (d N^2) x d system stacking vec([W_j, W_i]) over i.

    The thin SVD has the same singular values and right singular vectors as
    the full one; only the unused left factor is smaller.
    """
    columns = [np.concatenate([vec(wj @ wi - wi @ wj) for wi in work]) for wj in work]
    _, svals, vh = np.linalg.svd(np.stack(columns, axis=1), full_matrices=False)
    null_mask = svals <= tol.fix * max(1.0, float(svals[0]))
    coeffs = vh.conj().T[:, null_mask]
    return [sum(cj * wj for cj, wj in zip(c, work)) for c in coeffs.T]


def oracle_block_form_residual(f, structure):
    """Loop over basis elements and block pairs, one conjugation each."""
    worst = 0.0
    isos = [b.isometry for b in structure.blocks]
    for mat in f.basis:
        for j, vj in enumerate(isos):
            for k, vk in enumerate(isos):
                cross = vj.conj().T @ mat @ vk
                if j != k:
                    worst = max(worst, float(np.linalg.norm(cross)))
                else:
                    dl, dr = structure.blocks[j].dim_left, structure.blocks[j].dim_right
                    left = _partial_trace_right(cross, dl, dr) / dr
                    rebuilt = np.kron(left, np.eye(dr))
                    worst = max(worst, float(np.linalg.norm(cross - rebuilt)))
    return worst


def span_projector(mats):
    """Orthogonal projector onto the span of the matrices, as vectors."""
    q, r = np.linalg.qr(np.stack([vec(m) for m in mats], axis=1))
    rank = int(np.sum(np.abs(np.diagonal(r)) > 1e-9))
    q = q[:, :rank]
    return q @ q.conj().T


def channels():
    for n in range(2, 9):
        for k in (1, 2, 3):
            yield f"bistochastic n={n} k={k}", random_bistochastic_channel(n, k, seed=100 * n + k)
    for i, spec in enumerate(SPECS):
        yield f"synthesized {spec}", synthesize_pair(parse_block_spec(spec), seed=60 + i)[0]


CASES = list(channels())
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("phi", [phi for _, phi in CASES], ids=IDS)
def test_fixed_point_space_matches_dense_oracle(phi, tol):
    f = fixed_point_space(phi)
    mats, gap = oracle_fixed_point_space(phi, tol)
    assert len(f.basis) == len(mats)
    if math.isinf(gap):
        assert math.isinf(f.spectral_gap)
    else:
        assert abs(f.spectral_gap - gap) <= 1e-10
    assert np.linalg.norm(span_projector(f.basis) - span_projector(mats)) <= 1e-8
    gram = np.array([[np.vdot(a, b) for b in f.basis] for a in f.basis])
    np.testing.assert_allclose(gram, np.eye(len(f.basis)), atol=1e-12)
    for b in f.basis:
        assert np.max(np.abs(b - b.conj().T)) <= 1e-12


@pytest.mark.parametrize("phi", [phi for _, phi in CASES], ids=IDS)
def test_center_matches_full_commutator_oracle(phi, tol):
    work, _ = _orthonormal_span(np.asarray(fixed_point_space(phi).basis))
    center = _center_basis(work, _check_algebra_closure(work, tol), tol)
    expected = oracle_center(list(work), tol)
    assert len(center) == len(expected)
    assert np.linalg.norm(span_projector(center) - span_projector(expected)) <= 1e-8


@pytest.mark.parametrize("phi", [phi for _, phi in CASES], ids=IDS)
def test_block_form_residual_matches_loop_oracle(phi):
    f = fixed_point_space(phi)
    structure = decompose_fixed_point_algebra(f, seed=1)
    expected = oracle_block_form_residual(f, structure)
    assert abs(block_form_residual(f, structure) - expected) <= 1e-12


def test_block_form_residual_matches_loop_oracle_off_structure():
    # a claimed structure that does not fit the algebra: residuals are O(1)
    phi, _, _ = synthesize_pair(parse_block_spec("2x1,1x2"), seed=3)
    _, _, other = synthesize_pair(parse_block_spec("2x1,1x2"), seed=4)
    f = fixed_point_space(phi)
    expected = oracle_block_form_residual(f, other)
    assert expected > 1e-3
    assert abs(block_form_residual(f, other) - expected) <= 1e-12


def test_span_not_closed_under_products_rejected():
    # span{I, sigma_x (+) 0} is dagger-closed and unital, but
    # (sigma_x (+) 0)^2 = diag(1, 1, 0) lies outside it
    flip = np.zeros((3, 3), dtype=complex)
    flip[:2, :2] = SIGMA_X
    basis = (np.eye(3, dtype=complex) / math.sqrt(3), flip / math.sqrt(2))
    fake = FixedPointBasis(dim=3, basis=basis, eigenvalue_residuals=(0.0, 0.0), spectral_gap=1.0)
    with pytest.raises(NotAnAlgebraError, match="not closed under products"):
        decompose_fixed_point_algebra(fake)


def test_decompose_memory_stays_small():
    # N=16, d=21: a (d N^2)-row commutator system with a full left factor
    # needs hundreds of MB; span coordinates need well under 1 MB
    phi, _, _ = synthesize_pair(parse_block_spec("4x2,2x3,1x2"), seed=7)
    f = fixed_point_space(phi)
    tracemalloc.start()
    try:
        structure = decompose_fixed_point_algebra(f, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(structure.block_dims) == [(1, 2), (2, 3), (4, 2)]
    assert peak < 64 * 2**20


class TestNegativeSeeds:
    def test_synthesize_pair_sign_matters(self):
        spec = BlockSpec(blocks=((2, 1), (1, 2)))
        plus, _, _ = synthesize_pair(spec, 3)
        minus, _, _ = synthesize_pair(spec, -3)
        assert channel_distance(plus, minus) > 0

    def test_decompose_sign_matters(self):
        phi, _, _ = synthesize_pair(parse_block_spec("2x2,1x2"), seed=5)
        f = fixed_point_space(phi)
        plus = decompose_fixed_point_algebra(f, seed=3)
        minus = decompose_fixed_point_algebra(f, seed=-3)
        assert plus.block_dims == minus.block_dims
        assert any(
            not np.allclose(a.isometry, b.isometry) for a, b in zip(plus.blocks, minus.blocks)
        )

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 5])
    @pytest.mark.parametrize("words", [(), (0,), (2,)])
    def test_non_negative_seeds_keep_their_streams(self, seed, words):
        expected = np.random.default_rng([seed, *words]).random(4)
        np.testing.assert_array_equal(_seeded_rng(seed, *words).random(4), expected)
        minus = _seeded_rng(-seed - 1, *words).random(4)
        assert not np.array_equal(minus, _seeded_rng(seed + 1, *words).random(4))

    def test_synthesize_pair_weights_come_from_the_seed_stream(self, tol):
        spec = BlockSpec(blocks=((2, 1), (1, 2)))
        _, rho, structure = synthesize_pair(spec, 7)
        weights = [
            np.trace(b.isometry.conj().T @ rho.matrix @ b.isometry).real for b in structure.blocks
        ]
        expected = np.random.default_rng(7).dirichlet(np.ones(2))
        assert sorted(weights) == pytest.approx(sorted(expected), abs=tol.eq)
