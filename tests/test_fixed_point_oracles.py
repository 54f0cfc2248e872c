"""The fixed-point and decomposition kernels against dense reference versions.

The oracles below are the direct dense algorithms: a complex eigensolve of
s^dag s on all N x N matrices, and a loop over block pairs for the block-form
residual.  The library computes the same objects without them: the commutant
of the Kraus operators of adjoint(phi) o phi, certified in its block frame
(a commutation bound per class, which must cover the exact residual of every
unit element of the class span that it stands in for, and a gap on the
right-factor space Herm(sum dR), by exact eigensolves of side <= 256 one block
pair at a time while the pairs decouple, else by Lanczos on the whole frame,
which must also expose a frame with merged or split blocks), and one batched
conjugation.  Random block specs (hypothesis), eps-mixtures and channels with
sum dR > 16 check dimension and gap against the dense oracle, as does a grid of
near-unitary block channels whose eigenvalues straddle 1 - tol.fix (a draw may
refuse, but never return a wrong dimension); the gap solvers agree on the same
compressed maps, and the Hermitian canonical Kraus operators keep the Choi
matrix of the products they come from.  The batched kernels match their loop
versions: the alignment (one SVD per tree edge), the block expectation (one
block pair at a time), the real diagonal pair (the complex one) and the pruned
gap pairs (every pair solved, bit for bit).  Decompositions computed from a
channel are certified against the channel and the state it was
synthesized with.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qentropy import (
    DEFAULT_TOL,
    AmbiguousGroupingError,
    Block,
    BlockSpec,
    FixedPointBasis,
    NotAnAlgebraError,
    adjoint,
    apply_channel,
    channel_distance,
    channel_from_bistochastic,
    decompose_fixed_point_algebra,
    fixed_point_space,
    kraus_channel,
    parse_block_spec,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_unitary,
    synthesize_pair,
    verify_block_structure,
)
from qentropy import entropy_analysis
from qentropy.entropy_analysis import (
    _PAIR_COUPLING,
    _aligned_blocks,
    _block_expectation,
    _block_frame_gap,
    _canonical_operators,
    _class_products,
    _commutation_bounds,
    _pair_top,
    _span_residual,
    _top_eigenvalue_outside,
    _top_outside,
    block_form_residual,
)
from qentropy.generators import _haar_unitary, _seeded_rng

from conftest import (
    DEEP_ONLY,
    SIGMA_X,
    SIGMA_Z,
    dephasing_channel,
    eps_mixture,
    partial_trace_right,
    rounding,
    spy,
    superoperator_matrix,
    unvec,
    vec,
)

SPECS = ["2x1,1x2", "2x2", "1x1,1x1,1x1", "3x1,1x3", "2x2,2x1,1x2", "1x4,2x2", "3x2,2x3"]


def oracle_fixed_point_space(phi, tol):
    """Eigenvalue-1 eigenspace of the complex N^2 x N^2 matrix s^dag s."""
    s = superoperator_matrix(phi)
    g = s.conj().T @ s
    vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    fixed_mask = vals >= 1.0 - tol.fix
    below = vals[~fixed_mask]
    gap = float(1.0 - below.max()) if below.size else math.inf
    return [unvec(vecs[:, i]) for i in np.nonzero(fixed_mask)[0]], gap


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
                    left = partial_trace_right(cross, dl, dr) / dr
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
# sum dR > 16: twenty 1x1 blocks (190 pairs of side 1) and two 1x9 blocks (pairs of side 81) take
# the gap by pairs; one 1x17 block (a trivial algebra) is one pair of side 289, so Lanczos
WIDE_CASES = {
    "bistochastic n=20 k=2": lambda: random_bistochastic_channel(20, 2, seed=3),
    "synthesized 1x9,1x9": lambda: synthesize_pair(parse_block_spec("1x9,1x9"), seed=3)[0],
    "bistochastic n=17 k=3": lambda: random_bistochastic_channel(17, 3, seed=3),
}


@pytest.mark.parametrize(
    "phi",
    [phi for _, phi in CASES] + [make() for make in WIDE_CASES.values()],
    ids=IDS + list(WIDE_CASES),
)
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


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-10])
@pytest.mark.parametrize("spec", ["2x2,2x1,1x2", "3x2,2x3"])
def test_fixed_point_space_of_eps_mixture_matches_dense_oracle(spec, eps, seed, tol):
    # the products M_i^dag M_j of the remixed family move by O(sqrt(eps)), the
    # canonical Kraus operators of adjoint(phi) o phi only by O(eps)
    phi = eps_mixture(spec, eps, seed)
    f = fixed_point_space(phi)
    mats, gap = oracle_fixed_point_space(phi, tol)
    assert len(f.basis) == len(mats)
    assert np.linalg.norm(span_projector(f.basis) - span_projector(mats)) <= 1e-6
    assert abs(f.spectral_gap - gap) <= 1e-10
    assert f.residual_bound <= tol.fix
    assert max(direct_residuals(phi, f)) <= f.residual_bound + rounding(phi)


def direct_residuals(phi, f):
    """||adjoint(phi)(phi(B)) - B||_F of every basis element, by two channel applications."""
    adj = adjoint(phi)
    return [np.linalg.norm(apply_channel(adj, apply_channel(phi, b)) - b) for b in f.basis]


def test_fixed_point_space_memory_stays_small():
    # N = 32: the N^2 x N^2 superoperator alone would take 16.8 MB
    phi = synthesize_pair(parse_block_spec("4x4,4x4"), seed=7)[0]
    tracemalloc.start()
    try:
        f = fixed_point_space(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f.basis) == 32
    assert peak < 8 * 2**20


def test_fixed_point_space_memory_stays_small_at_n48():
    # the d x N^2 basis alone takes 2.9 MB; the certificate holds no second copy of it
    phi = synthesize_pair(parse_block_spec("8x4,4x4"), seed=3)[0]
    tracemalloc.start()
    try:
        f = fixed_point_space(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f.basis) == 80
    assert peak <= 16 * 2**20


def test_fixed_point_space_memory_at_n192_with_the_basis_unread():
    # the 400 x N^2 basis alone would take 236 MB; left unread, the solve holds the canonical
    # family and the certificate's one (r, N, N) product
    phi = synthesize_pair(parse_block_spec("16x6,12x8"), seed=7)[0]
    tracemalloc.start()
    try:
        f = fixed_point_space(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "basis" not in vars(f)
    assert sorted(f.structure.block_dims) == [(12, 8), (16, 6)]
    assert f.spectral_gap > DEFAULT_TOL.fix
    assert peak <= 60 * 2**20


def test_a_solved_basis_keeps_its_structure_not_the_canonical_operators():
    # Kraus rank ~N^2 at (32, 64): the 1,024 canonical operators of adjoint(phi) o phi take 16 MB,
    # the one 1x32 block 16 KB; with the basis unread the result holds the block and three numbers
    phi = random_bistochastic_channel(32, 64, seed=3)
    tracemalloc.start()
    try:
        f = fixed_point_space(phi)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "basis" not in vars(f)
    assert f.structure.block_dims == ((1, 32),)
    assert current <= 2**20


def canonical_and_frames(spec, seed):
    """phi, the Hermitian canonical Kraus operators of adjoint(phi) o phi, and the synthesized
    classes with their merged (blocks of equal dL in one class) and split-by-left-index frames."""
    phi, _, structure = synthesize_pair(parse_block_spec(spec), seed=seed)
    canonical = _canonical_operators(np.asarray(phi.kraus))[1]
    classes = [b.isometry.reshape(phi.dim, b.dim_left, b.dim_right) for b in structure.blocks]
    by_left = {}
    for cols in classes:
        by_left.setdefault(cols.shape[1], []).append(cols)
    assert len(by_left) < len(classes)
    merged = [np.concatenate(group, axis=2) for group in by_left.values()]
    split = [cols[:, [left]] for cols in classes for left in range(cols.shape[1])]
    return phi, canonical, {"exact": classes, "merged": merged, "split": split}


# 2x2,2x2 is solved by pairs in all three frames; 1x8,1x9,2x1 (sum dR = 18) by pairs in the exact
# and split frames, and by Lanczos in the merged one, whose 1x8 + 1x9 class makes a 289-side pair
@pytest.mark.parametrize("spec", ["2x2,2x2", "1x8,1x9,2x1"])
def test_block_frame_gap_catches_an_incomplete_basis(spec, tol):
    # merged blocks leave a second identity fixed, a block split by left index
    # the cross-pair identities: either way the compressed gap reads ~0
    phi, canonical, frames = canonical_and_frames(spec, seed=5)
    _, dense = oracle_fixed_point_space(phi, tol)
    gap = _block_frame_gap(canonical, frames["exact"], _seeded_rng(0))
    assert abs(gap - dense) <= 1e-10
    assert _block_frame_gap(canonical, frames["merged"], _seeded_rng(0)) <= tol.fix
    assert _block_frame_gap(canonical, frames["split"], _seeded_rng(0)) <= tol.fix


@pytest.mark.parametrize(
    "spec", ["2x2,2x2", "1x2,1x3,2x2", "3x2,3x3", "2x3,2x1,1x4", "1x1,1x1,1x1"]
)
def test_exact_gap_matches_lanczos_on_the_same_compressed_maps(spec):
    # the pair kernel, the same kernel on the whole frame, and Lanczos, on each frame (sum dR <=
    # 16 throughout); the merged and split frames have a top eigenvalue ~1, and every frame here
    # decouples into its block pairs
    _, canonical, frames = canonical_and_frames(spec, seed=9)
    for name, classes in frames.items():
        w = np.concatenate([cols[:, 0, :] for cols in classes], axis=1)
        n = w.shape[1]
        assert n <= 16
        dims = [cols.shape[2] for cols in classes]
        units = np.repeat(np.eye(len(dims)) / np.sqrt(dims), dims, axis=0)  # diagonals of the ids
        ids = np.zeros((len(dims), n, n), dtype=complex)
        ids[:, np.arange(n), np.arange(n)] = units.T
        ops = w.conj().T @ canonical @ w
        pairs, coupling = _pair_top(ops, dims)
        fixed = ids.reshape(1, len(dims), -1).real.swapaxes(1, 2)  # the vec(I_dR_j) / sqrt(dR_j)
        whole = _top_outside(ops[None], ops[None], fixed)
        gram = lambda y: np.sum(ops @ y @ ops, axis=0)
        lanczos = _top_eigenvalue_outside(gram, ids, _seeded_rng(0))
        assert coupling <= 1e-13, name
        assert abs(pairs - lanczos) <= 1e-10, name
        assert abs(whole - lanczos) <= 1e-10, name


@pytest.mark.parametrize(
    "make_phi, coupled",
    [
        (lambda: synthesize_pair(parse_block_spec("2x2,2x1,1x2"), seed=4)[0], False),
        (lambda: synthesize_pair(parse_block_spec("3x2,2x3"), seed=8)[0], False),
        # the light canonical operators of an eps-mixture couple the block pairs by O(sqrt(eps))
        (lambda: eps_mixture("2x2,2x1,1x2", 1e-12, 3), True),
        (lambda: eps_mixture("3x2,2x3", 1e-10, 11), True),
    ],
    ids=["pairs 2x2,2x1,1x2", "pairs 3x2,2x3", "coupled 2x2,2x1,1x2", "coupled 3x2,2x3"],
)
def test_gap_paths_match_dense_oracle(make_phi, coupled, monkeypatch, tol):
    # the pair gap is taken only when the coupling bound is at most _PAIR_COUPLING, else Lanczos
    # solves the whole frame, once per coupled attempt; both match the dense eigensolve
    lanczos = spy(monkeypatch, entropy_analysis, "_top_eigenvalue_outside")
    pair_tops = spy(monkeypatch, entropy_analysis, "_pair_top")
    phi = make_phi()
    f = fixed_point_space(phi)
    _, gap = oracle_fixed_point_space(phi, tol)
    couplings = [call.result[1] for call in pair_tops]
    assert couplings and all((c > _PAIR_COUPLING) == coupled for c in couplings)
    assert len(lanczos) == (len(couplings) if coupled else 0)
    assert abs(f.spectral_gap - gap) <= 1e-10


CANONICAL_CASES = {
    # k^2 <= N^2: the family is solved as formed
    "bistochastic n=5 k=3": lambda: random_bistochastic_channel(5, 3, seed=12),
    "synthesized 2x2,2x1,1x2": lambda: synthesize_pair(parse_block_spec("2x2,2x1,1x2"), 2)[0],
    # k^2 > N^2: the family is QR-folded to N^2 rows in real coordinates
    "bistochastic n=3 k=5": lambda: random_bistochastic_channel(3, 5, seed=13),
    "from_bistochastic n=4": lambda: channel_from_bistochastic(
        random_bistochastic_matrix(4, 3, 14)
    ),
    # three blocks: the 27 products across them are never formed
    "synthesized 2x2,1x3,2x2": lambda: synthesize_pair(parse_block_spec("2x2,1x3,2x2"), 5)[0],
    # two blocks of five operators each: 50 rows of products within the blocks, folded to N^2 = 16
    "block sum n=2+2 k=5+5": lambda: block_sum(
        random_bistochastic_channel(2, 5, seed=15), random_bistochastic_channel(2, 5, seed=16)
    ),
    "eps-mixture 2x2,2x1,1x2 1e-12": lambda: eps_mixture("2x2,2x1,1x2", 1e-12, 3),
}


def block_sum(*channels):
    """The direct sum of the channels, each Kraus operator on its own block and 0 elsewhere,
    conjugated by one random unitary."""
    n = sum(phi.dim for phi in channels)
    u, ops, lo = np.asarray(random_unitary(n, 17)), [], 0
    for phi in channels:
        for m in phi.kraus:
            op = np.zeros((n, n), dtype=complex)
            op[lo : lo + phi.dim, lo : lo + phi.dim] = m
            ops.append(u @ op @ u.conj().T)
        lo += phi.dim
    return kraus_channel(ops)


@pytest.mark.parametrize("make_phi", CANONICAL_CASES.values(), ids=CANONICAL_CASES.keys())
def test_canonical_operators_are_hermitian_and_keep_the_choi_matrix(make_phi):
    kraus = np.asarray(make_phi().kraus)
    k, n, _ = kraus.shape
    weights, canonical = _canonical_operators(kraus)
    assert len(canonical) <= min(k * k, n * n)
    assert np.array_equal(canonical, canonical.conj().transpose(0, 2, 1))
    products = (kraus.conj().transpose(0, 2, 1)[:, None] @ kraus[None]).reshape(k * k, n * n)
    flat = canonical.reshape(len(canonical), n * n)
    choi = products.T @ products.conj()
    np.testing.assert_allclose(flat.T @ flat.conj(), choi, rtol=0, atol=1e-12)
    assert weights.sum() == pytest.approx(n, abs=1e-12)


def test_canonical_operators_skip_the_products_that_vanish(monkeypatch):
    # three Kraus operators in each of three blocks: each ||M_i^dag M_j||_F^2 is read off the Gram
    # matrix of the A_i = M_i M_i^dag first, and the 27 products across blocks are never formed:
    # 3 * 6 = 18 of the 45 with i <= j are, and the Gram matrix of their rows has side
    # 3 * 3^2 = 27, not 9^2 = 81.  weights[0] covers the weight of every product across blocks; a
    # mixed-unitary channel skips none
    block = synthesize_pair(parse_block_spec("2x2,1x3,2x2"), seed=5)[0]
    generic = random_bistochastic_channel(block.dim, 3, seed=5)
    assert len(block.kraus) == 9
    coords = spy(monkeypatch, entropy_analysis, "_hermitian_coords")
    eighs = spy(monkeypatch, np.linalg, "eigh")
    dropped = [_canonical_operators(np.asarray(phi.kraus))[0][0] for phi in (block, generic)]
    assert [len(call.args[0]) for call in coords] == [18, 6]
    assert [len(call.args[0]) for call in eighs] == [27, 9]
    kraus = np.asarray(block.kraus)
    weight = np.sum(np.abs(kraus.conj().transpose(0, 2, 1)[:, None] @ kraus[None]) ** 2, (2, 3))
    across = np.repeat(np.arange(3), 3)[:, None] != np.repeat(np.arange(3), 3)
    assert 0.0 < weight[across].sum() <= dropped[0] <= 1e-12
    assert dropped[1] == 0.0


# the largest Kraus rank here: the (32, 64) case runs under HYPOTHESIS_PROFILE=deep only
@pytest.mark.deep
@pytest.mark.parametrize("n, k, mb", [(24, 30, 12), pytest.param(32, 64, 46, marks=DEEP_ONLY)])
def test_canonical_operators_memory_at_high_kraus_rank(n, k, mb):
    # the products are formed in slices of whole i, each folded into the QR factor once it holds
    # N^2 rows: 11.1 and 43.1 MB here, 13.0 and 43.7 formed one i at a time, 12.6 and 98.7 as one
    # unsliced batch
    kraus = np.asarray(random_bistochastic_channel(n, k, seed=3).kraus)
    tracemalloc.start()
    try:
        weights, canonical = _canonical_operators(kraus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(canonical) == n * n and weights.sum() == pytest.approx(n, abs=1e-10)
    assert peak <= mb * 2**20


# tracemalloc bounds (MB) on fixed_point_space and the sum dR of each spec.  At 15 and 14 the gap
# comes from block pairs and the bounds are the peaks read when every gap came from Lanczos; an
# exact path that held the complex N'^2 x N'^2 superoperator and its transforms at once reached
# 6.2 and 5.8 MB.  At 48 (576-side pairs) Lanczos reads ~10 MB, where a whole-frame exact path's
# complex N'^4 array alone would take 85 MB.  At 12 the one pair, (j, j), is a real symmetric
# 144-side matrix on Herm(12) (0.74 MB); solved as a complex one it peaked at 1.53 MB.
GAP_MEMORY_BOUNDS = {
    "2x5,3x2,1x8": (2.60, 15), "3x4,2x5,2x5": (3.81, 14), "1x24,1x24": (16, 48), "1x12": (1.0, 12)
}


@pytest.mark.parametrize("spec, mb, right", [(s, *v) for s, v in GAP_MEMORY_BOUNDS.items()])
def test_block_frame_gap_keeps_memory_small(spec, mb, right):
    phi = synthesize_pair(parse_block_spec(spec), 3)[0]
    tracemalloc.start()
    try:
        f = fixed_point_space(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(b.dim_right for b in f.structure.blocks) == right
    assert f.spectral_gap > DEFAULT_TOL.fix
    assert peak <= mb * 2**20


@pytest.mark.deep
@settings(deadline=None)
@given(
    size=st.integers(1, 5),
    count=st.integers(1, 3),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_diagonal_pairs_match_the_complex_kernel(size, count, rank, seed):
    # a pair (j, j) preserves Herm(dR): Re K + Im K S has the spectrum of K, with and without
    # the deflation of vec(I) / sqrt(dR); sum_s ||A_s||_F^2 = 1 keeps |K| <= 1
    rng = np.random.default_rng(seed)
    shape = (count, rank, size, size)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = h + h.conj().swapaxes(2, 3)
    h /= np.linalg.norm(h.reshape(count, -1), axis=1)[:, None, None, None]
    unit = np.eye(size).reshape(1, -1, 1) / math.sqrt(size)
    for fixed in (unit, np.zeros_like(unit)):
        real = _top_outside(h, h, fixed, real=True)
        assert abs(real - _top_outside(h, h, fixed)) <= 1e-12


def test_fixed_point_space_memory_at_a_narrow_gap():
    # forty-eight 1x1 blocks and a gap of ~2e-4: Lanczos on Herm(48) held 42 MB of Krylov vectors
    # here and took 2.2 s; the 1128 pairs of side 1 and the 48 x N^2 basis take ~3.6 MB
    phi = random_bistochastic_channel(48, 2, seed=3)
    tracemalloc.start()
    try:
        f = fixed_point_space(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.structure.block_dims == ((1, 1),) * 48
    assert DEFAULT_TOL.fix < f.spectral_gap < 1e-3
    assert peak <= 6 * 2**20


BLOCK_LISTS = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda blocks: sum(dl * dr for dl, dr in blocks) <= 12)


@pytest.mark.deep
@settings(deadline=None)
@given(
    blocks=BLOCK_LISTS,
    seed=st.integers(-(2**40), 2**40),
    family=st.sampled_from(["synthesized", "eps-mixture"]),
    log_eps=st.floats(-14, -9),
)
@example(blocks=[(2, 2), (1, 2)], seed=-5, family="synthesized", log_eps=-14)
# the first attempt fails its certificate on the cut family and the next on the uncut one, whose
# light noise operators leave residuals of ~1e-4: the third goes back to the cut
@example(blocks=[(1, 1), (1, 2), (1, 1)], seed=-6294, family="eps-mixture", log_eps=-9.0)
@example(blocks=[(1, 3), (1, 2)], seed=0, family="eps-mixture", log_eps=-9.0)
@example(blocks=[(1, 1), (1, 1), (1, 2)], seed=417216394501, family="eps-mixture",
         log_eps=math.log10(4.86e-10))
def test_fixed_point_space_matches_dense_oracle_on_random_specs(blocks, seed, family, log_eps):
    # An eps-mixture's gap is only O(eps)-accurate, whichever solver takes it (its light canonical
    # operators couple the block pairs, so Lanczos does where there are two blocks or more).
    # Phi_eps = (1 - eps) Phi + eps Psi with Phi, Psi unital, so both contract the Hilbert-Schmidt
    # norm and ||Phi_eps^dag Phi_eps - Phi^dag Phi|| <= (2 eps - eps^2) + 2 eps (1 - eps) + eps^2
    # <= 4 eps: by Weyl the dense gap is within 4 eps of Phi's.  The library reads the compression
    # of Phi_eps^dag Phi_eps to the block frame, within 4 eps of Phi^dag Phi's compression, whose
    # gap is Phi's in an exact frame: c = 8.  The frame the split finds is exact only to O(eps);
    # measured on 400 draws, |gap - dense| stays below 1.4 eps.
    spec = ",".join(f"{dl}x{dr}" for dl, dr in blocks)
    phi, eps = synthesize_pair(parse_block_spec(spec), seed=seed)[0], 0.0
    if family == "eps-mixture":
        eps = 10.0**log_eps
        phi = eps_mixture(spec, eps, seed)
    f = fixed_point_space(phi)
    mats, gap = oracle_fixed_point_space(phi, DEFAULT_TOL)
    assert len(f.basis) == len(mats) == sum(dl * dl for dl, _ in blocks)
    if math.isinf(gap):
        assert math.isinf(f.spectral_gap)
    else:
        assert abs(f.spectral_gap - gap) <= 1e-10 + 8 * eps
    assert sorted(decompose_fixed_point_algebra(f).block_dims) == sorted(blocks)
    assert sorted(f.structure.block_dims) == sorted(blocks)


def oracle_pair_top(ops, dims):
    """Every block pair solved on its own, none skipped: (j, j) outside I / sqrt(dR_j) as a real
    matrix and every j < l, each by one _top_outside call; the coupling from one eigvalsh per
    part of C_s = D_s + F_s."""
    edges = np.cumsum([0] + dims)
    labels = np.repeat(np.arange(len(dims)), dims)
    diag = np.where(labels[:, None] == labels, ops, 0)
    # contiguous, as the kernel stacks them: a strided 1 x 1 block takes another matmul path
    blocks = [np.stack([diag[:, lo:hi, lo:hi]]) for lo, hi in zip(edges, edges[1:])]
    top = -math.inf
    for j, l in itertools.combinations_with_replacement(range(len(dims)), 2):
        if j < l:
            zero = np.zeros((1, dims[j] * dims[l], 1))
            top = max(top, _top_outside(blocks[j], blocks[l], zero))
        elif dims[j] > 1:
            unit = np.eye(dims[j]).reshape(1, -1, 1) / math.sqrt(dims[j])
            top = max(top, _top_outside(blocks[j], blocks[j], unit, real=True))
    flat = [x.transpose(1, 0, 2).reshape(len(labels), -1) for x in (diag, ops - diag)]
    d_norm, f_norm = (max(0.0, np.linalg.eigvalsh(x @ x.conj().T)[-1]) for x in flat)
    return top, 2.0 * math.sqrt(d_norm * f_norm) + f_norm


@pytest.mark.deep
@settings(deadline=None)
@given(
    blocks=BLOCK_LISTS,
    seed=st.integers(-(2**40), 2**40),
    family=st.sampled_from(["synthesized", "eps-mixture"]),
    log_eps=st.floats(-14, -9),
)
def test_pair_top_matches_an_unpruned_loop_on_random_specs(blocks, seed, family, log_eps):
    # the pairs j < l skipped by their bound leave the top and the coupling bit for bit as they are
    spec = ",".join(f"{dl}x{dr}" for dl, dr in blocks)
    phi = synthesize_pair(parse_block_spec(spec), seed=seed)[0]
    if family == "eps-mixture":
        phi = eps_mixture(spec, 10.0**log_eps, seed)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy(patch, entropy_analysis, "_pair_top")
        fixed_point_space(phi)
    assert calls
    for call in calls:
        assert call.result == oracle_pair_top(*call.args)


@pytest.mark.parametrize(
    "spec", ["2x2,2x1,1x2", "1x4,2x2", "3x2,2x3", "2x3,1x6", "4x2,2x3,1x2", "2x4,2x4"]
)
def test_pair_top_skips_every_pair_across_blocks(spec, monkeypatch):
    # the structure benchmark's channels: once the pairs (j, j) have set a top, every pair j < l
    # is skipped, so one batch is solved per size dR > 1.  Not a law: where two blocks' canonical
    # weights tie (2x2,2x1,2x1 at seed 0), the canonical operators mix them and a bound can exceed
    # the top, and a frame of 1 x 1 blocks has no pair (j, j) to set one
    pair_tops = spy(monkeypatch, entropy_analysis, "_pair_top")
    solved = spy(monkeypatch, entropy_analysis, "_top_outside")
    fixed_point_space(synthesize_pair(parse_block_spec(spec), seed=1)[0])
    (call,) = pair_tops
    assert len(solved) == len(set(call.args[1]) - {1})


@pytest.mark.deep
@settings(deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    rank=st.integers(1, 3),
    coupling=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_top_matches_an_unpruned_loop_on_random_stacks(dims, rank, coupling, seed):
    # Hermitian stacks whose class-diagonal blocks have random scales, so a pair j < l can hold the
    # top (always, where every dR is 1) and the bound prunes some pairs and keeps others
    rng = np.random.default_rng(seed)
    n = sum(dims)
    h = rng.standard_normal((rank, n, n)) + 1j * rng.standard_normal((rank, n, n))
    h = (h + h.conj().swapaxes(1, 2)) / (2 * math.sqrt(rank * n))
    labels = np.repeat(np.arange(len(dims)), dims)
    scale = np.repeat(np.exp(rng.uniform(-2, 1, len(dims))), dims)
    ops = np.where(labels[:, None] == labels, np.sqrt(np.outer(scale, scale)), coupling) * h
    assert _pair_top(ops, dims) == oracle_pair_top(ops, dims)


def scaled_to_the_trace_bound(phi, fraction):
    """phi with every Kraus operator times 1 + eta, eta a ``fraction`` of the largest that keeps
    the top eigenvalue of sum M^dag M within kraus_channel's 1 + tol.eq."""
    eta = fraction * (math.sqrt((1.0 + DEFAULT_TOL.eq) / phi._gram_numbers[2]) - 1.0)
    return kraus_channel(phi.kraus * (1.0 + eta))


@pytest.mark.deep
@settings(deadline=None)
@given(
    blocks=BLOCK_LISTS,
    seed=st.integers(0, 2**40),
    family=st.sampled_from(["synthesized", "eps-mixture", "scaled"]),
    log_eps=st.floats(-14, -9),
    fraction=st.floats(0, 0.999),
)
# N = 1, k = 4: the rotated frame's span residual exceeds its bound by 5 eps_mach, more than
# 4 N eps_mach and within rounding(phi) = 16 eps_mach
@example(blocks=[(1, 1)], seed=10041170605, family="eps-mixture", log_eps=-14.0, fraction=0.0)
def test_commutation_bound_covers_every_unit_residual(blocks, seed, family, log_eps, fraction):
    # B_j >= the exact span residual of class j (the largest over its unit elements, which the
    # fallback decides on), for any isometry frame: the synthesized blocks, the same blocks
    # rotated by a Haar unitary (residuals O(1)) and split by left index; the scaled families move
    # sum O_s^2 off I by up to ~2e-8, which only delta covers.  Both sides carry rounding
    spec = ",".join(f"{dl}x{dr}" for dl, dr in blocks)
    phi, _, structure = synthesize_pair(parse_block_spec(spec), seed=seed)
    if family == "eps-mixture":
        phi = eps_mixture(spec, 10.0**log_eps, seed)
    elif family == "scaled":
        phi = scaled_to_the_trace_bound(phi, fraction)
    n = phi.dim
    weights, canonical = _canonical_operators(phi.kraus)
    classes = [b.isometry.reshape(n, b.dim_left, b.dim_right) for b in structure.blocks]
    u = np.asarray(random_unitary(n, seed))
    rotated = [(u @ cols.reshape(n, -1)).reshape(cols.shape) for cols in classes]
    split = [cols[:, [left]] for cols in classes for left in range(cols.shape[1])]
    for frame in (classes, rotated, split):
        products = _class_products(canonical, frame)
        bounds = _commutation_bounds(phi, weights, products, frame)
        exact = np.array([_span_residual(p, cols) for p, cols in zip(products, frame)])
        assert np.all(bounds >= exact - rounding(phi))


@pytest.mark.deep
@settings(deadline=None)
@given(
    blocks=BLOCK_LISTS,
    seed=st.integers(0, 2**40),
    family=st.sampled_from(["synthesized", "eps-mixture"]),
    log_eps=st.floats(-14, -9),
)
# the first attempt fails its certificate by chance and the next, on the uncut family, hits the
# ambiguous window: the one after goes back to the cut
@example(blocks=[(1, 3), (2, 1), (2, 1)], seed=13437, family="eps-mixture", log_eps=-10.0)
# a defect the deep profile found: the dense oracle counts 6 fixed dimensions with gap 0.176, yet
# every attempt's frame leaves a span residual of 1.407e-07 > tol.fix, as in
# test_eps_mixture_whose_frame_needs_refinement; a refinement of the frame makes this pass
@example(blocks=[(2, 2), (1, 3), (1, 3)], seed=658, family="eps-mixture", log_eps=-9.0).xfail(
    raises=AmbiguousGroupingError
)
def test_residual_bound_covers_every_direct_residual(blocks, seed, family, log_eps):
    # the bound the solve accepted on, max B_j or the largest exact span residual, covers each
    # element's ||adjoint(phi)(phi(B)) - B||_F formed by two channel applications, up to rounding,
    # and that of three random unit elements of each class span, which no basis element stands for
    spec = ",".join(f"{dl}x{dr}" for dl, dr in blocks)
    phi = synthesize_pair(parse_block_spec(spec), seed=seed)[0]
    if family == "eps-mixture":
        phi = eps_mixture(spec, 10.0**log_eps, seed)
    f = fixed_point_space(phi)
    assert f.residual_bound <= DEFAULT_TOL.fix
    assert max(direct_residuals(phi, f)) <= f.residual_bound + rounding(phi)
    adj, rng = adjoint(phi), np.random.default_rng(seed)
    for block in f.structure.blocks:
        v, dl, dr = block.isometry, block.dim_left, block.dim_right
        for _ in range(3):
            e = rng.standard_normal((dl, dl)) + 1j * rng.standard_normal((dl, dl))
            e = (e + e.conj().T) / np.linalg.norm(e + e.conj().T)
            x = v @ np.kron(e, np.eye(dr) / math.sqrt(dr)) @ v.conj().T
            residual = np.linalg.norm(apply_channel(adj, apply_channel(phi, x)) - x)
            assert residual <= f.residual_bound + rounding(phi)


def near_unitary_grid(count):
    """The first ``count`` draws of a seed-0 grid of near-unitary block channels:
    {W (I (x) sqrt(1 - eta) U_1), W (I (x) sqrt(eta) U_2)} for (dL, dR) cycling through
    (3, 2), (2, 3), (1, 4), (2, 2), eta = 10^U(-8.5, -5) and Haar U_1, U_2, W drawn in that order,
    so the eigenvalues of the right channel's adjoint(phi) o phi sit on either side of
    1 - tol.fix."""
    rng = np.random.default_rng(0)
    for i in range(count):
        dl, dr = [(3, 2), (2, 3), (1, 4), (2, 2)][i % 4]
        eta = 10 ** rng.uniform(-8.5, -5)
        u_1, u_2, w = _haar_unitary(rng, dr), _haar_unitary(rng, dr), _haar_unitary(rng, dl * dr)
        ops = [w @ np.kron(np.eye(dl), math.sqrt(q) * u) for q, u in ((1 - eta, u_1), (eta, u_2))]
        yield kraus_channel(ops)


# before the fallback decided on the span residual, draws 80, 124 and 207 returned 36, 36 and 16
# dimensions where the oracle counts 18, 18 and 8 (oracle gaps 1.07e-7, 1.006e-7 and 1.075e-7):
# every basis unit moved by <= tol.fix, some direction of the span by more
@pytest.mark.deep
@pytest.mark.parametrize(
    "draws, solves",
    [([*range(100), 124, 207], 85), pytest.param(range(400), 352, marks=DEEP_ONLY)],
    ids=["draws 0-99, 124, 207", "draws 0-399"],
)
def test_near_unitary_grid_never_returns_a_wrong_dimension(draws, solves, tol):
    # a draw may raise (its oracle gap is near tol.fix), but a dimension it returns is the oracle's;
    # ``solves`` is the count that solves, so refusing more draws fails too
    channels, solved = list(near_unitary_grid(max(draws) + 1)), 0
    for i in draws:
        try:
            f = fixed_point_space(channels[i])
        except AmbiguousGroupingError:
            continue
        assert len(f.basis) == len(oracle_fixed_point_space(channels[i], tol)[0]), i
        solved += 1
    assert solved >= solves


@pytest.mark.deep
@DEEP_ONLY
def test_span_residual_memory_at_n96():
    # the Gram is summed over row slices: 10.4 MB here against the 11.5 MB of the per-unit loop
    # it replaced, where forming all dL^2 residual images at once took 109 MB.  The products O_s V
    # come from the certificate, which the attempt still holds
    phi, _, structure = synthesize_pair(parse_block_spec("16x3,8x6"), seed=7)
    canonical = _canonical_operators(phi.kraus)[1]
    classes = [b.isometry.reshape(phi.dim, b.dim_left, b.dim_right) for b in structure.blocks]
    products = _class_products(canonical, classes)
    tracemalloc.start()
    try:
        residuals = list(map(_span_residual, products, classes))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(residuals) <= 1e-13
    assert peak <= 11.5 * 2**20


def test_eps_mixture_solves_within_three_attempts(monkeypatch):
    # the eps-mixture of the @example above: its first attempt fails the certificate on the cut
    # family; the solve must still find the spec's blocks with one attempt to spare
    splits = spy(monkeypatch, entropy_analysis, "_split")
    f = fixed_point_space(eps_mixture("1x3,2x1,2x1", 1e-10, 13437))
    assert sorted(f.structure.block_dims) == [(1, 3), (2, 1), (2, 1)]
    assert len(splits) <= 3


@pytest.mark.xfail(strict=True, raises=AmbiguousGroupingError)
def test_eps_mixture_whose_frame_needs_refinement(tol):
    # the dense oracle counts the spec's three dimensions (gap 2.9e-4), yet every split's frame is
    # off by O(eps / weight of the lightest kept operator) and leaves a span residual of 1.080e-07
    # > tol.fix; a refinement of the frame, not the retry rule, makes this pass: then drop the mark
    phi = eps_mixture("1x1,1x2,1x3", 1e-9, -6294)
    f = fixed_point_space(phi)
    assert sorted(f.structure.block_dims) == [(1, 1), (1, 2), (1, 3)]
    assert len(f.basis) == len(oracle_fixed_point_space(phi, tol)[0]) == 3


def solved_fields(f):
    """Every field of a solved basis but the residual bound it was accepted on, arrays as bytes,
    for bit-for-bit comparison."""
    blocks = tuple((b.dim_left, b.dim_right, b.isometry.tobytes()) for b in f.structure.blocks)
    return f.dim, f.basis.tobytes(), f.spectral_gap, blocks


def exact_only(monkeypatch):
    """Make every certificate fail, so each attempt decides on the exact span residuals."""
    monkeypatch.setattr(
        entropy_analysis, "_commutation_bounds", lambda *args: np.array([math.inf])
    )


CERTIFIED_CASES = {
    "synthesized 2x2,2x1,1x2": lambda: synthesize_pair(parse_block_spec("2x2,2x1,1x2"), 4)[0],
    "synthesized 4x3,3x4": lambda: synthesize_pair(parse_block_spec("4x3,3x4"), 1)[0],
    "eps-mixture 3x2,2x3 1e-10": lambda: eps_mixture("3x2,2x3", 1e-10, 11),
    "scaled 1x2,1x2,2x1": lambda: scaled_to_the_trace_bound(
        synthesize_pair(parse_block_spec("1x2,1x2,2x1"), 3)[0], 0.9
    ),
    "bistochastic n=17 k=3": lambda: random_bistochastic_channel(17, 3, seed=3),
}


@pytest.mark.parametrize("make_phi", CERTIFIED_CASES.values(), ids=CERTIFIED_CASES.keys())
def test_certificate_leaves_every_field_as_the_exact_residuals_do(make_phi, monkeypatch):
    # the residual bound differs by design: max B_j against the largest exact span residual
    phi = make_phi()
    certified = fixed_point_space(phi)
    exact_only(monkeypatch)
    exact = fixed_point_space(phi)
    assert solved_fields(certified) == solved_fields(exact)
    assert exact.residual_bound <= certified.residual_bound + rounding(phi)


def test_fallback_decides_where_the_bound_exceeds_tol_fix(monkeypatch):
    # at eps = 1e-9 the bound reads ~1.1e-7 and the exact span residuals up to ~2.7e-8: at
    # tol.fix = 5e-8 between them the span residual runs once per class in the solve and accepts,
    # with the exact rule's result
    phi, tol = eps_mixture("2x2,2x1,1x2", 1e-9, 3), DEFAULT_TOL.replace(fix=5e-8)
    weights, canonical = _canonical_operators(phi.kraus)
    classes = [b.isometry.reshape(phi.dim, b.dim_left, b.dim_right)
               for b in fixed_point_space(phi, tol).structure.blocks]
    products = _class_products(canonical, classes)
    bounds = _commutation_bounds(phi, weights, products, classes)
    exact = max(map(_span_residual, products, classes))
    assert exact <= tol.fix < bounds.max()
    residuals = spy(monkeypatch, entropy_analysis, "_span_residual")
    f = fixed_point_space(phi, tol)
    assert len(residuals) == len(classes)
    assert f.residual_bound == exact  # the value the accept was decided on
    exact_only(monkeypatch)
    assert solved_fields(f) == solved_fields(fixed_point_space(phi, tol))


def test_basis_is_computed_on_first_read(monkeypatch):
    # the certificate holds, so no exact residual is formed, in the solve or after it
    residuals = spy(monkeypatch, entropy_analysis, "_span_residual")
    units = spy(monkeypatch, entropy_analysis, "_block_units")
    f = fixed_point_space(synthesize_pair(parse_block_spec("2x2,1x3"), seed=1)[0])
    assert (len(residuals), len(units)) == (0, 0)
    basis = f.basis
    assert f.basis is basis and len(basis) == 5
    assert (len(residuals), len(units)) == (0, 2)  # once per block
    assert not basis.flags.writeable


def test_decompose_rejects_merged_blocks(monkeypatch):
    # two 1x2 blocks merged into one 2x2 class keep the block form of C (+) C,
    # so only the count sum dL^2 = d tells the merged class from the pair
    f = fixed_point_space(synthesize_pair(parse_block_spec("1x2,1x2"), seed=3)[0])
    merged = lambda aligned, *args: [np.concatenate(aligned(*args), axis=2)]
    spy(monkeypatch, entropy_analysis, "_aligned_blocks", merged)
    with pytest.raises(AmbiguousGroupingError, match="do not add up"):
        decompose_fixed_point_algebra(f)


@pytest.mark.parametrize("spec, seed", [("2x2,2x2", 60), ("1x2,1x2,2x1", 3)])
def test_decompose_block_order_does_not_depend_on_the_seed(spec, seed):
    # each isometry is unique only up to U_L (x) U_R, its range is not; the same holds for the
    # blocks the fixed-point solve returns, whose order follows the same rule
    phi = synthesize_pair(parse_block_spec(spec), seed=seed)[0]
    f = fixed_point_space(phi)
    runs = [decompose_fixed_point_algebra(f, seed=s) for s in (0, 1, -1)]
    runs += [fixed_point_space(phi, seed=s).structure for s in (0, 1, -1)]
    assert len({run.block_dims for run in runs}) == 1
    for run in runs[1:]:
        for a, b in zip(runs[0].blocks, run.blocks):
            np.testing.assert_allclose(
                a.isometry @ a.isometry.conj().T, b.isometry @ b.isometry.conj().T, atol=1e-9
            )


def oracle_block_order(n, classes):
    """The blocks sorted by dims and the rounded projector of every block, tied dims or not."""

    def key(b):
        proj = np.round(b.isometry @ b.isometry.conj().T, 6) + 0.0
        return (b.dim_left, b.dim_right, proj.tobytes())

    blocks = [Block(c.reshape(n, -1), c.shape[1], c.shape[2]) for c in classes]
    return [b.isometry.tobytes() for b in sorted(blocks, key=key)]


@pytest.mark.parametrize(
    "spec", ["2x2,2x2", "1x2,1x2,2x1", "1x1,1x1,1x1", "2x2,2x1,1x2", "3x2,2x3"]
)
def test_block_structure_order_is_the_full_key_order(spec):
    # the projector is formed only where dims tie, and the order is the one every key gives, from
    # every order of the classes
    phi, _, structure = synthesize_pair(parse_block_spec(spec), seed=6)
    n = phi.dim
    classes = [b.isometry.reshape(n, b.dim_left, b.dim_right) for b in structure.blocks]
    for order in itertools.permutations(classes):
        got = [b.isometry.tobytes() for b in entropy_analysis._block_structure(n, order).blocks]
        assert got == oracle_block_order(n, order)


@pytest.mark.parametrize("phi", [phi for _, phi in CASES], ids=IDS)
def test_block_form_residual_matches_loop_oracle(phi):
    f = fixed_point_space(phi)
    structure = decompose_fixed_point_algebra(f, seed=1)
    expected = oracle_block_form_residual(f, structure)
    assert abs(block_form_residual(f, structure) - expected) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, -1])
@pytest.mark.parametrize("spec", SPECS + ["2x2,2x2"])
def test_decomposed_structure_certifies_the_synthesized_pair(spec, seed):
    # the structures computed from the channel alone, by decomposing its fixed-point basis and
    # by the fixed-point solve itself, are accepted for the pair and carry the same block dims
    # and weights as the synthesized one
    phi, rho, synthesized = synthesize_pair(parse_block_spec(spec), seed=60)
    expected = verify_block_structure(synthesized, phi, rho)
    expected_blocks = sorted(zip(expected.block_dims, expected.weights))
    for structure in (
        decompose_fixed_point_algebra(fixed_point_space(phi), seed=seed),
        fixed_point_space(phi, seed=seed).structure,
    ):
        got = verify_block_structure(structure, phi, rho)
        got_blocks = sorted(zip(got.block_dims, got.weights))
        assert [dims for dims, _ in got_blocks] == [dims for dims, _ in expected_blocks]
        np.testing.assert_allclose(
            [w for _, w in got_blocks], [w for _, w in expected_blocks], rtol=0, atol=1e-12
        )


def test_block_form_residual_matches_loop_oracle_off_structure():
    # a claimed structure that does not fit the algebra: residuals are O(1)
    phi, _, _ = synthesize_pair(parse_block_spec("2x1,1x2"), seed=3)
    _, _, other = synthesize_pair(parse_block_spec("2x1,1x2"), seed=4)
    f = fixed_point_space(phi)
    expected = oracle_block_form_residual(f, other)
    assert expected > 1e-3
    assert abs(block_form_residual(f, other) - expected) <= 1e-12


def oracle_aligned_blocks(vecs, bounds, linked, connector):
    """The alignment one tree edge at a time, in walk order: an SVD and a product per edge."""
    groups = [np.arange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    seen, classes = np.zeros(len(groups), dtype=bool), []
    for root in range(len(groups)):
        if seen[root]:
            continue
        seen[root] = True
        order, frames = [root], [np.eye(groups[root].size)]
        for p, frame in zip(order, frames):
            for q in np.flatnonzero(linked[p] & ~seen):
                u, _, vh = np.linalg.svd(connector[np.ix_(groups[q], groups[p])])
                seen[q] = True
                order.append(q)
                frames.append(u @ vh @ frame)
        classes.append(np.stack([vecs[:, groups[q]] @ f for q, f in zip(order, frames)], axis=2))
    return classes


def assert_same_classes(got, want):
    assert [c.shape for c in got] == [c.shape for c in want]
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


@pytest.mark.deep
@settings(deadline=None)
@given(blocks=BLOCK_LISTS, seed=st.integers(-(2**40), 2**40))
def test_aligned_blocks_match_a_per_edge_loop_oracle_on_random_specs(blocks, seed):
    # every alignment of a solve and of its decomposition: the classes from one padded SVD over
    # all edges against those from one SVD per tree edge
    spec = ",".join(f"{dl}x{dr}" for dl, dr in blocks)
    phi = synthesize_pair(parse_block_spec(spec), seed=seed)[0]
    with pytest.MonkeyPatch.context() as patch:
        calls = spy(patch, entropy_analysis, "_aligned_blocks")
        decompose_fixed_point_algebra(fixed_point_space(phi, seed=seed), seed=seed)
    assert len(calls) >= 2
    for call in calls:
        assert_same_classes(call.result, oracle_aligned_blocks(*call.args))


def test_aligned_blocks_pad_three_group_sizes_into_one_svd(monkeypatch):
    # the solve of 3x2,2x2,1x2 splits groups of sizes dL = 3, 2 and 1, each linked to one other:
    # the three edges are padded to 3 x 3 for one SVD, and match the per-edge loop
    phi = synthesize_pair(parse_block_spec("3x2,2x2,1x2"), seed=4)[0]
    calls = spy(monkeypatch, entropy_analysis, "_aligned_blocks")
    svds = spy(monkeypatch, np.linalg, "svd")
    f = fixed_point_space(phi)
    assert sorted(f.structure.block_dims) == [(1, 2), (2, 2), (3, 2)]
    (call,) = calls
    assert sorted(np.diff(call.args[1]).tolist()) == [1, 1, 2, 2, 3, 3]
    assert [np.shape(svd.args[0]) for svd in svds] == [(3, 3, 3)]
    assert_same_classes(call.result, oracle_aligned_blocks(*call.args))


def judged_singular(block):
    """The singularity test on one connector block, unpadded."""
    svals = np.linalg.svd(block, compute_uv=False)
    return svals[-1] <= 1e-8 * max(1.0, svals[0])


@pytest.mark.parametrize("scale", [0.5, 3.0])
@pytest.mark.parametrize("ratio", [0.5, 0.999, 1.001, 2.0])
def test_padded_svd_judges_a_near_singular_connector_as_the_per_size_svd(scale, ratio):
    # a class of two 2-dim groups whose connector block has singular values scale and
    # ratio * 1e-8 * max(1, scale), next to a class of two 3-dim groups: the 2 x 2 block is
    # padded to 3 x 3 by ||B||_F / sqrt(2), between its singular values, so it is refused exactly
    # when the unpadded block is
    rng = np.random.default_rng(5)
    bounds, groups = np.array([0, 2, 4, 7, 10]), [(0, 1), (2, 3)]
    linked = np.eye(4, dtype=bool)
    for a, b in groups:
        linked[a, b] = linked[b, a] = True
    gaussian = rng.standard_normal((4, 10, 10)) + 1j * rng.standard_normal((4, 10, 10))
    vecs, connector = np.linalg.qr(gaussian[0])[0], gaussian[1]
    u, v = (np.linalg.qr(x[:2, :2])[0] for x in gaussian[2:])
    small = ratio * 1e-8 * max(1.0, scale)
    connector[2:4, 0:2] = u @ np.diag([scale, small]) @ v.conj().T  # the block of edge (1, 0)
    assert judged_singular(connector[2:4, 0:2]) == (ratio < 1)
    if ratio < 1:
        with pytest.raises(entropy_analysis._Ambiguous, match="numerically singular"):
            _aligned_blocks(vecs, bounds, linked, connector)
    else:
        args = (vecs, bounds, linked, connector)
        assert_same_classes(_aligned_blocks(*args), oracle_aligned_blocks(*args))


@st.composite
def linked_groups(draw):
    """Arguments of _aligned_blocks: the groups of up to 4 classes of 1-4 groups of one size 1-3
    each, interleaved in eigenvalue order and linked within each class by a random tree (an
    earlier member for each member of a random order, so walks run along chains) plus random
    links, with the columns of a random unitary and a complex Gaussian connector."""
    classes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(len(classes)), [m for _, m in classes]))
    bounds = np.cumsum([0] + [classes[c][0] for c in labels])
    extra = rng.random((len(labels), len(labels))) < 0.3
    linked = (np.eye(len(labels), dtype=bool) | extra | extra.T) & (labels[:, None] == labels)
    for c in range(len(classes)):
        members = rng.permutation(np.flatnonzero(labels == c))
        for i in range(1, len(members)):
            j = members[rng.integers(i)]
            linked[members[i], j] = linked[j, members[i]] = True
    n = bounds[-1]
    gaussian = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    return np.linalg.qr(gaussian[0])[0], bounds, linked, gaussian[1]


@pytest.mark.deep
@settings(deadline=None)
@given(args=linked_groups())
def test_aligned_blocks_match_a_per_edge_loop_oracle_along_chains(args):
    # a tree deeper than one edge composes the rotations along its paths
    assert_same_classes(_aligned_blocks(*args), oracle_aligned_blocks(*args))


def oracle_block_expectation(x, dims):
    """One block pair at a time: a block off the diagonal whole, one on it less its partial
    trace over the right factor, divided by dR, (x) I."""
    edges = np.cumsum([0] + [dl * dr for dl, dr in dims])
    norms = np.empty((len(x), len(dims), len(dims)))
    lefts = [np.empty((len(x), dl, dl), dtype=complex) for dl, _ in dims]
    for i, mat in enumerate(x):
        for j, (dl, dr) in enumerate(dims):
            for k in range(len(dims)):
                piece = mat[edges[j] : edges[j + 1], edges[k] : edges[k + 1]]
                if j == k:
                    lefts[j][i] = partial_trace_right(piece, dl, dr)
                    piece = piece - np.kron(lefts[j][i] / dr, np.eye(dr))
                norms[i, j, k] = np.linalg.norm(piece)
    return norms, lefts


@pytest.mark.deep
@settings(deadline=None)
@given(
    dims=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=5),
    count=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=[(1, 1), (2, 3), (1, 1), (3, 1), (2, 2)], count=2, seed=0)
def test_block_expectation_matches_a_per_pair_loop_oracle(dims, count, seed):
    # 1x1 blocks and blocks of unequal size; a stack in block form reads rounding level, not the
    # sqrt(eps) that squared norms subtracted from each other would leave
    n = sum(dl * dr for dl, dr in dims)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    norms, lefts = _block_expectation(x, dims)
    want_norms, want_lefts = oracle_block_expectation(x, dims)
    np.testing.assert_allclose(norms, want_norms, rtol=1e-12, atol=1e-14)
    for got, want in zip(lefts, want_lefts, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    if count:
        one = _block_expectation(x[0], dims)
        np.testing.assert_array_equal(one[0], norms[0])
        for got, want in zip(one[1], lefts, strict=True):
            np.testing.assert_array_equal(got, want[0])
    formed = np.zeros((count, n, n), dtype=complex)
    for (dl, dr), lo, left in zip(dims, np.cumsum([0] + [dl * dr for dl, dr in dims]), lefts):
        formed[:, lo : lo + dl * dr, lo : lo + dl * dr] = np.kron(left, np.eye(dr))
    assert np.all(_block_expectation(formed, dims)[0] <= 1e-13)


@pytest.mark.parametrize("spec", ["2x2,2x1,1x2", "3x2,2x3", "1x2,1x2,2x1"])
def test_decompose_takes_no_svd_of_an_orthonormal_basis(spec, monkeypatch):
    # a solved basis is orthonormal to rounding and is used as it is; twice it is not, and the
    # SVD path gives the same blocks
    f = fixed_point_space(synthesize_pair(parse_block_spec(spec), seed=5)[0])
    spans = spy(monkeypatch, entropy_analysis, "_orthonormal_span")
    skipped = decompose_fixed_point_algebra(f)
    assert len(spans) == 0
    svd = decompose_fixed_point_algebra(FixedPointBasis(f.dim, 2 * f.basis, 0.0, f.spectral_gap))
    assert len(spans) == 1
    assert skipped.block_dims == svd.block_dims
    for a, b in zip(skipped.blocks, svd.blocks):
        np.testing.assert_allclose(
            a.isometry @ a.isometry.conj().T, b.isometry @ b.isometry.conj().T, atol=1e-9
        )


def test_decompose_projects_no_dagger_of_a_hermitian_basis(monkeypatch):
    # a solved basis is Hermitian to the bit, so each element is its own dagger: the span checks
    # project only the identity and the products; i times that basis is not Hermitian, and its
    # daggers are projected too
    f = fixed_point_space(synthesize_pair(parse_block_spec("2x2,2x1,1x2"), seed=5)[0])
    projections = spy(monkeypatch, entropy_analysis, "_outside_span")
    hermitian = decompose_fixed_point_algebra(f)
    assert len(projections) == 2
    skew = decompose_fixed_point_algebra(FixedPointBasis(f.dim, 1j * f.basis, 0.0, f.spectral_gap))
    assert len(projections) == 2 + 3
    assert hermitian.block_dims == skew.block_dims


def as_basis(mats):
    return FixedPointBasis(
        dim=len(mats[0]),
        basis=tuple(np.asarray(m, dtype=complex) for m in mats),
        residual_bound=0.0,
        spectral_gap=1.0,
    )


def conjugated(mats, seed):
    u = np.asarray(random_unitary(len(mats[0]), seed))
    return [u @ m @ u.conj().T for m in mats]


FLIP = np.zeros((3, 3), dtype=complex)
FLIP[:2, :2] = SIGMA_X
I4, ZI = np.eye(4), np.kron(SIGMA_Z, np.eye(2))
NOT_CLOSED_SPANS = {
    # (sigma_x (+) 0)^2 = diag(1, 1, 0)
    "I, sigma_x (+) 0": [np.eye(3), FLIP],
    # (sigma_z (x) I)(sigma_x (x) sigma_z) = i sigma_y (x) sigma_z
    "I, Z (x) I, X (x) Z": conjugated([I4, ZI, np.kron(SIGMA_X, SIGMA_Z)], 31),
    # (sigma_z (x) I)(I (x) sigma_z) = sigma_z (x) sigma_z
    "I, Z (x) I, I (x) Z": conjugated([I4, ZI, np.kron(np.eye(2), SIGMA_Z)], 32),
}


@pytest.mark.parametrize("mats", NOT_CLOSED_SPANS.values(), ids=NOT_CLOSED_SPANS.keys())
def test_span_not_closed_under_products_rejected(mats):
    # each span is dagger-closed and unital, but a product leaves it
    with pytest.raises(NotAnAlgebraError, match="not closed under products"):
        decompose_fixed_point_algebra(as_basis(mats))


# E_ab on the first two coordinates, and the identity on the last two
UNITS_2X1_1X2 = [np.outer(I4[a], I4[b]) for a in range(2) for b in range(2)] + [(I4 - ZI) / 2]

NON_HERMITIAN_BASES = {
    "matrix units of 2x1,1x2": (conjugated(UNITS_2X1_1X2, 33), [(1, 2), (2, 1)]),
    # x + x^dag of a real combination of this basis is 0
    "i times the diagonal algebra": (
        [1j * b for b in fixed_point_space(dephasing_channel(4)).basis],
        [(1, 1)] * 4,
    ),
}


@pytest.mark.parametrize(
    "mats, dims", NON_HERMITIAN_BASES.values(), ids=NON_HERMITIAN_BASES.keys()
)
def test_non_hermitian_basis_decomposes(mats, dims, tol):
    f = as_basis(mats)
    structure = decompose_fixed_point_algebra(f)
    assert sorted(structure.block_dims) == dims
    assert block_form_residual(f, structure) <= 10 * tol.fix


MEMORY_CASES = {
    "4x2,2x3,1x2": (
        lambda: synthesize_pair(parse_block_spec("4x2,2x3,1x2"), seed=7)[0],
        [(1, 2), (2, 3), (4, 2)],
    ),
    # a unitary channel fixes every matrix, so d = N^2 = 144: d^3 structure
    # constants alone would take 48 MB
    "unitary N=12": (lambda: random_bistochastic_channel(12, 1, seed=34), [(12, 1)]),
}


@pytest.mark.parametrize("make_phi, dims", MEMORY_CASES.values(), ids=MEMORY_CASES.keys())
def test_decompose_memory_stays_small(make_phi, dims):
    f = fixed_point_space(make_phi())
    tracemalloc.start()
    try:
        structure = decompose_fixed_point_algebra(f, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(structure.block_dims) == dims
    assert peak < 16 * 2**20


class TestNegativeSeeds:
    def test_synthesize_pair_sign_matters(self):
        spec = BlockSpec(blocks=((2, 1), (1, 2)))
        plus, _, _ = synthesize_pair(spec, 3)
        minus, _, _ = synthesize_pair(spec, -3)
        assert channel_distance(plus, minus) > 0

    def test_float_seed_is_refused(self):
        phi, _, _ = synthesize_pair(parse_block_spec("2x2,1x2"), seed=5)
        with pytest.raises(TypeError):
            synthesize_pair(parse_block_spec("2x2,1x2"), seed=5.0)
        with pytest.raises(TypeError):
            decompose_fixed_point_algebra(fixed_point_space(phi), seed=3.0)

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
