"""Entropy preservation as executable predicates and constructors.

For a bi-stochastic channel phi and a state rho, three statements are
equivalent: the channel preserves the entropy of the state; rho is a fixed
point of adjoint(phi) o phi; and the space splits as a direct sum of tensor
blocks H^L_k (x) H^R_k on which phi acts as (unitary conjugation) (x)
(bi-stochastic map) while rho is block diagonal with maximally mixed right
factors.  This module turns each leg of that equivalence into something a
program can check or build:

* :func:`entropy_preservation_report` compares entropy equality against the
  fixed-point condition and exposes both residuals;
* :func:`fixed_point_space` computes the fixed-point space of
  adjoint(phi) o phi, for bi-stochastic phi a dagger-closed unital matrix
  algebra: the commutant of that map's Kraus operators, returned with the
  block structure it was certified in (``structure``);
* :func:`decompose_fixed_point_algebra` block-diagonalizes that algebra into
  isometries exhibiting the tensor structure, from the eigenspaces of one
  generic element;
* :func:`verify_block_structure` certifies a claimed structure against a
  concrete (channel, state) pair and extracts the block data;
* :func:`synthesize_pair` goes the other way, building a preserving pair from
  a block specification;
* :func:`entropy_monotonicity_check`, :func:`check_petz_equality` and
  :func:`map_entropy_preservation_report` cover the relative-entropy
  monotonicity, the recovery-map equality condition, and the map-entropy
  analogue of the equivalence.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

import numpy as np

from .channels import (
    ChannelClass,
    KrausChannel,
    _apply,
    _choi_distance,
    _kraus_stack,
    _petz_recovery,
    _product_stack,
    _require,
    _sliced_sum,
    kraus_channel,
)
from .choi import _map_entropy_bits
from .errors import (
    AmbiguousGroupingError,
    DimensionMismatchError,
    InvalidSpecError,
    NotAnAlgebraError,
    NotStochasticError,
    StructureMismatchError,
    SupportViolationError,
    ValidationError,
)
from .generators import _gaussian_state, _seeded_rng, random_bistochastic_channel, random_unitary
from .states import (
    DensityMatrix,
    EquivalenceReport,
    _require_same_dim,
    _support_leak,
    entropy_of_matrix,
    frozen_array,
    relative_entropy,
    spectral_decomposition,
    validate_state,
    von_neumann_entropy,
)
from .tolerances import _GROUP_RTOL, _RECON_TOL, DEFAULT_TOL, ToleranceConfig

__all__ = [
    "MonotonicityReport",
    "FixedPointBasis",
    "Block",
    "BlockStructure",
    "BlockSpec",
    "BlockVerification",
    "parse_block_spec",
    "entropy_preservation_report",
    "entropy_monotonicity_check",
    "check_petz_equality",
    "fixed_point_space",
    "decompose_fixed_point_algebra",
    "block_form_residual",
    "verify_block_structure",
    "synthesize_pair",
    "map_entropy_preservation_report",
]

# Relative singular-value cut used for numerical rank decisions inside the
# algebra machinery; true spectra here are separated by many orders.
_RANK_RTOL = 1e-9
_SQRT_HALF = math.sqrt(0.5)
# For the pair gap (:func:`_block_frame_gap`): the largest side dR_j dR_l of a pair's eigvalsh,
# and the largest coupling bound, below the 1e-10 to which the pair gap matches a dense eigensolve.
# Measured on 1x24,1x24 (576-side pairs, one BLAS thread): 0.28-0.35 s and 64 MB by pairs, 0.16 s
# and 11 MB by Lanczos.
_EXACT_GAP_DIM, _PAIR_COUPLING = 256, 1e-11
_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class FixedPointBasis:
    """Orthonormal basis of the fixed-point space of adjoint(phi) o phi.

    ``basis`` is one read-only (d, N, N) array of Hermitian elements, and ``residual_bound`` the
    float the solve accepted them on (the exact span residual where the certificate failed), up to
    rounding at least ||adjoint(phi)(phi(X)) - X||_F for every unit X of a block's span.
    ``spectral_gap`` is the distance from 1 to the largest eigenvalue of
    adjoint(phi) o phi outside the span, so tests can assert the cut was unambiguous; it is +inf
    when everything is fixed.  It is read in the block frame, on the right-factor space
    Herm(sum dR), where an exact frame leaves the same eigenvalues: one block pair (j, l) at a
    time, by an exact eigensolve of side dR_j dR_l <= 256, as a lower bound within 2e-11 of the
    whole; else the whole frame by Lanczos (the rule: :func:`_block_frame_gap`).
    ``structure`` holds the blocks of that frame (None only for a basis built by hand).

    A basis built by hand, ``FixedPointBasis(dim, basis, residual_bound, spectral_gap[,
    structure])``, holds a read-only complex copy of its basis and the structure it is given:
    neither basis nor structure, or a basis with non-finite entries, raises ValidationError, and
    a basis that is not a (d, dim, dim) stack DimensionMismatchError.
    One from :func:`fixed_point_space` holds only its structure and three numbers (``basis`` is
    None), and builds ``basis`` from the blocks on first read (``functools.cached_property``).
    """

    dim: int
    residual_bound: float
    spectral_gap: float
    structure: BlockStructure | None

    def __init__(
        self,
        dim: int,
        basis: np.ndarray | None,
        residual_bound: float,
        spectral_gap: float,
        structure: BlockStructure | None = None,
    ):
        if basis is None and structure is None:
            raise ValidationError("a fixed-point basis needs basis or structure; both are None")
        if basis is not None:
            try:
                basis = frozen_array(basis)
            except (TypeError, ValueError):
                raise DimensionMismatchError(f"basis is not a (d, {dim}, {dim}) stack") from None
            if basis.shape[1:] != (dim, dim):
                raise DimensionMismatchError(f"basis shape {basis.shape} is not (d, {dim}, {dim})")
            if not np.isfinite(basis).all():
                raise ValidationError("basis contains non-finite entries")
            vars(self)["basis"] = basis  # a filled cache
        vars(self).update(
            dim=dim, residual_bound=residual_bound, spectral_gap=spectral_gap, structure=structure
        )

    @cached_property
    def basis(self) -> np.ndarray:
        """V (E (x) I/sqrt(dR)) V^dag over the Hermitian units E of each block, block by block in
        the order of ``structure`` (:func:`_block_units`)."""
        n, blocks = self.dim, self.structure.blocks
        edges = np.cumsum([0] + [b.dim_left**2 for b in blocks])
        basis = np.empty((edges[-1], n, n), dtype=complex)
        for b, lo, hi in zip(blocks, edges, edges[1:]):
            _block_units(b.isometry.reshape(n, b.dim_left, b.dim_right), out=basis[lo:hi])
        basis.setflags(write=False)
        return basis


@dataclass(frozen=True)
class Block:
    """One tensor block: an isometry onto H^L (x) H^R with the two factor dims."""

    isometry: np.ndarray
    dim_left: int
    dim_right: int


@dataclass(frozen=True)
class BlockStructure:
    dim: int
    blocks: tuple[Block, ...]

    @property
    def block_dims(self) -> tuple[tuple[int, int], ...]:
        return tuple((b.dim_left, b.dim_right) for b in self.blocks)


@dataclass(frozen=True)
class BlockSpec:
    """Specification for synthesizing an entropy-preserving pair.

    ``blocks`` lists (left dim, right dim) pairs; :func:`synthesize_pair`
    draws everything else about the pair from its seed.
    """

    blocks: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return sum(dl * dr for dl, dr in self.blocks)


@dataclass(frozen=True)
class BlockVerification:
    """Residuals and extracted data from verifying a block structure."""

    block_dims: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    left_states: tuple[np.ndarray, ...]
    left_unitaries: tuple[np.ndarray, ...]
    block_diagonal_residual: float
    factorization_residual: float
    invariance_residual: float
    action_residual: float
    unitary_residual: float
    right_bistochastic_residual: float


def parse_block_spec(text: str) -> BlockSpec:
    """Parse a block list like ``"2x1,1x2"`` into a :class:`BlockSpec`."""
    blocks = []
    for piece in text.split(","):
        piece = piece.strip().lower()
        parts = piece.split("x")
        if len(parts) != 2:
            raise InvalidSpecError(f"bad block {piece!r}; expected format like 2x1")
        try:
            dl, dr = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidSpecError(f"bad block {piece!r}: {exc}") from exc
        blocks.append((dl, dr))
    return BlockSpec(blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Verdict reports
# ---------------------------------------------------------------------------


def entropy_preservation_report(
    phi: KrausChannel, rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceReport:
    """Evaluate entropy preservation and the fixed-point condition side by side."""
    _require(phi, "bistochastic", "report needs a bi-stochastic channel", tol)
    _require_same_dim(channel=phi.dim, state=rho.dim)
    out = _apply(phi.kraus, rho.matrix)
    residual = float(np.linalg.norm(_apply(phi.kraus, out, adjoint=True) - rho.matrix))
    s_in, s_out = von_neumann_entropy(rho), entropy_of_matrix(out)
    return EquivalenceReport.judge("preservation", s_in, s_out, residual, tol.eq, tol.fix)


@dataclass(frozen=True)
class MonotonicityReport:
    """Relative entropies before and after a stochastic channel.

    ``entropy_in``/``entropy_out``/``entropy_gain`` are filled only when the
    channel is bi-stochastic and the reference state is maximally mixed, the
    case in which monotonicity specializes to entropy non-decrease.
    """

    relative_entropy_in: float
    relative_entropy_out: float
    slack: float
    entropy_in: float | None = None
    entropy_out: float | None = None
    entropy_gain: float | None = None


def _relative_entropy_across(
    phi: KrausChannel,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    what: str,
    tol: ToleranceConfig,
) -> tuple[ChannelClass, float, float, DensityMatrix, DensityMatrix]:
    """S(rho||sigma) before and after phi, shared by the monotonicity and Petz checks.

    Checks the preconditions in order (phi trace preserving, with ``what`` opening the message;
    dimensions; supp(rho) within supp(sigma)) and returns phi's classification, S before, S after
    and the states phi(rho) and phi(sigma), which carry their spectra.  The outputs are built,
    not validated: a trace defect of phi within tol.eq shows in S after.
    """
    cls = _require(phi, "stochastic", what, tol)
    _require_same_dim(channel=phi.dim, rho=rho.dim, sigma=sigma.dim)
    s_before = relative_entropy(rho, sigma, tol)
    if s_before == math.inf:
        # the relative entropy is +inf exactly when the support leak exceeds tol.psd
        raise SupportViolationError(
            "supp(rho) is not contained in supp(sigma); "
            f"leakage {_support_leak(rho.spectrum, sigma.spectrum, tol):.3e}"
        )
    outs = (frozen_array(_apply(phi.kraus, x.matrix), copy=False) for x in (rho, sigma))
    out_rho, out_sigma = (DensityMatrix(phi.dim, o, spectral_decomposition(o)) for o in outs)
    return cls, s_before, relative_entropy(out_rho, out_sigma, tol), out_rho, out_sigma


def entropy_monotonicity_check(
    phi: KrausChannel,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MonotonicityReport:
    """Relative entropy before vs after the channel; slack must be >= -tol.eq."""
    what = "monotonicity needs a trace-preserving channel"
    cls, s_before, s_after, out_rho, _ = _relative_entropy_across(phi, rho, sigma, what, tol)
    entropies, n = (), phi.dim  # (entropy_in, entropy_out, entropy_gain) when filled
    if cls.bistochastic and np.linalg.norm(sigma.matrix - np.eye(n) / n) <= tol.eq:
        entropy_in, entropy_out = von_neumann_entropy(rho), von_neumann_entropy(out_rho)
        entropies = (entropy_in, entropy_out, entropy_out - entropy_in)
    return MonotonicityReport(s_before, s_after, s_before - s_after, *entropies)


def check_petz_equality(
    phi: KrausChannel,
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> EquivalenceReport:
    """Compare relative-entropy equality against recovery by the sigma-weighted map.

    Equality of S(rho||sigma) across the channel holds exactly when the
    recovery channel built from sigma undoes the channel on rho; the report
    (kind ``"petz"``) carries both residuals and the two verdicts.
    """
    what = "equality check needs a trace-preserving channel"
    _, s_before, s_after, out_rho, out_sigma = _relative_entropy_across(phi, rho, sigma, what, tol)
    recovery = _petz_recovery(phi, sigma.spectrum, out_sigma.spectrum, tol)
    residual = float(np.linalg.norm(_apply(recovery, out_rho.matrix) - rho.matrix))
    return EquivalenceReport.judge("petz", s_before, s_after, residual, tol.eq, tol.fix)


def map_entropy_preservation_report(
    phi: KrausChannel, psi: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceReport:
    """Map entropy of the composition vs the superoperator fixed-point condition.

    The report has kind ``"map_entropy"``: entropy_in is S^map(psi),
    entropy_out is S^map(phi o psi) and the fixed-point residual is
    ||S_phi^dag S_phi S_psi - S_psi||_F.  S^map(phi o psi) comes from the
    stack of the products M_i N_j and the norm from the Kraus stacks of psi
    and of adjoint(phi) o phi o psi; the product stacks are QR-folded to at
    most N^2 rows (realignment only permutes entries), and no superoperator
    is formed.  The composition keeps a trace check of its own, as the
    residuals of phi and psi add: ||sum P^dag P - I||_F <= tol.eq N for the
    folded stack {P} (folding keeps sum P^dag P), formed alone with no
    classification, else NotStochasticError.
    """
    _require(phi, "bistochastic", "outer channel must be bi-stochastic", tol)
    _require(psi, "stochastic", "inner channel must be trace preserving", tol)
    _require_same_dim(phi=phi.dim, psi=psi.dim)
    outer, inner, n = phi.kraus, psi.kraus, phi.dim
    s_inner = _map_entropy_bits(_kraus_stack(psi), n)
    folded, what = _product_stack(outer, inner), "map entropy needs a trace-preserving channel"
    gram = _sliced_sum(folded.reshape(-1, n, n), lambda ps: ps.conj().swapaxes(1, 2) @ ps)
    residual = float(np.linalg.norm(gram - np.eye(n)))
    if residual > tol.eq * n:
        raise NotStochasticError(f"{what}; residual {residual:.3e}")
    s_composed = _map_entropy_bits(folded, n)
    del folded  # the two stacks below need not coexist with it
    # Kraus stacks of adjoint(phi) o phi, then of adjoint(phi) o phi o psi, in <= N^2 rows
    twice = _product_stack(outer.conj().transpose(0, 2, 1), outer).reshape(-1, n, n)
    thrice = _product_stack(twice, inner)
    residual = _choi_distance(thrice, _kraus_stack(psi))
    return EquivalenceReport.judge("map_entropy", s_inner, s_composed, residual, tol.eq, tol.fix)


# ---------------------------------------------------------------------------
# Fixed-point space, from the eigenspaces of one generic element
# ---------------------------------------------------------------------------


class _Ambiguous(Exception):
    """Internal retry signal: generic-element randomness was unlucky."""


def _retrying(seed: int, attempt: Callable[[np.random.Generator], _T]) -> _T:
    """attempt(rng) with rng = ``_seeded_rng(seed, i)`` for i = 0, 1, 2, 3, until one does not raise
    the retry signal; the fourth signal raises AmbiguousGroupingError with its reason."""
    for i in range(4):
        try:
            return attempt(_seeded_rng(seed, i))
        except _Ambiguous as exc:
            last_failure = str(exc)
    raise AmbiguousGroupingError(f"{last_failure} after 3 retries")


def _group_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Group sorted eigenvalues whose relative gap is below _GROUP_RTOL, as runs b[g]:b[g + 1].

    A gap inside the window just above the threshold, where degenerate and
    distinct eigenvalues cannot be told apart, raises the retry signal.
    """
    threshold = _GROUP_RTOL * max(1.0, float(vals[-1] - vals[0]))
    gaps = np.diff(vals)
    if np.any((gaps > threshold) & (gaps < 100.0 * threshold)):
        raise _Ambiguous("eigenvalue gap inside the ambiguous window")
    return np.concatenate(([0], np.flatnonzero(gaps > threshold) + 1, [vals.size]))


def _block_sums(squares: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The (..., K, K) sums of a (..., N, N) stack over its blocks, by runs of positive length."""
    return np.add.reduceat(np.add.reduceat(squares, bounds[:-1], axis=-2), bounds[:-1], axis=-1)


def _aligned_blocks(vecs, bounds, linked, connector) -> list[np.ndarray]:
    """Each class of linked eigenvector groups, as one (N, size, members) array in one frame.

    A class is walked breadth first from its lowest group; a group q reached from p is rotated by
    the polar part of the eigenbasis block connector[q, p], times p's rotation, so that connector
    blocks within the class become multiples of the identity.  One SVD takes the blocks B of all
    edges, each padded to the largest group size as B (+) pI, p = ||B||_F / sqrt(size): p lies
    between the extreme singular values that the singularity test reads, and the polar part is
    polar(B) (+) I.  The eigenvectors take all rotations in one product with a block-diagonal frame.
    Linked groups of unequal size, then a singular block, raise the retry signal.
    """
    links, sizes, frame = linked.tolist(), np.diff(bounds).tolist(), np.identity(len(vecs), complex)
    seen, classes, edges = [False] * len(sizes), [], []  # edges: (q, p, size) in walk order
    for root in (g for g in range(len(sizes)) if not seen[g]):
        seen[root], order = True, [root]
        for p in order:  # grows during the walk
            for q in [q for q, on in enumerate(links[p]) if on and not seen[q]]:
                if sizes[q] != sizes[root]:
                    raise _Ambiguous("linked eigenspaces differ in dimension")
                seen[q] = True
                order.append(q)
                edges.append((q, p, sizes[q]))
        classes.append(order)
    padded = np.tile(np.eye(max(sizes), dtype=complex), (len(edges), 1, 1))
    for x, (q, p, s) in zip(padded, edges):
        x[:s, :s] = block = connector[bounds[q] : bounds[q + 1], bounds[p] : bounds[p + 1]]
        x[s:, s:] *= math.sqrt(np.vdot(block, block).real / s)
    u, svals, vh = np.linalg.svd(padded)
    if np.any(svals[:, -1] <= 1e-8 * np.maximum(1.0, svals[:, 0])):
        raise _Ambiguous("connecting element is numerically singular")
    for (q, p, s), polar in zip(edges, u @ vh):  # p's frame is set before q's
        fq, fp = slice(bounds[q], bounds[q + 1]), slice(bounds[p], bounds[p + 1])
        frame[fq, fq] = polar[:s, :s] @ frame[fp, fp]
    aligned, cols = vecs @ frame, [np.add.outer(bounds[o], np.arange(sizes[o[0]])) for o in classes]
    return [aligned[:, c].transpose(0, 2, 1) for c in cols]


def _split(ops: np.ndarray, z: np.ndarray, tol: ToleranceConfig) -> list[np.ndarray]:
    """The linked eigenspace classes of x + x^dag, x = sum z[0, j] ops_j, for an (m, N, N) stack.

    In the eigenbasis V, groups a and b (:func:`_group_eigenvalues`) are linked when their weight
    sum_j ||P_a c_j P_b||_F^2 + ||P_b c_j P_a||_F^2 over c_j = V^dag ops_j V exceeds tol.fix times
    the largest weight; for a block-diagonal family it is 0 across blocks.  Each connected class
    comes back aligned by the connector sum z[1, j] c_j (:func:`_aligned_blocks`).
    """
    m, n, _ = ops.shape
    x = (z[0] @ ops.reshape(m, -1)).reshape(n, n)
    vals, vecs = np.linalg.eigh(x + x.conj().T)
    bounds = _group_eigenvalues(vals)
    c = vecs.conj().T @ ops @ vecs
    weight = _block_sums(np.sum(np.abs(c) ** 2, axis=0), bounds)
    weight = weight + weight.T
    linked = weight > tol.fix * weight.max()
    return _aligned_blocks(vecs, bounds, linked, (z[1] @ c.reshape(m, -1)).reshape(n, n))


def _hermitian_coords(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates Z = Re X + Im X of twice the Hermitian parts X of P and of iP, P + P^dag and
    i(P - P^dag), for an (m, N, N) stack.  Re X is symmetric and Im X antisymmetric, so they are
    orthogonal and Z determines both: X -> Z is an isometry of Herm(N), Re tr(A^dag B), onto
    R^(N x N), inverted by :func:`_hermitian_from_coords`."""
    a, b = p.real + p.imag, p.real - p.imag
    return a + b.swapaxes(1, 2), b - a.swapaxes(1, 2)


def _hermitian_from_coords(z: np.ndarray) -> np.ndarray:
    """(Z + Z^T)/2 + i(Z - Z^T)/2 for an (m, N, N) coordinate stack Z, Hermitian to the bit."""
    out = np.empty(z.shape, dtype=complex)
    np.add(z, z.swapaxes(1, 2), out=out.real)
    np.subtract(z, z.swapaxes(1, 2), out=out.imag)
    out *= 0.5
    return out


def _canonical_operators(kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights s_a^2 (ascending) and the Hermitian canonical Kraus operators s_a L_a of
    adjoint(phi) o phi above rounding level (<= N eps_mach times the largest), lightest first.

    P_ji = P_ij^dag for P_ij = M_i^dag M_j, so P_ii, (P_ij + P_ij^dag)/sqrt(2) and
    i(P_ij - P_ij^dag)/sqrt(2) (i < j) recombine {P_ij} unitarily: the same Choi matrix, Hermitian
    members, a real Gram matrix.  No P_ij whose ||P_ij||_F^2 = tr(A_i A_j), A_i = M_i M_i^dag, is
    within the rounding N eps_mach ||A_i||_F ||A_j||_F of the A_i's Gram matrix is formed (k_b per
    block leave k + sum k_b (k_b + 1) / 2 products); the rest, in slices of whole i as one i at a
    time would form them (one :func:`_hermitian_coords` each), fold a stack over N^2 rows into its
    QR factor R (R^T R is kept).  weights[0] holds the skipped weight and its rounding.  The Gram
    eigenvectors U give the s_a L_a as U^T times the stack.
    """
    k, n, _ = kraus.shape
    adjoints, stack = kraus.conj().swapaxes(1, 2), np.zeros((0, n * n))
    gram = (kraus @ adjoints).reshape(k, n * n)  # the A_i as rows, then their Gram matrix
    gram = np.abs((gram.conj() @ gram.T).real)
    level = n * np.finfo(float).eps * np.sqrt(np.outer(np.diagonal(gram), np.diagonal(gram)))
    i, j = np.nonzero(np.triu(gram > level))  # the pairs formed, (i, j) with i <= j
    run = itertools.accumulate(np.bincount(i, 2 - (i == j), k), lambda s, r: s * (s < n * n) + r)
    ends = [x + 1 for x, s in enumerate(run) if s >= n * n or x == k - 1]  # slices of whole i
    for a, b in zip(*(np.split(x, np.searchsorted(i, ends[:-1])) for x in (i, j))):
        re, im = (z.reshape(len(a), n * n) for z in _hermitian_coords(adjoints[a] @ kraus[b]))
        off = a < b  # rows of one i at a time: P_ii, the Hermitian parts, the anti-Hermitian parts
        at = np.argsort(np.argsort(np.concatenate([2 * k * a + b, 2 * k * a[off] + k + b[off]])))
        at, stack = at + len(stack), np.concatenate([stack, np.empty((len(at), n * n))])
        stack[at[: len(a)]] = np.where(off, _SQRT_HALF, 0.5)[:, None] * re
        stack[at[len(a) :]] = _SQRT_HALF * im[off]
        del re, im  # before a QR copies the stack
        if len(stack) > n * n:
            stack = np.linalg.qr(stack, mode="r")
    weights, u = np.linalg.eigh(stack @ stack.T)
    rank = int(np.count_nonzero(weights > n * np.finfo(float).eps * weights[-1]))
    stack = (u[:, -rank:].T @ stack).reshape(rank, n, n)  # freed before the complex copy
    weights = np.r_[np.sum(gram + level, where=gram <= level), weights]
    return weights, _hermitian_from_coords(stack)


def _block_units(cols: np.ndarray, out: np.ndarray) -> None:
    """V (X_ab (x) I/sqrt(dR)) V^dag for one (N, dL, dR) class (V[:, (l, r)] = cols[:, l, r]), over
    the Hermitian units X_ab = ((1 + i)|a><b| + (1 - i)|b><a|)/2 of M_dL (the images of the unit
    coordinates in :func:`_hermitian_from_coords`) in row-major (a, b), each formed as A + A^dag
    (Hermitian to the bit) in the (dL^2, N, N) slice ``out`` of the basis."""
    n, dl, dr = cols.shape
    x = cols.transpose(1, 0, 2).reshape(dl * n, dr)
    g = (x @ x.conj().T).reshape(dl, n, dl, n)  # V (|a><b| (x) I) V^dag
    np.multiply(g.swapaxes(1, 2), (0.5 + 0.5j) / math.sqrt(dr), out=out.reshape(dl, dl, n, n))
    del g  # the (dL N)^2 product is the largest array here
    out += out.conj().swapaxes(1, 2)


def _class_products(canonical: np.ndarray, classes: list[np.ndarray]) -> list[np.ndarray]:
    """The (r, N, dL dR) products O_s V_j of the r canonical operators and each class, one GEMM."""
    n, ends = canonical.shape[1], np.cumsum([cols[0].size for cols in classes])[:-1]
    p = canonical.reshape(-1, n) @ np.concatenate([cols.reshape(n, -1) for cols in classes], 1)
    return np.split(p.reshape(len(canonical), n, -1), ends, axis=2)


def _span_residual(products: np.ndarray, cols: np.ndarray) -> float:
    """max ||adjoint(phi)(phi(X)) - X||_F over unit X in the span of one (N, dL, dR) class's
    :func:`_block_units`, from its (r, N, dL dR) products O_s V (:func:`_class_products`).

    With J[:, (l, (s, r))] = (O_s V)[:, (l, r)], adjoint(phi)(phi(V (E (x) I_dR) V^dag)) is
    J (E (x) I_(r dR)) J^dag, so |a><b| (x) I / sqrt(dR) leaves D_ab = (y_a y_b^dag - x_a x_b^dag) /
    sqrt(dR), and D_ba = D_ab^dag.  The map preserves Hermiticity, so the span's maximum is the one
    over Herm(dL), whose units X_ab leave the coordinates (:func:`_hermitian_coords`)
    Re D_ab + Im D_ba: the root of the top eigenvalue of their real dL^2 x dL^2 Gram, summed over
    slices of N / dL rows (dL N^2 entries at a time).  O((r dR + dL^2) dL^2 N^2).
    """
    n, dl, dr = cols.shape
    x, y = cols.transpose(1, 0, 2), products.reshape(-1, n, dl, dr).transpose(2, 1, 0, 3)
    y = y.reshape(dl, n, -1)  # y[l, i, (s, r)] = (O_s V)[i, (l, r)]
    x_dag, y_dag = (z.reshape(dl * n, -1).conj().T for z in (x, y))
    gram = np.zeros((dl * dl, dl * dl))
    for y_rows, x_rows in zip(*(np.array_split(z, dl, axis=1) for z in (y, x))):
        d = y_rows.reshape(-1, y.shape[2]) @ y_dag - x_rows.reshape(-1, dr) @ x_dag
        d = d.reshape(dl, -1, dl, n)  # d[a, i, b] = row i of the slice of D_ab
        z = (d.real + d.imag.transpose(2, 1, 0, 3)).swapaxes(1, 2).reshape(dl * dl, -1)
        gram += z @ z.T
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh(gram)[-1])) / dr)


def _commutation_bounds(
    phi: KrausChannel, weights: np.ndarray, products: list[np.ndarray], classes: list[np.ndarray]
) -> np.ndarray:
    """For each (N, dL, dR) class V_j, a bound B_j on its span residual (:func:`_span_residual`):
    (2 / sqrt(dR_j)) sum_s omega_s ||O_s V_j - V_j (I (x) n_s)||_F + delta,
    n_s = tr_L(V_j^dag O_s V_j) / dL_j, from the products O_s V_j (:func:`_class_products`) of the
    r canonical operators of adjoint(phi) o phi (:func:`_canonical_operators`, ``weights``
    ascending); :func:`fixed_point_space` gives the proof.  O(r N dL dR^2) per class.

    delta >= ||sum_s O_s^2 - I||_2: over all canonical operators sum O_s^2 = adjoint(phi)(phi(I))
    = I + A + adjoint(phi)(B) for A = sum M^dag M - I and B = sum M M^dag - I; adjoint(phi) is
    positive, so it multiplies the operator norm of the Hermitian B by at most
    ||adjoint(phi)(I)||_2 = t, the top eigenvalue of sum M^dag M.  With the Frobenius norms a, b
    of A, B (``KrausChannel._gram_numbers``), delta = a + t b plus the weights of the operators
    dropped at rounding level (the first bounds the weight of the products never formed, whose
    sum of H^2 has norm at most that weight).  omega_s = min(sqrt(w_s), sqrt(1 + delta)) >=
    ||O_s||_2, as ||O_s||_2 <= ||O_s||_F = sqrt(w_s) and O_s^2 <= sum O^2.
    """
    stochastic_res, unital_res, top = phi._gram_numbers
    dropped = float(np.clip(weights[: len(weights) - len(products[0])], 0.0, None).sum())
    delta = stochastic_res + top * unital_res + dropped
    omega = np.minimum(np.sqrt(weights[len(weights) - len(products[0]) :]), math.sqrt(1 + delta))
    bounds = []
    for p_j, cols in zip(products, classes):
        n, dl, dr = cols.shape
        x, p_j = cols.reshape(n * dl, dr), p_j.reshape(-1, n * dl, dr)  # rows (i, l) in both
        # n_s = sum_l V_l^dag O_s V_l / dL over the V_l = cols[:, l]
        dev = p_j - x @ ((x.conj().T @ p_j) / dl)
        bounds.append(2.0 / math.sqrt(dr) * float(omega @ np.linalg.norm(dev, axis=(1, 2))))
    return np.array(bounds) + delta


def _block_frame_gap(
    canonical: np.ndarray, classes: list[np.ndarray], rng: np.random.Generator
) -> float:
    """1 minus the top eigenvalue of adjoint(phi) o phi outside its fixed space, in the block frame.

    W holds the first left-index columns cols[:, 0, :] of each (N, dL, dR) class.  In an exact
    frame adjoint(phi) o phi acts on block pair (j, l) as id (x) T_jl, so its compression
    Y -> sum_s C_s Y C_s, C_s = W^dag O_s W for the (r, N, N) Hermitian ``canonical`` O_s, to
    Herm(N'), N' = sum dR, has the same eigenvalues, and its fixed space is spanned by the
    I_dR_j / sqrt(dR_j).  Two blocks merged into one class, or one block split by left index,
    leave a fixed direction (a second identity, a cross-pair identity) outside that span, so the
    gap reads ~0.  It is taken one of two ways: 1 - top - c from the block pairs
    (:func:`_pair_top`) when every pair side dR_j dR_l is at most _EXACT_GAP_DIM and the coupling
    bound c at most _PAIR_COUPLING; otherwise by Lanczos on the whole frame
    (:func:`_top_eigenvalue_outside`), in O(j N'^2) memory for j steps.
    """
    w = np.concatenate([cols[:, 0, :] for cols in classes], axis=1)
    dims, n = [cols.shape[2] for cols in classes], w.shape[1]
    ops = w.conj().T @ canonical @ w
    if max(dims) ** 2 <= _EXACT_GAP_DIM:
        top, coupling = _pair_top(ops, dims)
        if coupling <= _PAIR_COUPLING:
            return 1.0 - top - coupling
    ids = np.zeros((len(dims), n, n), dtype=complex)
    ids[:, np.arange(n), np.arange(n)] = np.repeat(np.eye(len(dims)) / np.sqrt(dims), dims, 0).T
    row = ops.transpose(1, 0, 2).reshape(n, -1)  # [C_1 .. C_r], so sum_s C_s Y C_s is one product
    return 1.0 - _top_eigenvalue_outside(lambda y: row @ (y @ ops).reshape(-1, n), ids, rng)


def _top_outside(left: np.ndarray, right: np.ndarray, fixed: np.ndarray, real=False) -> float:
    """Top eigenvalue, over a batch of g, of Y -> sum_s A_s Y B_s on M_(a x b), for (g, r, a, a)
    and (g, r, b, b) Hermitian stacks, outside the orthonormal (or zero) real columns F of the
    (g or 1, ab, q) ``fixed``.  In row-major vec the map is the Hermitian K = sum A_s (x) conj(B_s),
    and P K P - 2 F F^T (P = 1 - F F^T) moves F below its spectrum (|K| <= 1 here), formed by
    rank-q updates when F is not 0.  ``real`` (A_s = B_s: K preserves Herm(a)) takes the real
    Re K + Im K S (S vec(Y) = vec(Y^T)), K on the coordinates of :func:`_hermitian_coords`, of the
    same spectrum."""
    (g, r, a, _), b = left.shape, right.shape[2]
    k = left.reshape(g, r, a * a).swapaxes(1, 2) @ right.reshape(g, r, b * b).conj()
    k = k.reshape(g, a, a, b, b).swapaxes(2, 3).reshape(g, a * b, a * b)
    if real:
        k = k.real + k.imag.reshape(g, a * a, a, a).swapaxes(2, 3).reshape(g, a * a, a * a)
    if fixed.any():
        ft = fixed.swapaxes(1, 2)
        kff = k @ fixed @ ft
        k += fixed @ (ft @ k @ fixed - 2 * np.eye(ft.shape[1])) @ ft
        k -= kff + kff.conj().swapaxes(1, 2)
    return float(np.linalg.eigvalsh(k)[:, -1].max())


def _pair_top(ops: np.ndarray, dims: list[int]) -> tuple[float, float]:
    """For an (r, N', N') Hermitian stack C_s over classes of sizes dR_j: the top eigenvalue of
    Y -> sum_s C_s Y C_s outside the block identities, one block pair at a time, and a bound c on
    the rest.  C_s = D_s + F_s splits into class-diagonal blocks D_s^j and the rest; D acts on pair
    (j, l) as Y -> sum_s D_s^j Y D_s^l (outside I / sqrt(dR_j) when j = l; (l, j) is its adjoint),
    solved in one batch per pair of sizes (:func:`_top_outside`; real for j = l): every (j, j),
    then each j < l whose bound sum_s ||D_s^j||_F ||D_s^l||_F on its map's norm exceeds the top so
    far (no other can change the top; across the blocks of a block channel the bound is at
    rounding level).  By Weyl the whole is within c = n(D, F) + n(F, D) + n(F, F) of it, for the
    operator norms n(A, B) = ||sum A_s A_s^dag||^1/2 ||sum B_s^dag B_s||^1/2, so n(D, F) = n(F, D).
    """
    edges, sizes, labels = np.cumsum([0] + dims), np.array(dims), np.repeat(range(len(dims)), dims)
    diag = np.where(labels[:, None] == labels, ops, 0)
    flat = np.stack([x.transpose(1, 0, 2).reshape(len(labels), -1) for x in (diag, ops - diag)])
    d_norm, f_norm = np.maximum(0.0, np.linalg.eigvalsh(flat @ flat.conj().swapaxes(1, 2))[:, -1])
    blocks, top = [diag[:, lo:hi, lo:hi] for lo, hi in itertools.pairwise(edges)], -math.inf
    for a in sorted(set(dims) - {1}):  # the pairs (j, j); a 1 x 1 one is all fixed
        unit = np.eye(a).reshape(1, -1, 1) / math.sqrt(a)
        stack = np.stack([x for x, size in zip(blocks, dims) if size == a])
        top = max(top, _top_outside(stack, stack, unit, real=True))
    norms = np.sqrt(np.diagonal(_block_sums(np.abs(diag) ** 2, edges), axis1=1, axis2=2))
    j, l = np.nonzero(np.triu(norms.T @ norms > top, 1))
    for a, b in sorted(set(zip(sizes[j].tolist(), sizes[l].tolist()))):
        pairs = np.flatnonzero((sizes[j] == a) & (sizes[l] == b))
        left, right = (np.stack([blocks[x] for x in idx[pairs]]) for idx in (j, l))
        top = max(top, _top_outside(left, right, np.zeros((1, a * b, 1))))
    return top, 2.0 * math.sqrt(d_norm * f_norm) + f_norm


def _top_eigenvalue_outside(gram, basis: np.ndarray, rng: np.random.Generator) -> float:
    """Top eigenvalue of self-adjoint ``gram`` on Herm(n) minus span(basis), for an (d, n, n)
    orthonormal Hermitian ``basis`` with d < n^2.

    Lanczos in the inner product Re tr(A^dag B) from a random Hermitian start.  Each step takes
    the Hermitian part of gram(q) (else i times the fixed space leaks back in through rounding)
    and removes its coordinates along [basis; Krylov vectors] twice, as real rows in a store that
    doubles when full.  It stops when the top Ritz residual is <= 1e-10 (checked after 8 steps,
    then where its decay predicts 1e-10, at most 8 steps on), when beta < 1e-12, or when the
    complement is spanned.
    """
    d, n, _ = basis.shape
    room = n * n - d
    q = np.concatenate([basis.reshape(d, -1).view(float), np.empty((32, 2 * n * n))])
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = (w + w.conj().T).reshape(-1).view(float)
    alphas, betas, m, check, last = [], [], d, 8, (0, 0.0)
    while True:
        for _ in range(2):
            w -= (q[:m] @ w) @ q[:m]
        beta = math.sqrt(w @ w)
        done = beta < 1e-12 or m - d == room
        if alphas and (done or len(alphas) == check):
            off = betas[1:]  # betas[0] normalized the start
            vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
            residual = beta * abs(vecs[-1, -1])
            if done or residual <= 1e-10:
                return float(vals[-1])
            decay = math.log(residual / last[1]) / (len(alphas) - last[0]) if last[1] else 0
            step = min(8, max(1, math.ceil(math.log(1e-10 / residual) / decay))) if decay < 0 else 4
            last, check = (len(alphas), residual), len(alphas) + step
        betas.append(beta)
        if m == len(q):
            q = np.concatenate([q, np.empty((m - d, q.shape[1]))])
        np.divide(w, beta, out=q[m])
        y = gram(q[m].view(complex).reshape(n, n))
        w = (y + y.conj().T).reshape(-1).view(float) * 0.5
        alphas.append(float(q[m] @ w))
        m += 1


def fixed_point_space(
    phi: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> FixedPointBasis:
    """Orthonormal Hermitian basis of {X : adjoint(phi)(phi(X)) = X} for bi-stochastic phi.

    adjoint(phi) o phi is then unital and trace preserving, so its fixed space is the commutant
    (+)_k M_dL (x) I_dR of the algebra its Kraus operators generate (Kribs 2003); no N^2 x N^2
    array is formed.  The Hermitian recombination of the products M_i^dag M_j (QR-folded to
    m <= N^2 rows) gives, from its real Gram matrix, the r Hermitian canonical Kraus operators
    s_a L_a of adjoint(phi) o phi above rounding level (:func:`_canonical_operators`; weights s_a^2
    sum to N), r its Kraus rank; of these the lightest, of total weight <= N tol.fix, are cut for
    the split.  (Mixing in another channel with weight eps moves the raw family by O(sqrt(eps)),
    the kept L_a only by O(eps).)  An attempt splits them at complex Gaussian z (:func:`_split`):
    the eigenspaces of x + x^dag, x = sum z_a s_a L_a, are the dR spaces H^L (x) e_r of each
    block, and groups linked by a weight above tol.fix times the largest form one aligned
    (N, dL, dR) class.  The basis is V (E (x) I/sqrt(dR)) V^dag over the Hermitian units E of
    M_dL (:func:`_block_units`), and its certificate stays in that block frame.  The basis is
    formed only when read, from the blocks (:class:`FixedPointBasis`); spectral_gap is 1
    minus the top eigenvalue of the compression of adjoint(phi) o phi to Herm(N'), N' = sum dR,
    outside the block identities (:func:`_block_frame_gap`: by block pairs while they decouple,
    else by Lanczos): in an exact frame, the top eigenvalue outside the span.  The classes come
    back as ``structure`` too (:func:`_block_structure`).

    The elements are certified fixed by commutation, one class at a time.  For the Hermitian
    canonical operators O_s (all r of them, not cut at tol.fix),
    adjoint(phi)(phi(X)) - X = sum_s O_s [X, O_s] + (sum_s O_s^2 - I) X.  Write
    O_s V = V (I (x) n_s) + D_s with n_s = tr_L(V^dag O_s V) / dL (Hermitian) for a class V; a unit
    X = V Y V^dag of its span, Y = E (x) I/sqrt(dR), commutes with V (I (x) n_s) V^dag, so
    [X, O_s] = V Y D_s^dag - D_s Y V^dag and ||[X, O_s]||_F <= 2 ||Y||_2 ||D_s||_F, with
    ||Y||_2 <= ||E||_F / sqrt(dR) = 1 / sqrt(dR) and ||X||_F = 1.  So the span residual of class j,
    max ||adjoint(phi)(phi(X)) - X||_F, is at most B_j = (2 / sqrt(dR_j)) sum_s omega_s ||D_s||_F
    + delta (:func:`_commutation_bounds`), for omega_s >= ||O_s||_2 and delta >= ||sum O_s^2 - I||_2
    read off the Kraus Gram sums and the canonical weights.  delta is needed: the channel check
    admits ||sum M^dag M - I||_F up to tol.eq N, above tol.fix for N > 10.  The bound holds in exact
    arithmetic, for any V with orthonormal columns; the rounding of both sides is O(N eps_mach).
    The attempt accepts on max B_j <= tol.fix, else on the span residuals (:func:`_span_residual`);
    ``residual_bound`` is the largest it decided on.  So <X, (I - adjoint(phi) o phi) X> <= tol.fix
    on each accepted class span, which by Courant-Fischer holds no more directions than
    adjoint(phi) o phi has eigenvalues within tol.fix of 1 (m tol.fix across m classes).

    Every residual must be <= tol.fix (the elements are fixed) and the gap > tol.fix (no fixed
    direction was missed); an ambiguous grouping or a failed certificate retries with the next
    ``_seeded_rng(seed, attempt)`` (the one after the first failed certificate, and only that one,
    on the uncut family: the cut can drop what holds a block together), and the fourth failure
    raises AmbiguousGroupingError, as does an eigenvalue within tol.fix of 1 outside the commutant
    (a dense eigensolve counts it as fixed).  Cost: O(k N^3 + k^2 N^2) for the Gram of the A_i,
    O(q N^3 + m^2 N^2 + m^3) for the q products it keeps (sum k_b (k_b + 1) / 2 for k_b per block)
    and their m <= min(k^2, N^2) rows, O(r N^3) per attempt, for the split and the certificate's
    one product O_s V; span residuals, only when the certificate fails, O((r dR + dL^2) dL^2 N^2)
    per block; for the gap O(r N^2 N') plus O(r p^2 + p^3), p = dR_j dR_l, for each pair (j, j) and
    each j < l not pruned (:func:`_pair_top`), or O(r N'^3 + j N'^2) per Lanczos step j.  Memory
    O((m + r) N^2 + r N'^2) plus the largest batch of pair matrices, or j N'^2 for Lanczos; reading
    the basis adds its d N^2 entries for d = sum dL^2.  The result keeps the N^2 entries of its
    isometries.
    """
    _require(phi, "bistochastic", "fixed-point space needs a bi-stochastic channel", tol)
    n, kraus = phi.dim, phi.kraus
    weights, canonical = _canonical_operators(kraus)
    cut = canonical[-int(np.count_nonzero(np.cumsum(weights) > n * tol.fix)) :]
    uncut = spent = False  # the attempt after the first failed certificate splits the uncut family

    def attempt(rng: np.random.Generator) -> FixedPointBasis:
        nonlocal uncut, spent
        ops = canonical if uncut else cut
        spent, uncut = spent or uncut, False
        z = rng.standard_normal((2, len(ops))) + 1j * rng.standard_normal((2, len(ops)))
        classes = _split(ops, z, tol)
        products = _class_products(canonical, classes)
        bound = float(_commutation_bounds(phi, weights, products, classes).max())
        if bound > tol.fix:
            bound = max(map(_span_residual, products, classes))
            if bound > tol.fix:
                uncut = not spent  # the cut may have dropped what holds a block together
                why = f"span residual {bound:.3e} > tol.fix {tol.fix:.1e}"
                raise _Ambiguous(f"a fixed-space direction is not fixed ({why})")
        del products  # r N^2 entries the gap does not read
        gap = _block_frame_gap(canonical, classes, rng)
        if gap <= tol.fix:
            raise _Ambiguous(f"a fixed direction lies outside the commutant (gap {gap:.3e})")
        return FixedPointBasis(n, None, bound, gap, _block_structure(n, classes))

    return _retrying(seed, attempt)


# ---------------------------------------------------------------------------
# Algebra decomposition
# ---------------------------------------------------------------------------


def _block_expectation(x: np.ndarray, dims) -> tuple[np.ndarray, list[np.ndarray]]:
    """The block pieces of X - E(X), E(X) = (+)_j tr_R(X_jj) / dR (x) I_dR, for a (..., N, N) stack
    X = V^dag B V in a frame of (dL, dR) blocks: their Frobenius norms over block pairs (j, k), a
    (..., K, K) array, and the partial traces tr_R(X_jj), one (..., dL, dL) stack per block; |X|^2,
    its entries X_jj[(a, r), (b, r)] less tr_R(X_jj)[a, b] / dR, summed over all blocks at once."""
    edges, squares, lefts = np.cumsum([0] + [dl * dr for dl, dr in dims]), np.abs(x) ** 2, []
    for lo, hi, (dl, dr) in zip(edges, edges[1:], dims):  # the entries with equal r, as views
        entries, out = (np.einsum("...arbr->...abr", a[..., lo:hi, lo:hi].reshape(
            *x.shape[:-2], dl, dr, dl, dr)) for a in (x, squares))
        lefts.append(entries.sum(axis=-1))
        out[...] = np.abs(entries - lefts[-1][..., None] / dr) ** 2
    return np.sqrt(_block_sums(squares, edges)), lefts


def _orthonormal_span(mats: np.ndarray) -> tuple[np.ndarray, int]:
    """Hilbert-Schmidt orthonormal basis of the span of an (m, n, n) stack, plus its rank."""
    m, n, _ = mats.shape
    _, svals, vh = np.linalg.svd(mats.reshape(m, n * n), full_matrices=False)
    rank = int(np.sum(svals > _RANK_RTOL * float(svals.max(initial=1.0))))  # rank 0 when m = 0
    return vh[:rank].reshape(rank, n, n), rank


def _outside_span(work: np.ndarray, mats: np.ndarray, tol: ToleranceConfig) -> bool:
    """Whether some matrix of an (m, n, n) stack leaves the span of the orthonormal stack ``work``.

    One matmul takes the span coordinates of the whole batch; a matrix is
    inside when its residual after projection is at most tol.fix relative to
    max(1, its norm).
    """
    n = work.shape[1]
    flat, x = (a.reshape(len(a), n * n) for a in (work, mats))
    residuals = np.linalg.norm(x - (x @ flat.conj().T) @ flat, axis=1)
    return not np.all(residuals <= tol.fix * np.maximum(1.0, np.linalg.norm(x, axis=1)))


def _block_structure(n: int, classes: list[np.ndarray]) -> BlockStructure:
    """The blocks of (N, dL, dR) classes, isometry columns (l, r) with l outer, in a deterministic
    order: by dims, then by the rounded projector V V^dag (its bytes), which, unlike V (unique
    only up to U_L (x) U_R), is a function of the algebra; it is formed only where dims tie."""
    blocks = [Block(frozen_array(c.reshape(n, -1)), c.shape[1], c.shape[2]) for c in classes]

    def key(b: Block):  # + 0.0 below turns -0.0 into 0.0
        tied = [c.shape[1:] for c in classes].count((b.dim_left, b.dim_right)) > 1
        proj = np.round(b.isometry @ b.isometry.conj().T, 6) + 0.0 if tied else np.empty(0)
        return (b.dim_left, b.dim_right, proj.tobytes())

    return BlockStructure(n, tuple(sorted(blocks, key=key)))


def _block_isometries(structure: BlockStructure, **dims: int) -> list[np.ndarray]:
    """Isometries of a structure of the dims given, filling the space, each N x dL dR, or raise."""
    n, isos = structure.dim, [b.isometry for b in structure.blocks]
    _require_same_dim(structure=n, **dims)
    if sum(dl * dr for dl, dr in structure.block_dims) != n:
        raise StructureMismatchError("block dimensions do not add up to the space")
    for k, (v, (dl, dr)) in enumerate(zip(isos, structure.block_dims)):
        if min(dl, dr) < 1:
            raise StructureMismatchError(f"block {k} is {dl}x{dr}; both dims must be positive")
        if v.shape != (n, dl * dr):
            raise StructureMismatchError(
                f"isometry {k} has shape {v.shape}, expected {(n, dl * dr)} for a {dl}x{dr} block"
            )
        if not np.isfinite(v).all():
            raise StructureMismatchError(f"isometry {k} has non-finite entries")
    return isos


def block_form_residual(f: FixedPointBasis, structure: BlockStructure) -> float:
    """Worst deviation of the conjugated basis from block (left (x) scalar) form.

    The block isometries are stacked into one matrix V (an N x N unitary for a complete structure)
    and every basis element B is conjugated at once, V^dag B V.  The result is the largest
    Frobenius norm of an off-diagonal block, or of a diagonal block's deviation from (its partial
    trace over the right factor, divided by dR) (x) I (:func:`_block_expectation`).  The
    structure must fill the basis's space.
    """
    v = np.concatenate(_block_isometries(structure, basis=f.dim), axis=1)
    norms = _block_expectation(v.conj().T @ f.basis @ v, structure.block_dims)[0]
    return float(norms.max(initial=0.0))  # 0.0 for a basis with no elements


def decompose_fixed_point_algebra(
    f: FixedPointBasis, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0
) -> BlockStructure:
    """Block-diagonalize a dagger-closed unital matrix algebra from one generic element.

    The algebra A (the span of ``f.basis``, Hermitian or not) is split into isometries V_k onto
    H^L_k (x) H^R_k such that V_k^dag a V_k is (arbitrary on H^L_k) (x) (scalar on H^R_k) for
    every a in A.  The span is orthonormalized (W_1..W_d, one SVD, unless ||G - I||_F <= _RANK_RTOL
    for the Gram matrix G of a nonempty basis, as from :func:`fixed_point_space`: not tol.fix,
    against which the span checks compare) and checked to be independent, dagger-closed (with no
    projection when the W_j are Hermitian to the bit, as a solved basis is) and unital; then each
    attempt takes x = sum z_j W_j with complex Gaussian z (real z would miss Hermitian elements,
    e.g. of i times a Hermitian basis) and

    * checks that the d products x W_i stay in the span: an out-of-span part
      of some W_j W_i makes theirs a nonzero linear function of z;
    * splits the W_j at z (:func:`_split`, the same split that
      :func:`fixed_point_space` makes): the eigenspaces of x + x^dag are, in
      block k, dL_k spaces e_l (x) H^R_k; groups whose link weight over
      c_j = V^dag W_j V (eigenbasis V) exceeds tol.fix times the largest are
      linked, and each connected class is one block, aligned by a generic
      connector;
    * counts: sum dL_k^2 must equal d.  Two blocks merged into one class, or
      one block split into several, miss the count even where the block form
      below still holds (merged blocks of equal dR pass it).

    The result must pass :func:`block_form_residual` <= 10 tol.fix.  Cost:
    O(d N^3 + d^2 N^2) time (the SVD's d^2 N^2 with a larger constant) and
    O(d N^2) memory.  Draws come from ``seed`` (s and -s differ); an
    ambiguous gap, unequal linked groups, a missed count, a singular
    connector or a failed certificate retries up to 3 times, then raises
    :class:`~qentropy.errors.AmbiguousGroupingError`.
    """
    n, work, d = f.dim, f.basis, len(f.basis)
    flat = work.reshape(d, n * n)
    if not d or np.linalg.norm(flat.conj() @ flat.T - np.eye(d)) > _RANK_RTOL:
        work, d = _orthonormal_span(work)
    if d != len(f.basis):
        raise NotAnAlgebraError("basis elements are not linearly independent")
    daggers = work.conj().transpose(0, 2, 1)
    if not np.array_equal(daggers, work) and _outside_span(work, daggers, tol):
        raise NotAnAlgebraError("span is not closed under conjugate transpose")
    if _outside_span(work, np.eye(n, dtype=complex)[None], tol):
        raise NotAnAlgebraError("identity is not in the span")

    def attempt(rng: np.random.Generator) -> BlockStructure:
        z = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        if _outside_span(work, (z[0] @ work.reshape(d, -1)).reshape(n, n) @ work, tol):
            raise NotAnAlgebraError("span is not closed under products")
        classes = _split(work, z, tol)  # (N, dR, dL) each: a group is one e_l (x) H^R
        if sum(v.shape[2] ** 2 for v in classes) != d:
            raise _Ambiguous("block dimensions do not add up to the algebra dimension")
        structure = _block_structure(n, [v.transpose(0, 2, 1) for v in classes])
        if block_form_residual(f, structure) > 10.0 * tol.fix:
            raise _Ambiguous("conjugated basis misses the block form")
        return structure

    return _retrying(seed, attempt)


# ---------------------------------------------------------------------------
# Structure verification
# ---------------------------------------------------------------------------


def _excess_norm(dev: np.ndarray, kept: np.ndarray) -> float:
    """||sum_i (d_i + k_i)(d_i + k_i)^dag - k_i k_i^dag||_F for rows d_i orthogonal to all k_j, as
    sqrt(tr(G_d G_d) + 2 tr(G_d G_k)) from the Gram matrices G[i, j] = <x_i, x_j>."""
    dev, kept = dev.reshape(len(dev), -1), kept.reshape(len(kept), -1)
    g_dev, g_kept = dev.conj() @ dev.T, kept.conj() @ kept.T
    return math.sqrt(max(0.0, np.vdot(g_dev, g_dev).real + 2.0 * np.vdot(g_kept, g_dev).real))


def _check_residual(value: float, bound: float, what: str) -> None:
    if value > bound:
        raise StructureMismatchError(f"{what} (residual {value:.3e})")


def verify_block_structure(
    structure: BlockStructure,
    phi: KrausChannel,
    rho: DensityMatrix,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BlockVerification:
    """Certify that (phi, rho) realize the claimed block structure.

    Past the structure's own invariants, every check reads R = V^dag rho V and C_i = V^dag M_i V
    for the stacked isometries V.  On block j (rows s_j) the realigned
    Z_i[(a, b), (c, d)] = C_i[s_j, s_j][(a, c), (b, d)] equal u_U n_i^T, the row-major vectors of U
    and N_i, exactly when phi acts there as Ad_U (x) sum_i N_i . N_i^dag (Chen & Wu): the top left
    singular vector u of [Z_1 | ... | Z_k] is u_U / sqrt(dL), and n_i = u^dag Z_i / sqrt(dL).
    Residuals, Frobenius norms maxed over blocks: block_diagonal of R[s_j, s_l], j != l;
    factorization of R_jj - p_j L_j (x) I/dR (weight p_j = tr R_jj, left state
    L_j = tr_R R_jj / p_j), both block pieces of R - E(R) (:func:`_block_expectation`); invariance
    of the superoperator from inputs on s_j to outputs off (s_j, s_j) and action of its
    difference to Ad_U (x) N, both from k x k Gram matrices and quadratic in the Kraus operators
    (so an eps-mixture moves them by O(eps)); unitary of U^dag U - I; right_bistochastic of
    sum N_i^dag N_i - I and sum N_i N_i^dag - I.  Cost: O(k N^3) for the conjugation, then per
    block O(k^2 N n_j) and one dL^2 x k dR^2 SVD; O(k N^2) memory.
    Weights, left states and left unitaries (up to phase) come back with the residuals; a failed
    sub-check raises :class:`~qentropy.errors.StructureMismatchError` naming it.
    """
    n = structure.dim
    v = np.hstack(_block_isometries(structure, channel=phi.dim, state=rho.dim))
    edges = np.cumsum([0] + [dl * dr for dl, dr in structure.block_dims])
    over = np.sqrt(_block_sums(np.abs(v.conj().T @ v - np.eye(n)) ** 2, edges)) > _RECON_TOL * n
    for k in np.flatnonzero(np.diagonal(over))[:1]:  # the first k, then the first pair j < k
        raise StructureMismatchError(f"isometry {k} columns are not orthonormal")
    for j, k in np.argwhere(np.triu(over, 1))[:1]:
        raise StructureMismatchError(f"blocks {j} and {k} have overlapping ranges")

    r = v.conj().T @ rho.matrix @ v
    rows = [slice(a, b) for a, b in itertools.pairwise(edges)]
    norms, lefts = _block_expectation(r, structure.block_dims)
    diag_res = float(norms.max(initial=0.0, where=~np.eye(len(rows), dtype=bool)))
    _check_residual(diag_res, tol.eq, "state couples distinct blocks")
    weights = [float(np.real(np.trace(r[sj, sj]))) for sj in rows]
    kept = np.array(weights) > tol.psd  # a block without weight gets I / dL as its left state
    left_states = [t / w if k else np.eye(len(t)) / len(t) for t, w, k in zip(lefts, weights, kept)]
    fact_res = float(np.diagonal(norms).max(initial=0.0, where=kept))
    what = "a block of the state does not factor as left (x) maximally mixed"
    _check_residual(fact_res, tol.eq * n, what)

    c = v.conj().T @ phi.kraus @ v
    left_unitaries, residuals = [], []
    for (dl, dr), sj in zip(structure.block_dims, rows):
        leak = np.delete(c[:, :, sj], sj, axis=1)
        z = c[:, sj, sj].reshape(-1, dl, dr, dl, dr).swapaxes(2, 3).reshape(-1, dl**2, dr**2)
        u = np.linalg.svd(np.hstack(z), full_matrices=False)[0][:, 0]
        coeffs = u.conj() @ z
        projected = u[:, None] * coeffs[:, None, :]
        u_hat = math.sqrt(dl) * u.reshape(dl, dl)
        n_i = coeffs.reshape(-1, dr, dr) / math.sqrt(dl)
        sums = np.einsum("iab,iac->bc", n_i.conj(), n_i), np.einsum("iab,icb->ac", n_i, n_i.conj())
        res_j = (
            _excess_norm(leak, z),
            float(np.linalg.norm(u_hat.conj().T @ u_hat - np.eye(dl))),
            max(float(np.linalg.norm(m - np.eye(dr))) for m in sums),
            _excess_norm(z - projected, projected),
        )
        _check_residual(res_j[0], tol.eq * n, "channel maps a block outside itself")
        _check_residual(res_j[1], tol.eq * dl, "extracted left factor is not unitary")
        _check_residual(res_j[2], tol.eq * n, "extracted right factor is not bi-stochastic")
        _check_residual(res_j[3], tol.eq * n, "block action differs from unitary (x) channel")
        left_unitaries.append(u_hat)
        residuals.append(res_j)
    inv_res, uni_res, right_res, act_res = (float(x) for x in np.max(residuals, axis=0))

    return BlockVerification(
        block_dims=structure.block_dims,
        weights=tuple(weights),
        left_states=tuple(frozen_array(s) for s in left_states),
        left_unitaries=tuple(frozen_array(u) for u in left_unitaries),
        block_diagonal_residual=diag_res,
        factorization_residual=fact_res,
        invariance_residual=inv_res,
        action_residual=act_res,
        unitary_residual=uni_res,
        right_bistochastic_residual=right_res,
    )


# ---------------------------------------------------------------------------
# Pair synthesis
# ---------------------------------------------------------------------------


def synthesize_pair(
    spec: BlockSpec, seed: int
) -> tuple[KrausChannel, DensityMatrix, BlockStructure]:
    """Build an entropy-preserving (channel, state) pair from a block spec.

    Each block contributes Kraus operators (U_k (x) M) for the block's random
    bi-stochastic right channel, embedded into its own range; the state is
    the weighted direct sum of (left state) (x) (maximally mixed).  The whole
    construction is conjugated by one random global unitary so nothing is
    axis-aligned.  Per-block Kraus operators are embedded separately, which
    makes the channel annihilate cross-block coherences: the fixed-point
    algebra of adjoint(phi) o phi is then exactly the direct sum the spec
    asked for, so decomposition round-trips recover the block dimensions.

    Deterministic given (spec, seed).  One generator seeded by ``seed`` draws,
    in this order: the block weights (a uniform point of the simplex), every
    block's left state, every block's left unitary, the right channels of the
    blocks with dR > 1, and the global basis change.  Like the generators, it
    takes no tolerance: the pair is validated at the defaults, which it passes
    by construction.
    """
    if not spec.blocks:
        raise InvalidSpecError("spec needs at least one block")
    for dl, dr in spec.blocks:
        if dl < 1 or dr < 1:
            raise InvalidSpecError(f"block dims must be positive, got ({dl}, {dr})")
    n = spec.dim
    rng = _seeded_rng(seed)

    def child_seed() -> int:
        return int(rng.integers(0, 2**63))

    weights = rng.dirichlet(np.ones(len(spec.blocks)))
    # the whole state is validated below
    left_states = [_gaussian_state(dl, dl, child_seed()) for dl, _ in spec.blocks]
    unitaries = [np.asarray(random_unitary(dl, child_seed())) for dl, _ in spec.blocks]

    right_channels = [
        kraus_channel([np.eye(1)]) if dr == 1
        # three mixed unitaries keep the right factor's own fixed space
        # trivial, so the synthesized fixed algebra matches the spec
        else random_bistochastic_channel(dr, 3, child_seed())
        for _, dr in spec.blocks
    ]

    basis_change = np.asarray(random_unitary(n, child_seed()))

    kraus_ops, classes, rho = [], [], np.zeros((n, n), dtype=complex)
    edges = np.cumsum([0] + [dl * dr for dl, dr in spec.blocks])
    for (dl, dr), w, left, u, right, lo, hi in zip(
        spec.blocks, weights, left_states, unitaries, right_channels, edges, edges[1:]
    ):
        for m in right.kraus:
            big = np.zeros((n, n), dtype=complex)
            big[lo:hi, lo:hi] = np.kron(u, m)
            kraus_ops.append(basis_change @ big @ basis_change.conj().T)
        rho[lo:hi, lo:hi] = w * np.kron(left, np.eye(dr) / dr)
        classes.append(basis_change[:, lo:hi].reshape(n, dl, dr))

    phi = kraus_channel(kraus_ops)
    rho_state = validate_state(basis_change @ rho @ basis_change.conj().T)
    return phi, rho_state, _block_structure(n, classes)
