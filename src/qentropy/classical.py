"""Shannon entropy, stochastic matrices and the classical shadow of a channel.

Stochastic matrices follow the column convention: B is stochastic when its
columns sum to one and acts on probability column vectors from the left, so
preservation questions read ``H(Bp) = H(p)`` and the fixed-point condition is
``B^T B p = p``.  The Kraus matrix of a channel,
``B(phi)_ij = sum_mu |<i| M_mu |j>|^2``, is the stochastic matrix describing
the channel's action on basis-diagonal states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _apply, classify
from .errors import (
    NotBistochasticError,
    NotDiagonalError,
    NotPositiveError,
    NotSquareError,
    NotStochasticError,
    ValidationError,
)
from .states import DensityMatrix, EquivalenceReport, _entropy_bits, _require_same_dim, frozen_array
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "ProbabilityVector",
    "StochasticMatrix",
    "BridgeReport",
    "probability_vector",
    "stochastic_matrix",
    "shannon_entropy",
    "kraus_matrix",
    "channel_from_bistochastic",
    "corollary_check",
    "bridge_check",
]


@dataclass(frozen=True)
class ProbabilityVector:
    dim: int
    entries: np.ndarray


@dataclass(frozen=True)
class StochasticMatrix:
    """Non-negative square matrix with the residuals max |column sum - 1| and max |row sum - 1|.

    It carries no flags: a caller judges the residuals at its own tol.eq when it needs a
    (bi)stochastic matrix, as ``classify(phi, tol)`` judges a channel's.
    """

    dim: int
    matrix: np.ndarray
    column_residual: float
    row_residual: float


def _require_bistochastic(m: StochasticMatrix, tol: ToleranceConfig) -> None:
    if max(m.column_residual, m.row_residual) > tol.eq:
        raise NotBistochasticError(
            f"matrix is not bistochastic; column residual {m.column_residual:.3e}, "
            f"row residual {m.row_residual:.3e}"
        )


def _clipped_entries(arr: np.ndarray, what: str, tol: ToleranceConfig) -> np.ndarray:
    """arr with entries in [-tol.psd, 0) clipped to zero; empty, non-finite or lower is refused."""
    if arr.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")
    if np.min(arr) < -tol.psd:
        raise NotPositiveError(f"entry {np.min(arr):.3e} below -{tol.psd:.1e}")
    return np.clip(arr, 0.0, None)


def probability_vector(entries, tol: ToleranceConfig = DEFAULT_TOL) -> ProbabilityVector:
    """Validate entries as a probability vector; entries in [-tol.psd, 0) are
    clipped to zero."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("probability vector must be a non-empty 1-D array")
    arr = _clipped_entries(arr, "probability vector", tol)
    total = float(arr.sum())
    if abs(total - 1.0) > tol.eq:
        raise ValidationError(f"entries sum to {total!r}, not 1")
    return ProbabilityVector(dim=arr.size, entries=frozen_array(arr, dtype=float))


def stochastic_matrix(m, tol: ToleranceConfig = DEFAULT_TOL) -> StochasticMatrix:
    """Validate a non-negative matrix, entries in [-tol.psd, 0) clipped to zero, and record its
    column and row residuals."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    arr = _clipped_entries(arr, "matrix", tol)
    return StochasticMatrix(
        dim=arr.shape[0],
        matrix=frozen_array(arr, dtype=float),
        column_residual=float(np.max(np.abs(arr.sum(axis=0) - 1.0))),
        row_residual=float(np.max(np.abs(arr.sum(axis=1) - 1.0))),
    )


def shannon_entropy(p: ProbabilityVector) -> float:
    """-sum p_i log2 p_i in bits, with 0*log2(0) := 0."""
    return _entropy_bits(p.entries)


def kraus_matrix(phi: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL) -> StochasticMatrix:
    """Entrywise B(phi)_ij = sum_mu |M_mu[i, j]|^2.

    Column-stochastic for stochastic channels and bistochastic for
    bi-stochastic ones; satisfies B(adjoint(phi)) = B(phi)^T.  Adjoints of
    stochastic channels are unital rather than trace preserving, so unital
    families are accepted too (their matrix is row-stochastic); a channel
    that is neither is rejected.
    """
    cls = classify(phi, tol)
    if not (cls.stochastic or cls.unital):
        raise NotStochasticError(
            f"Kraus matrix needs a trace-preserving (or unital) channel; "
            f"residuals {cls.stochastic_residual:.3e} / {cls.unital_residual:.3e}"
        )
    return stochastic_matrix((np.abs(phi.kraus) ** 2).sum(axis=0), tol)


def channel_from_bistochastic(
    t: StochasticMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> KrausChannel:
    """Bistochastic channel with Kraus family {sqrt(T_ji) |j><i|}.

    The channel maps diag(p) to diag(T p) and its Kraus matrix is T itself;
    terms with T_ji = 0 are dropped (zero operators do not change the channel).
    tol.eq judges T; the channel built from it is not judged again.
    """
    _require_bistochastic(t, tol)
    rows, cols = np.nonzero(t.matrix)  # row-major: j outer, i inner
    ops = np.zeros((len(rows), t.dim, t.dim), dtype=complex)
    ops[np.arange(len(rows)), rows, cols] = np.sqrt(t.matrix[rows, cols])
    return KrausChannel(t.dim, frozen_array(ops, copy=False))


def corollary_check(
    b: StochasticMatrix, p: ProbabilityVector, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceReport:
    """Check ``H(Bp) = H(p)`` against ``B^T B p = p`` and report both residuals.

    Both verdicts are judged at tol.eq: the entropy gap |H(Bp) - H(p)| in bits
    and the residual ||B^T B p - p||_2.  A caller that needs other thresholds
    compares the report's ``entropy_gap`` and ``fixed_point_residual`` itself.
    """
    _require_bistochastic(b, tol)
    _require_same_dim(matrix=b.dim, vector=p.dim)
    bp = b.matrix @ p.entries  # >= 0 exactly; the entropy kernel drops its zeros
    residual = float(np.linalg.norm(b.matrix.T @ bp - p.entries))
    return EquivalenceReport.judge(
        "preservation", shannon_entropy(p), _entropy_bits(bp), residual, tol.eq, tol.eq
    )


@dataclass(frozen=True)
class BridgeReport:
    """Diagonal of phi(rho) compared against B(phi) applied to diag(rho)."""

    input_probabilities: tuple[float, ...]
    output_probabilities: tuple[float, ...]
    kraus_matrix_probabilities: tuple[float, ...]
    residual: float
    passed: bool


def bridge_check(
    phi: KrausChannel, rho: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> BridgeReport:
    """For basis-diagonal rho, verify diag(phi(rho)) == B(phi) diag(rho).

    Rejects states with off-diagonal mass above tol.eq: the identity is only
    claimed for states diagonal in the computational basis, and we do not
    extend it.
    """
    off = rho.matrix - np.diag(np.diagonal(rho.matrix))
    off_mass = float(np.linalg.norm(off))
    if off_mass > tol.eq:
        raise NotDiagonalError(
            f"state has off-diagonal mass {off_mass:.3e}; diagonal input required"
        )
    p = probability_vector(np.real(np.diagonal(rho.matrix)), tol)
    b = kraus_matrix(phi, tol)
    _require_same_dim(channel=phi.dim, state=rho.dim)
    q_direct = np.real(np.diagonal(_apply(phi.kraus, rho.matrix)))
    q_via_b = b.matrix @ p.entries
    residual = float(np.max(np.abs(q_direct - q_via_b)))
    return BridgeReport(
        input_probabilities=tuple(float(x) for x in p.entries),
        output_probabilities=tuple(float(x) for x in q_direct),
        kraus_matrix_probabilities=tuple(float(x) for x in q_via_b),
        residual=residual,
        passed=residual <= tol.eq,
    )
