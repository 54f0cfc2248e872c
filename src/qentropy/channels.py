"""Quantum operations as Kraus families.

A channel is one read-only (k, N, N) array of Kraus operators ``{M_j}`` acting as
``X -> sum_j M_j X M_j^dag``.  The library never forms its N^2 x N^2
superoperator matrix; the tests build it, ``sum_j kron(conj(M_j), M_j)`` under
column-stacking vectorization, as the dense reference for the fixed-point
solver.

Channel equality is always a statement about superoperator matrices (Kraus
lists are non-unique); use :func:`channel_distance`.  Realignment to Choi matrices
only permutes entries, so it reads the distance off a QR of the two Kraus stacks.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotBistochasticError,
    NotSquareError,
    NotStochasticError,
    ValidationError,
)
from .states import (
    DensityMatrix,
    Spectrum,
    _psd_root,
    _require_same_dim,
    spectral_decomposition,
    as_complex_matrix,
    frozen_array,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "KrausChannel",
    "ChannelClass",
    "kraus_channel",
    "classify",
    "apply_channel",
    "adjoint",
    "compose",
    "channel_distance",
    "petz_recovery",
]


@dataclass(frozen=True)
class KrausChannel:
    """A quantum operation given by its Kraus operators, one read-only C-ordered (k, N, N)
    array ``kraus``.  Validation and :func:`classify` read its Gram numbers, computed on first use."""

    dim: int
    kraus: np.ndarray

    @cached_property
    def _gram_numbers(self) -> tuple[float, float, float]:
        """(||sum M^dag M - I||_F, ||sum M M^dag - I||_F, top eigenvalue of sum M^dag M)."""
        def terms(ks: np.ndarray) -> np.ndarray:  # (s, 2, N, N): one conjugate for both sums
            kh = ks.conj().swapaxes(1, 2)
            return np.stack((kh @ ks, ks @ kh), axis=1)

        eye = np.eye(self.dim)
        gram, cogram = _sliced_sum(self.kraus, terms)
        top = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1])
        return float(np.linalg.norm(gram - eye)), float(np.linalg.norm(cogram - eye)), top


@dataclass(frozen=True)
class ChannelClass:
    """Classification flags plus the Frobenius residuals they were cut from."""

    trace_nonincreasing: bool
    stochastic: bool
    unital: bool
    bistochastic: bool
    stochastic_residual: float
    unital_residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def kraus_channel(operators, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Validate a list of matrices as a Kraus family on a common dimension.

    The largest eigenvalue of ``sum M^dag M`` must not exceed 1 + tol.eq.
    """
    mats = [as_complex_matrix(op) for op in operators]
    if not mats:
        raise ValidationError("a channel needs at least one Kraus operator")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != m.shape[1]:
            raise NotSquareError(f"Kraus operator of shape {m.shape} is not square")
        if m.shape[0] != n:
            raise DimensionMismatchError("Kraus operators act on different dimensions")
    if n == 0:
        raise ValidationError("Kraus operators must be at least 1x1")
    phi = KrausChannel(dim=n, kraus=frozen_array(mats))
    top = phi._gram_numbers[2]
    if top > 1.0 + tol.eq:
        raise ValidationError(
            f"channel increases trace: max eigenvalue of sum M^dag M exceeds 1 by {top - 1:.3e}"
        )
    return phi


def classify(phi: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL) -> ChannelClass:
    """Flags: trace non-increasing / stochastic (TP) / unital / bi-stochastic."""
    stoch_res, unital_res, top = phi._gram_numbers
    stochastic = stoch_res <= tol.eq * phi.dim
    unital = unital_res <= tol.eq * phi.dim
    return ChannelClass(
        trace_nonincreasing=top <= 1.0 + tol.eq,
        stochastic=stochastic,
        unital=unital,
        bistochastic=stochastic and unital,
        stochastic_residual=stoch_res,
        unital_residual=unital_res,
    )


def _require(phi: KrausChannel, prop: str, what: str, tol: ToleranceConfig) -> ChannelClass:
    """Classify phi and raise unless it is ``prop`` ("stochastic" or "bistochastic").

    ``what`` opens the message, e.g. "map entropy needs a trace-preserving
    channel"; the residuals the verdict was cut from follow it.
    """
    cls = classify(phi, tol)
    if prop == "bistochastic" and not cls.bistochastic:
        raise NotBistochasticError(
            f"{what}; stochastic residual {cls.stochastic_residual:.3e}, "
            f"unital residual {cls.unital_residual:.3e}"
        )
    if prop == "stochastic" and not cls.stochastic:
        raise NotStochasticError(f"{what}; residual {cls.stochastic_residual:.3e}")
    return cls


_SLICE_ENTRIES = 8192  # 128 KiB of complex entries, glibc's default mmap threshold


def _sliced_sum(kraus: np.ndarray, batch: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum of the terms of ``batch(S)`` over consecutive (s, N, N) slices S of a Kraus stack.

    ``batch(S)`` has one term per operator of S: an N x N matrix, or an (m, N, N) stack of m
    matrices summed apart.  s = max(1, 8192 // N^2) keeps a slice's N x N products within
    128 KiB, so a call reuses heap memory where one (k, N, N) batch at N >= 48 would fault in
    fresh pages each time.  The terms join a zero sum one at a time in operator order: bit for
    bit a loop over the operators, which a reduction over the stack (pairwise, or starting from
    the first term) would not be.
    """
    n = kraus.shape[1]
    step = max(1, _SLICE_ENTRIES // (n * n))
    for i in range(0, max(len(kraus), 1), step):  # an empty stack still gives the terms' shape
        terms = batch(kraus[i : i + step])
        if i == 0:
            out = np.zeros(terms.shape[1:], dtype=complex)
        for j in range(len(terms)):
            out += terms[j]
        del terms  # it would stay alive while the next batch is formed
    return out


def _apply(kraus: np.ndarray, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """sum_j M_j X M_j^dag for a (k, N, N) stack and a complex N x N X, neither checked; with
    ``adjoint``, sum_j M_j^dag X M_j, the adjoint map applied from the same stack."""
    if adjoint:
        return _sliced_sum(kraus, lambda ks: ks.conj().swapaxes(1, 2) @ x @ ks)
    return _sliced_sum(kraus, lambda ks: ks @ x @ ks.conj().swapaxes(1, 2))


def apply_channel(phi: KrausChannel, x: np.ndarray) -> np.ndarray:
    """sum_j M_j X M_j^dag, in O(k N^3): batched products over max(1, 8192 // N^2) operators at a
    time, whose three temporaries hold at most 128 KiB each (one N x N matrix when N > 90) beside
    the O(N^2) input and result, whatever k is."""
    arr = as_complex_matrix(x)
    if arr.shape != (phi.dim, phi.dim):
        raise DimensionMismatchError(
            f"operator of shape {arr.shape} does not match channel dimension {phi.dim}"
        )
    return _apply(phi.kraus, arr)


def adjoint(phi: KrausChannel) -> KrausChannel:
    """Hilbert-Schmidt adjoint, with Kraus family {M_j^dag}.

    Not revalidated: the adjoint of a trace non-increasing map need not be
    trace non-increasing (it is unital instead when the map is stochastic).
    """
    return KrausChannel(phi.dim, frozen_array(np.conj(phi.kraus.transpose(0, 2, 1), order="C")))


def compose(phi: KrausChannel, psi: KrausChannel) -> KrausChannel:
    """Channel applying psi first, then phi; Kraus family {M_i N_j}."""
    _require_same_dim(phi=phi.dim, psi=psi.dim)
    return KrausChannel(phi.dim, frozen_array(np.concatenate(phi.kraus[:, None] @ psi.kraus[None])))


def _kraus_stack(phi: KrausChannel) -> np.ndarray:
    """The k x N^2 matrix whose rows are the row-major flattened Kraus operators."""
    return phi.kraus.reshape(len(phi.kraus), -1)


def _choi_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||J_a - J_b||_F for row-major Kraus stacks a (K x N^2) and b (k x N^2).

    With [a; b]^T = QR and D = diag(1_K, -1_k), J_a - J_b = Q (R D R^dag) Q^dag:
    the difference is formed entrywise at (K + k)-size, without cancellation.
    """
    r = np.linalg.qr(np.concatenate([a, b]).T, mode="r")
    signs = np.concatenate([np.ones(len(a)), -np.ones(len(b))])
    return float(np.linalg.norm((r * signs) @ r.conj().T))


def _product_stack(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Kraus stack for the family {L_a R_b} of two (k, N, N) arrays, built a few L_a at a time.

    Whenever it outgrows N^2 rows it is replaced by its QR factor r, which keeps
    J = r^T conj(r): no array exceeds N^2 + max(N^2, len(right)) rows of N^2 entries.
    """
    n2 = left.shape[1] ** 2
    step = max(1, n2 // len(right))
    for i in range(0, len(left), step):
        block = (left[i : i + step, None] @ right[None]).reshape(-1, n2)
        stack = np.concatenate([stack, block]) if i else block
        if len(stack) > n2:
            stack = np.linalg.qr(stack, mode="r")
    return stack


def channel_distance(phi: KrausChannel, psi: KrausChannel) -> float:
    """Frobenius distance between the superoperator matrices of two channels."""
    _require_same_dim(phi=phi.dim, psi=psi.dim)
    return _choi_distance(_kraus_stack(phi), _kraus_stack(psi))


def petz_recovery(
    phi: KrausChannel, sigma: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> KrausChannel:
    """Sigma-weighted recovery channel with Kraus family
    ``{sigma^(1/2) M_j^dag phi(sigma)^(-1/2)}``.

    The inverse square root is the generalized one on the support of
    ``phi(sigma)``; applied to ``phi(sigma)`` the result returns ``sigma``
    (restricted to its support) whenever ``phi`` is stochastic.
    """
    _require(phi, "stochastic", "recovery map needs a trace-preserving channel", tol)
    _require_same_dim(channel=phi.dim, state=sigma.dim)
    spec_out = spectral_decomposition(_apply(phi.kraus, sigma.matrix))
    return kraus_channel(_petz_recovery(phi, sigma.spectrum, spec_out, tol), tol)


def _petz_recovery(
    phi: KrausChannel, spec_sigma: Spectrum, spec_out: Spectrum, tol: ToleranceConfig
) -> np.ndarray:
    """:func:`petz_recovery`'s Kraus stack, neither validated nor copied, from the spectra of sigma
    and phi(sigma), phi unchecked (sum R^dag R is the projector onto the support of phi(sigma))."""
    left, right = _psd_root(spec_sigma, False, tol), _psd_root(spec_out, True, tol)
    return left @ phi.kraus.conj().swapaxes(1, 2) @ right
