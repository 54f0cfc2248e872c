"""Quantum states and their entropic functionals.

A state is a Hermitian, positive semi-definite, trace-one complex matrix.  All
spectral computations in the package go through one primitive, a Hermitian
eigendecomposition (:func:`spectral_decomposition`); matrix functions such as
the square root, the inverse square root on the support and the logarithm are
defined through it with a single eigenvalue-clipping rule.  A validated state
keeps the decomposition its positivity check computed, so each state is
diagonalized once.  All logarithms are base 2 and every entropy goes through
one kernel, so every entropy returned anywhere in this package is in bits.
:class:`EquivalenceReport`, the entropy-vs-fixed-point report and verdict rule
of every setting, lives here because ``classical`` builds it too and cannot
import ``entropy_analysis``, which imports it through ``generators``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    TraceNotOneError,
    ValidationError,
)
from .tolerances import _HERM_TOL, _TRACE_TOL, DEFAULT_TOL, ToleranceConfig

__all__ = [
    "Spectrum",
    "DensityMatrix",
    "EquivalenceReport",
    "spectral_decomposition",
    "validate_state",
    "state_spectrum",
    "von_neumann_entropy",
    "relative_entropy",
]


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex ndarray, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValidationError(f"expected a matrix, got an array of ndim {arr.ndim}")
    if not np.isfinite(arr).all():  # one pass: a complex entry is finite when both parts are
        raise ValidationError("matrix contains non-finite entries")
    return arr


def frozen_array(arr, dtype=complex, copy: bool = True) -> np.ndarray:
    """Copy an array and mark it read-only (values are immutable by contract); with copy=False,
    a fresh array that nothing else holds is frozen in place, cast to dtype only if need be."""
    out = np.array(arr, dtype=dtype) if copy else np.asarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Column k of ``eigenvectors`` pairs with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state; construct via :func:`validate_state`.  ``spectrum`` is the
    eigendecomposition (eigenvalues unclipped) that spectral functionals read, never recompute."""

    dim: int
    matrix: np.ndarray
    spectrum: Spectrum


def spectral_decomposition(m: np.ndarray) -> Spectrum:
    """Eigendecompose the Hermitian part of m, eigenvalues (unclipped) sorted descending."""
    return _descending_eigh(hermitian_part(m))


def _descending_eigh(h: np.ndarray) -> Spectrum:
    """The :class:`Spectrum` of a Hermitian matrix, eigenvalues (unclipped) sorted descending."""
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    # indexing by order made fresh arrays, in the layout a copy keeps: freeze them as they are
    vals = frozen_array(vals[order], dtype=float, copy=False)
    return Spectrum(vals, frozen_array(vecs[:, order], copy=False))


def _require_hermitian(arr: np.ndarray, what: str) -> np.ndarray:
    """Raise unless the square ``arr`` is non-empty ("``what`` must be non-empty") and Hermitian
    to _HERM_TOL; return arr^dag, formed once for the check."""
    if arr.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    adj = arr.conj().T
    herm_dev = float(np.abs(arr - adj).max())
    if herm_dev > _HERM_TOL:
        raise NotHermitianError(f"hermiticity deviation {herm_dev:.3e} exceeds {_HERM_TOL:.1e}")
    return adj


def validate_state(m, tol: ToleranceConfig = DEFAULT_TOL) -> DensityMatrix:
    """Validate a matrix as a quantum state.

    Eigenvalues in [-tol.psd, 0) are treated as numerical zeros (clipped by
    the spectral accessors); anything below -tol.psd is rejected as genuinely
    non-positive rather than noisy.  The eigendecomposition behind that check
    is kept as the state's ``spectrum``.  An empty matrix is refused before
    the trace check, whose empty trace 0 would blame the trace.
    """
    arr = as_complex_matrix(m)
    rows, cols = arr.shape
    if rows != cols:
        raise NotSquareError(f"state matrix must be square, got {rows}x{cols}")
    adj = _require_hermitian(arr, "state matrix")
    trace_dev = abs(complex(arr.trace()) - 1.0)
    if trace_dev > _TRACE_TOL:
        raise TraceNotOneError(f"|trace - 1| = {trace_dev:.3e} exceeds {_TRACE_TOL:.1e}")
    spectrum = _descending_eigh((arr + adj) / 2.0)  # the Hermitian part, as hermitian_part forms it
    smallest = float(spectrum.eigenvalues[-1])
    if smallest < -tol.psd:
        raise NotPositiveError(f"smallest eigenvalue {smallest:.3e} below -{tol.psd:.1e}")
    return DensityMatrix(dim=rows, matrix=frozen_array(arr), spectrum=spectrum)


def _require_same_dim(**dims: int) -> None:
    """Raise DimensionMismatchError unless all dims are equal, naming each one in call order:
    ``_require_same_dim(channel=3, state=2)`` says "dims differ: channel 3, state 2"."""
    if len(set(dims.values())) > 1:
        named = ", ".join(f"{what} {dim}" for what, dim in dims.items())
        raise DimensionMismatchError(f"dims differ: {named}")


def state_spectrum(rho: DensityMatrix) -> Spectrum:
    """Clipped spectrum of a state: eigenvalues in [0, 1], descending."""
    vals = np.clip(rho.spectrum.eigenvalues, 0.0, 1.0)
    return Spectrum(frozen_array(vals, dtype=float), rho.spectrum.eigenvectors)


def _entropy_bits(p: np.ndarray) -> float:
    """-sum p log2 p in bits over p clipped to [0, 1], so 0*log2(0) := 0; never -0.0.  The one
    entropy kernel (von Neumann, relative, map, Shannon); the clip drops rounding noise."""
    pos = np.minimum(p[p > 0.0], 1.0)  # the clip, on the entries it keeps
    return float(-(pos * np.log2(pos)).sum() + 0.0)


# JSON keys of EquivalenceReport.as_dict per kind, in field order, then "agreement"
_REPORT_KEYS = {
    "preservation": (
        "entropy_in_bits", "entropy_out_bits", "entropy_gap_bits",
        "fixed_point_residual", "entropy_preserved", "fixed_point",
    ),
    "map_entropy": (
        "map_entropy_in_bits", "map_entropy_composed_bits", "entropy_gap_bits",
        "composition_residual", "entropy_preserved", "composition_fixed",
    ),
    "petz": (
        "relative_entropy_in_bits", "relative_entropy_out_bits", "equality_gap_bits",
        "recovery_residual", "equality", "recovery",
    ),
}


@dataclass(frozen=True)
class EquivalenceReport:
    """An entropy verdict vs a fixed-point verdict for one instance of the equivalence.

    ``kind`` picks the setting and with it the JSON keys of :meth:`as_dict`:
    ``"preservation"`` (state entropy under a channel, and the classical
    corollary), ``"map_entropy"`` (map entropy of a composition, fixed point
    of the superoperator) or ``"petz"`` (relative entropy, recovery by the
    sigma-weighted map).  The entropies are in bits.
    """

    kind: str
    entropy_in: float
    entropy_out: float
    entropy_gap: float
    fixed_point_residual: float
    entropy_preserved: bool
    fixed_point: bool

    @classmethod
    def judge(
        cls, kind: str, entropy_in: float, entropy_out: float, residual: float,
        entropy_bound: float, residual_bound: float,
    ) -> EquivalenceReport:
        """The verdict rule of every setting: |entropy_out - entropy_in| <= entropy_bound is the
        entropy verdict, residual <= residual_bound the fixed-point verdict."""
        gap = abs(entropy_out - entropy_in)
        preserved, fixed = gap <= entropy_bound, residual <= residual_bound
        return cls(kind, entropy_in, entropy_out, gap, residual, preserved, fixed)

    @property
    def agreement(self) -> bool:
        return self.entropy_preserved == self.fixed_point

    def as_dict(self) -> dict:
        values = [getattr(self, f.name) for f in fields(self)[1:]] + [self.agreement]
        return dict(zip((*_REPORT_KEYS[self.kind], "agreement"), values))


def entropy_of_matrix(m: np.ndarray) -> float:
    """Entropy in bits of a PSD unit-trace matrix, without state validation.

    Used internally on matrices that are states by construction (channel
    outputs, normalized Choi matrices); negative eigenvalue noise is clipped.
    """
    return _entropy_bits(np.linalg.eigvalsh(hermitian_part(m)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) over the clipped spectrum, with 0*log2(0) := 0."""
    return _entropy_bits(rho.spectrum.eigenvalues)


def _projector(spec: Spectrum, tol: ToleranceConfig) -> np.ndarray:
    """Projector onto the eigenvectors whose eigenvalue, clipped to [0, 1], exceeds tol.psd."""
    v = spec.eigenvectors[:, np.clip(spec.eigenvalues, 0.0, 1.0) > tol.psd]
    return v @ v.conj().T


def _support_leak(spec_rho: Spectrum, spec_sigma: Spectrum, tol: ToleranceConfig) -> float:
    """||(I - P_sigma) P_rho||_F; supp(rho) lies in supp(sigma) when it is <= tol.psd."""
    p_rho = _projector(spec_rho, tol)
    return float(np.linalg.norm((np.eye(len(p_rho)) - _projector(spec_sigma, tol)) @ p_rho))


def relative_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """tr(rho (log2 rho - log2 sigma)) in bits, or +inf outside sigma's support.

    sigma's support is spanned by its eigenvectors whose clipped eigenvalue exceeds tol.psd.
    When all do, it is the whole space and no projector is formed; else the result is finite
    only when ||(I - P_sigma) P_rho||_F <= tol.psd, so borderline supports (eigenvalues within
    tol.psd of zero) are reported as +inf conservatively.  That leak is rounding noise of
    ~1e-16 to 1e-15 for rho inside the support: at a tol.psd below it (~0), rounding decides a
    rank-deficient sigma, +inf or a finite value set by the log of a noise eigenvalue.
    """
    _require_same_dim(rho=rho.dim, sigma=sigma.dim)
    vals, vecs = np.clip(sigma.spectrum.eigenvalues, 0.0, 1.0), sigma.spectrum.eigenvectors
    keep = vals > tol.psd
    if not keep.all():
        if _support_leak(rho.spectrum, sigma.spectrum, tol) > tol.psd:
            return math.inf
        vals, vecs = vals[keep], vecs[:, keep]
    # <v_k| rho |v_k> for the support eigenvectors of sigma
    weights = (vecs.conj() * (rho.matrix @ vecs)).sum(axis=0).real
    # tr(rho log2 rho) = -S(rho); subtracting from +0.0 keeps a zero term positive
    return (0.0 - von_neumann_entropy(rho)) - float((weights * np.log2(vals)).sum())


def _psd_root(spec: Spectrum, inverse: bool, tol: ToleranceConfig) -> np.ndarray:
    """Square root, or generalized inverse square root on the support, from a spectrum."""
    vals = spec.eigenvalues
    if vals[-1] < -tol.psd:
        raise NotPositiveError(f"matrix is not PSD: smallest eigenvalue {vals[-1]:.3e}")
    if inverse:
        roots = 1.0 / np.sqrt(np.where(vals > tol.psd, vals, np.inf))
    else:
        roots = np.sqrt(np.clip(vals, 0.0, None))
    return (spec.eigenvectors * roots) @ spec.eigenvectors.conj().T
