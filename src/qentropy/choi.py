"""The Choi isomorphism in both directions and the map entropy of a channel.

The Choi matrix of a map Theta on an N-dimensional system is
``J(Theta) = (Theta (x) id)(|Omega><Omega|)`` with the unnormalized maximally
entangled vector ``|Omega> = sum_i |ii>``; equivalently the block sum
``sum_ij Theta(|i><j|) (x) |i><j|``.  Tensor factors are ordered
(output, reference), so tracing out the first factor of J gives the identity
exactly when the channel is trace preserving, and tracing out the second
factor gives the identity exactly when it is unital.  Normalization by 1/N
happens only inside :func:`map_entropy`, keeping ``tr J = N`` for stochastic
channels.  With the k Kraus operators flattened row-major into the rows of K,
``J = K^T conj(K)``, so the map entropy comes from the singular values of K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _kraus_stack, _require
from .errors import NotPositiveError, NotSquareError, ValidationError
from .states import (
    _entropy_bits,
    _require_hermitian,
    as_complex_matrix,
    frozen_array,
    spectral_decomposition,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "ChoiMatrix",
    "choi_matrix",
    "choi_from_matrix",
    "channel_from_choi",
    "map_entropy",
]


@dataclass(frozen=True)
class ChoiMatrix:
    """N^2 x N^2 Choi operator of a map on an N-dimensional system."""

    dim: int
    matrix: np.ndarray


def choi_matrix(phi: KrausChannel) -> ChoiMatrix:
    """Block sum ``sum_ij phi(|i><j|) (x) |i><j|``, computed as ``K^T conj(K)``."""
    k = _kraus_stack(phi)
    return ChoiMatrix(dim=phi.dim, matrix=frozen_array(k.T @ k.conj()))


def choi_from_matrix(m) -> ChoiMatrix:
    """Wrap and validate an N^2 x N^2 matrix as a Choi operator."""
    arr = as_complex_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"Choi matrix must be square, got {arr.shape}")
    n = math.isqrt(arr.shape[0])
    if n * n != arr.shape[0]:
        raise ValidationError(f"Choi matrix size {arr.shape[0]} is not a perfect square")
    _require_hermitian(arr, "Choi matrix")
    return ChoiMatrix(dim=n, matrix=frozen_array(arr))


def channel_from_choi(j: ChoiMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    """Extract a Kraus family from a PSD Choi matrix.

    Eigenvectors with eigenvalue > tol.psd become Kraus operators (scaled by
    the square-rooted eigenvalue and reshaped row-major, the layout that makes
    ``choi_matrix(channel_from_choi(J)) == J``); an eigenvalue below -tol.psd
    witnesses a non-completely-positive map.
    """
    n = j.dim
    spec = spectral_decomposition(j.matrix)
    if spec.eigenvalues[-1] < -tol.psd:
        raise NotPositiveError(
            f"Choi matrix has eigenvalue {spec.eigenvalues[-1]:.6g}; map is not CP"
        )
    keep = spec.eigenvalues > tol.psd
    if not keep.any():
        raise ValidationError("Choi matrix is numerically zero; no Kraus operators")
    ops = np.sqrt(spec.eigenvalues[keep]) * spec.eigenvectors[:, keep]  # column j: sqrt(val_j) v_j
    return KrausChannel(dim=n, kraus=frozen_array(ops.T.reshape(-1, n, n)))


def _map_entropy_bits(stack: np.ndarray, n: int) -> float:
    """S(s^2/N) in bits for the singular values s of a row-major Kraus stack K (J = K^T conj(K));
    the caller has checked that the stack's channel is trace preserving."""
    s = np.linalg.svd(stack, compute_uv=False)
    return _entropy_bits(s * s / n)


def map_entropy(phi: KrausChannel, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Entropy in bits of J(phi)/N, from the Kraus-stack singular values; in [0, 2 log2 N]."""
    _require(phi, "stochastic", "map entropy needs a trace-preserving channel", tol)
    return _map_entropy_bits(_kraus_stack(phi), phi.dim)
