"""Shared fixtures, channel builders and dense reference helpers for the test suite."""

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from qentropy import (
    DEFAULT_TOL,
    kraus_channel,
    parse_block_spec,
    random_bistochastic_channel,
    random_unitary,
    synthesize_pair,
    validate_state,
)

# the profile behind the ``deep`` marker (registered, with what it does, in pyproject.toml)
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
DEEP_ONLY = pytest.mark.skipif(
    os.environ.get("HYPOTHESIS_PROFILE") != "deep", reason="runs under HYPOTHESIS_PROFILE=deep"
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def tol():
    return DEFAULT_TOL


def identity_channel(n=2):
    return kraus_channel([np.eye(n)])


def unitary_channel(u):
    return kraus_channel([np.asarray(u, dtype=complex)])


def bit_flip_channel():
    return kraus_channel([SIGMA_X])


def dephasing_channel(n=2):
    """Kraus family {|i><i|}: kills off-diagonal entries."""
    ops = []
    for i in range(n):
        op = np.zeros((n, n), dtype=complex)
        op[i, i] = 1.0
        ops.append(op)
    return kraus_channel(ops)


def weyl_operators(n):
    """The n^2 unitary shift/phase operators X^a Z^b."""
    shift = np.zeros((n, n), dtype=complex)
    for i in range(n):
        shift[(i + 1) % n, i] = 1.0
    phase = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    ops = []
    for a in range(n):
        for b in range(n):
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b))
    return ops


def depolarizing_channel(n=2):
    """Fully depolarizing channel X -> tr(X) I / n, via the Weyl twirl."""
    return kraus_channel([w / n for w in weyl_operators(n)])


def amplitude_damping_channel(gamma=0.5):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return kraus_channel([k0, k1])


def eps_mixture(spec, eps, seed):
    """(1 - eps) phi + eps noise for the channel synthesized from ``spec``.

    The joint Kraus family is remixed by a random unitary, so every operator
    carries an O(sqrt(eps)) share of the noise operators.
    """
    phi = synthesize_pair(parse_block_spec(spec), seed=seed)[0]
    noise = random_bistochastic_channel(phi.dim, 3, seed=seed + 1)
    ops = [math.sqrt(1 - eps) * m for m in phi.kraus] + [math.sqrt(eps) * m for m in noise.kraus]
    remix = np.asarray(random_unitary(len(ops), seed + 2))
    return kraus_channel(list(np.tensordot(remix, np.stack(ops), axes=1)))


def pure_state(n, index=0):
    m = np.zeros((n, n), dtype=complex)
    m[index, index] = 1.0
    return validate_state(m)


def maximally_mixed(n):
    return validate_state(np.eye(n) / n)


def vec(m):
    """Column-stacking vectorization."""
    return np.asarray(m).T.reshape(-1)


def unvec(v):
    """Inverse of :func:`vec` for square matrices."""
    n = math.isqrt(np.size(v))
    return np.asarray(v).reshape(n, n).T


def superoperator_matrix(phi):
    """The matrix sum_j kron(conj(M_j), M_j) under :func:`vec` of a channel (N^2 x N^2) or of a
    sequence of operators M_j.

    The library never forms it; it is the dense reference for the fixed-point solver.
    """
    return sum(np.kron(m.conj(), m) for m in getattr(phi, "kraus", phi))


def partial_trace_right(m, dl, dr):
    """tr_R of a (dL dR, dL dR) matrix on H^L (x) H^R, as a (dL, dL) matrix; the library takes it
    for whole frames at once, this is the reference for one block."""
    return np.einsum("arbr->ab", np.asarray(m).reshape(dl, dr, dl, dr))


def phase_invariant_unitary_distance(u, v):
    """min over phases theta of ||u - e^(i theta) v||_F.

    The minimizing phase is conj(t) / |t| for t = tr(u^dag v) (any phase when
    t = 0); the norm is taken directly, so close inputs do not cancel.
    """
    overlap = complex(np.vdot(u, v))
    phase = overlap.conjugate() / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(u - phase * v))
