"""Shared fixtures, channel builders, dense reference helpers, the call spy and the rounding
allowance of the test suite."""

import dataclasses
import math
import os
import sys

if "numpy" not in sys.modules:
    # the golden files compare bit for bit only under the single-threaded BLAS they were recorded
    # with; once numpy is loaded its BLAS has read the variable, and setting it would misreport it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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

# the profile behind the ``deep`` marker (registered, with what it does, in pyproject.toml); a
# falsifying example prints the @reproduce_failure line that replays it, and is not saved for a
# default run to replay
settings.register_profile("deep", max_examples=2000, deadline=None, print_blob=True, database=None)
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


@dataclasses.dataclass
class Call:
    args: tuple
    result: object = None


def spy(monkeypatch, owner, name, replacement=None, times=math.inf):
    """Replace ``owner.<name>`` for the test by a recorder of its calls, and return their list.

    Each call is appended as a :class:`Call` of its positional arguments when it starts, and its
    result is filled in when it returns.  It goes through to the original, except the first
    ``times`` calls when a ``replacement`` is given: those return
    ``replacement(original, *args, **kwargs)``.
    """
    original, calls = getattr(owner, name), []

    def recorded(*args, **kwargs):
        call = Call(args)
        calls.append(call)
        if replacement is not None and len(calls) <= times:
            call.result = replacement(original, *args, **kwargs)
        else:
            call.result = original(*args, **kwargs)
        return call.result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def rounding(phi):
    """The allowance for rounding when a residual formed from ``phi`` is compared with a bound.

    The error model: each side is formed in a few stages (a channel application, its adjoint, a
    product with the canonical family, a Gram), and each stage sums at most max(N, k) products of
    entries of size <= 1, over the N of an inner product or the k Kraus terms of phi.  Such a sum
    is off by at most gamma_m = m u / (1 - m u), u = eps_mach / 2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3): four stages leave a side within
    ~2 max(N, k) eps_mach of its exact value, and the two sides of a comparison within
    4 max(N, k) eps_mach of each other.
    """
    return 4 * max(phi.dim, len(phi.kraus)) * np.finfo(float).eps


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
