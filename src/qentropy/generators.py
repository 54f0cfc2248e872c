"""Seedable random instance generation for states, unitaries, channels and
bistochastic matrices.

All randomness comes from ``numpy.random.Generator`` seeded with PCG64, a
named, platform-stable algorithm: the same (operation, parameters, seed)
triple always produces the same object on any platform.  Bit-compatibility
across different implementations of this toolkit is not promised; tests
regenerate instances instead of comparing stored streams.

Bistochastic channels are generated as mixed-unitary channels, which does not
exhaust all unital channels for N >= 3; tests need valid bi-stochastic
instances, not a uniform measure over them.  Bistochastic matrices are exact
Birkhoff mixtures of permutation matrices rather than Sinkhorn
approximations.

The generators take no tolerance: each output is validated at the defaults,
which it passes by construction.  A caller's tolerance judges what is done
with the output, not the output itself.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, kraus_channel
from .classical import ProbabilityVector, StochasticMatrix, probability_vector, stochastic_matrix
from .errors import InvalidRankError, ValidationError
from .states import DensityMatrix, frozen_array, validate_state

__all__ = [
    "random_density",
    "random_unitary",
    "random_bistochastic_channel",
    "random_stochastic_channel",
    "random_bistochastic_matrix",
    "random_probability_vector",
]


def _seeded_rng(seed: int, *words: int) -> np.random.Generator:
    """Generator for an integer seed and extra entropy words; s and -s differ, a float is refused.

    A non-negative seed keeps the stream of ``default_rng([seed, *words])``,
    which for no words is that of ``default_rng(seed)``.  A negative seed adds
    a spawn key, which numpy mixes in apart from the entropy words, so it
    cannot collide with any non-negative seed below 2**128.
    """
    sequence = np.random.SeedSequence([abs(seed), *words], spawn_key=(1,) if seed < 0 else ())
    return np.random.Generator(np.random.PCG64(sequence))  # default_rng's stream, no dispatch


def _require_positive(**counts: int) -> None:
    """Raise ValidationError naming the first count below 1, in call order: "num_perms must be
    positive, got 0"; the dimension goes first, as ``dimension``."""
    for name, value in counts.items():
        if value < 1:
            raise ValidationError(f"{name} must be positive, got {value}")


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a complex Ginibre matrix; fixing the phases of R's diagonal makes
    # the factorization unique and the distribution Haar.
    q, r = np.linalg.qr(_complex_normal(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _gaussian_state(n: int, rank: int, seed) -> np.ndarray:
    """The matrix G G^dag / tr(G G^dag), G an n x rank complex Gaussian: a state by construction."""
    g = _complex_normal(_seeded_rng(seed), (n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density(n: int, rank: int, seed) -> DensityMatrix:
    """Random state G G^dag / tr(G G^dag) with G an n x rank complex Gaussian."""
    _require_positive(dimension=n)
    if not 1 <= rank <= n:
        raise InvalidRankError(f"rank must lie in [1, {n}], got {rank}")
    return validate_state(_gaussian_state(n, rank, seed))


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR of a Ginibre matrix."""
    _require_positive(dimension=n)
    return frozen_array(_haar_unitary(_seeded_rng(seed), n))


def random_bistochastic_channel(n: int, num_unitaries: int, seed) -> KrausChannel:
    """Mixed-unitary channel: Kraus family {sqrt(w_i) U_i} with random
    simplex weights and Haar unitaries."""
    _require_positive(dimension=n, num_unitaries=num_unitaries)
    rng = _seeded_rng(seed)
    weights = rng.dirichlet(np.ones(num_unitaries))
    ops = [np.sqrt(w) * _haar_unitary(rng, n) for w in weights]
    return kraus_channel(ops)


def random_stochastic_channel(n: int, env_dim: int, seed) -> KrausChannel:
    """Stochastic channel from a random isometry into system (x) environment.

    V is the first n columns of a Haar unitary on the n*env_dim dimensional
    joint space; the Kraus operators are M_e = (I (x) <e|) V, so
    sum M_e^dag M_e = V^dag V = I exactly.
    """
    _require_positive(dimension=n, env_dim=env_dim)
    big = _haar_unitary(_seeded_rng(seed), n * env_dim)
    v = big[:, :n]
    # joint index (i, e) -> i * env_dim + e
    ops = [v[e::env_dim, :] for e in range(env_dim)]
    return kraus_channel(ops)


def random_bistochastic_matrix(n: int, num_perms: int, seed) -> StochasticMatrix:
    """Convex combination of random permutation matrices with simplex weights."""
    _require_positive(dimension=n, num_perms=num_perms)
    rng = _seeded_rng(seed)
    weights = rng.dirichlet(np.ones(num_perms))
    m = np.zeros((n, n))
    for w in weights:
        m[rng.permutation(n), np.arange(n)] += w
    return stochastic_matrix(m)


def random_probability_vector(n: int, seed) -> ProbabilityVector:
    """Uniform (flat Dirichlet) random probability vector."""
    _require_positive(dimension=n)
    return probability_vector(_seeded_rng(seed).dirichlet(np.ones(n)))
