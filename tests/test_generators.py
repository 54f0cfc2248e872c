"""Tests for the seedable instance generators: validity and determinism."""

import inspect

import numpy as np
import pytest

from qentropy import (
    InvalidRankError,
    ValidationError,
    classify,
    generators,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_probability_vector,
    random_stochastic_channel,
    random_unitary,
    state_spectrum,
    synthesize_pair,
)


class TestRandomDensity:
    def test_one_dimensional(self):
        rho = random_density(1, 1, seed=0)
        np.testing.assert_allclose(rho.matrix, [[1.0]])

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_rank(self, rank, tol):
        rho = random_density(4, rank, seed=1)
        vals = state_spectrum(rho).eigenvalues
        assert int(np.sum(vals > tol.psd)) == rank

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            random_density(3, 4, seed=0)
        with pytest.raises(InvalidRankError):
            random_density(3, 0, seed=0)

    def test_non_positive_dimension_blames_the_dimension(self):
        with pytest.raises(ValidationError, match=r"^dimension must be positive, got 0$"):
            random_density(0, 0, seed=0)

    def test_determinism(self):
        a = random_density(4, 2, seed=7)
        b = random_density(4, 2, seed=7)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestRandomUnitary:
    def test_one_dimensional_is_phase(self):
        u = random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_unitarity(self, n):
        u = random_unitary(n, seed=2)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n * 1e3

    def test_determinism(self):
        np.testing.assert_array_equal(random_unitary(5, seed=3), random_unitary(5, seed=3))


class TestRandomBistochasticChannel:
    def test_single_unitary_is_unitary_channel(self):
        phi = random_bistochastic_channel(3, 1, seed=4)
        assert len(phi.kraus) == 1
        assert classify(phi).bistochastic

    @pytest.mark.parametrize("seed", range(10))
    def test_always_bistochastic(self, seed):
        assert classify(random_bistochastic_channel(4, 3, seed)).bistochastic

    def test_identity_in_fixed_points(self, tol):
        from qentropy import apply_channel

        phi = random_bistochastic_channel(3, 2, seed=5)
        assert np.linalg.norm(apply_channel(phi, np.eye(3)) - np.eye(3)) <= tol.eq * 3

    def test_determinism(self):
        a = random_bistochastic_channel(3, 3, seed=6)
        b = random_bistochastic_channel(3, 3, seed=6)
        for ma, mb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ma, mb)


class TestRandomStochasticChannel:
    def test_env_dim_one_is_unitary(self):
        phi = random_stochastic_channel(3, 1, seed=7)
        assert len(phi.kraus) == 1
        u = phi.kraus[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10 * 3 * 1e3

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_preserving(self, seed, tol):
        phi = random_stochastic_channel(4, 3, seed)
        gram = sum(m.conj().T @ m for m in phi.kraus)
        assert np.linalg.norm(gram - np.eye(4)) <= tol.eq * 4
        assert classify(phi).stochastic

    def test_determinism(self):
        a = random_stochastic_channel(3, 2, seed=8)
        b = random_stochastic_channel(3, 2, seed=8)
        for ma, mb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ma, mb)


class TestRandomBistochasticMatrix:
    def test_single_permutation(self):
        m = random_bistochastic_matrix(4, 1, seed=9)
        assert (m.column_residual, m.row_residual) == (0.0, 0.0)
        assert set(np.unique(np.round(m.matrix, 12))) == {0.0, 1.0}

    @pytest.mark.parametrize("seed", range(10))
    def test_row_and_column_sums(self, seed, tol):
        m = random_bistochastic_matrix(5, 3, seed)
        np.testing.assert_allclose(m.matrix.sum(axis=0), np.ones(5), atol=tol.eq)
        np.testing.assert_allclose(m.matrix.sum(axis=1), np.ones(5), atol=tol.eq)
        assert max(m.column_residual, m.row_residual) <= tol.eq

    def test_determinism(self):
        a = random_bistochastic_matrix(4, 2, seed=10)
        b = random_bistochastic_matrix(4, 2, seed=10)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestRandomProbabilityVector:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid(self, seed):
        p = random_probability_vector(6, seed)
        assert np.all(p.entries >= 0.0)
        assert abs(p.entries.sum() - 1.0) <= 1e-12

    def test_determinism(self):
        np.testing.assert_array_equal(
            random_probability_vector(5, seed=11).entries,
            random_probability_vector(5, seed=11).entries,
        )


# each generator as seed -> the arrays of its object
GENERATORS = {
    "density": lambda seed: [random_density(3, 2, seed).matrix],
    "unitary": lambda seed: [random_unitary(3, seed)],
    "bistochastic-channel": lambda seed: random_bistochastic_channel(3, 2, seed).kraus,
    "stochastic-channel": lambda seed: random_stochastic_channel(3, 2, seed).kraus,
    "bistochastic-matrix": lambda seed: [random_bistochastic_matrix(4, 3, seed).matrix],
    "probability": lambda seed: [random_probability_vector(4, seed).entries],
}


class TestSeedStream:
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 5, 2**64 + 5])
    @pytest.mark.parametrize("kind", GENERATORS)
    def test_non_negative_seed_object_is_the_default_rng_one(self, kind, seed, monkeypatch):
        got = GENERATORS[kind](seed)
        monkeypatch.setattr(generators, "_seeded_rng", np.random.default_rng)
        pinned = GENERATORS[kind](seed)
        assert len(got) == len(pinned)
        for a, b in zip(got, pinned):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", GENERATORS)
    def test_float_seed_is_refused(self, kind):
        with pytest.raises(TypeError):
            GENERATORS[kind](2.0)


@pytest.mark.parametrize(
    "maker",
    [random_density, random_bistochastic_channel, random_stochastic_channel,
     random_bistochastic_matrix, random_probability_vector, synthesize_pair],
)
def test_a_generator_takes_no_tolerance(maker):
    """Its output is validated at the defaults, which it passes by construction."""
    assert "tol" not in inspect.signature(maker).parameters


class TestLemmaTwoFeed:
    """Bistochastic generator outputs never decrease entropy (sampled)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_entropy_non_decrease(self, seed, tol):
        from qentropy import apply_channel, random_density, validate_state, von_neumann_entropy

        n = 2 + seed % 5
        phi = random_bistochastic_channel(n, 2 + seed % 3, seed)
        rho = random_density(n, 1 + seed % n, seed + 700)
        out = validate_state(apply_channel(phi, rho.matrix))
        assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - tol.eq
