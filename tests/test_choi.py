"""Tests for the Choi isomorphism and the map entropy."""

import tracemalloc

import numpy as np
import pytest

from qentropy import (
    NotPositiveError,
    NotStochasticError,
    apply_channel,
    channel_distance,
    channel_from_choi,
    choi_from_matrix,
    choi_matrix,
    compose,
    kraus_channel,
    map_entropy,
    random_stochastic_channel,
    random_unitary,
)
from qentropy.states import entropy_of_matrix

from conftest import (
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)


def omega_projector(n):
    """|Omega><Omega| for the unnormalized |Omega> = sum_i |ii>."""
    omega = np.eye(n, dtype=complex).reshape(-1)
    return np.outer(omega, omega.conj())


def block_sum_choi(phi):
    """The defining block sum ``sum_ij phi(|i><j|) (x) |i><j|``, one unit matrix at a time."""
    n = phi.dim
    j = np.zeros((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for row in range(n):
        for col in range(n):
            unit[row, col] = 1.0
            j += np.kron(apply_channel(phi, unit), unit)
            unit[row, col] = 0.0
    return j


# stochastic channels with k = 1, 2, 3 Kraus operators on N = 2..6, and
# depolarizing o stochastic with k = 2 N^2 > N^2
oracle_channels = pytest.mark.parametrize(
    "phi",
    [random_stochastic_channel(n, k, 10 * n + k) for n in range(2, 7) for k in (1, 2, 3)]
    + [compose(depolarizing_channel(n), random_stochastic_channel(n, 2, n)) for n in (2, 3)],
    ids=lambda phi: f"N{phi.dim}k{len(phi.kraus)}",
)


class TestChoiMatrix:
    def test_identity_channel_gives_omega_projector(self):
        j = choi_matrix(identity_channel(2))
        np.testing.assert_allclose(j.matrix, omega_projector(2))

    def test_depolarizing_gives_half_identity(self):
        # each block phi(|i><j|) = delta_ij I/2, so J = I/2 (x) I
        j = choi_matrix(depolarizing_channel(2))
        np.testing.assert_allclose(j.matrix, np.eye(4) / 2, atol=1e-12)

    def test_trace_equals_kraus_gram_trace(self, tol):
        phi = random_stochastic_channel(3, 2, seed=0)
        j = choi_matrix(phi)
        gram_trace = sum(np.trace(m.conj().T @ m) for m in phi.kraus)
        assert abs(np.trace(j.matrix) - gram_trace) <= tol.eq
        assert abs(np.trace(j.matrix) - 3.0) <= tol.eq

    @pytest.mark.parametrize("seed", range(5))
    def test_output_partial_trace_identity_iff_stochastic(self, seed, tol):
        phi = random_stochastic_channel(3, 2, seed)
        j = choi_matrix(phi)
        output_traced = np.einsum("aiaj->ij", j.matrix.reshape(3, 3, 3, 3))
        assert np.linalg.norm(output_traced - np.eye(3)) <= tol.eq * 3

    def test_reference_partial_trace_identity_iff_unital(self, tol):
        phi = unitary_channel(random_unitary(3, 1))
        j = choi_matrix(phi)
        reference_traced = np.einsum("aibi->ab", j.matrix.reshape(3, 3, 3, 3))
        assert np.linalg.norm(reference_traced - np.eye(3)) <= tol.eq * 3
        # non-unital witness: amplitude damping leaves the reference trace off I
        from conftest import amplitude_damping_channel

        j2 = choi_matrix(amplitude_damping_channel(0.5))
        reference_traced = np.einsum("aibi->ab", j2.matrix.reshape(2, 2, 2, 2))
        assert np.linalg.norm(reference_traced - np.eye(2)) > 0.1


class TestKrausStackKernels:
    @oracle_channels
    def test_choi_matrix_matches_block_sum(self, phi):
        assert np.max(np.abs(choi_matrix(phi).matrix - block_sum_choi(phi))) <= 1e-15

    @oracle_channels
    def test_map_entropy_matches_block_sum_spectrum(self, phi):
        expected = entropy_of_matrix(block_sum_choi(phi) / phi.dim)
        assert abs(map_entropy(phi) - expected) <= 1e-12

    def test_map_entropy_builds_no_choi_matrix(self):
        # at N = 24 the Choi matrix alone is 576^2 complex entries, 5.3 MB
        phi = random_stochastic_channel(24, 6, seed=0)
        tracemalloc.start()
        try:
            map_entropy(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestChannelFromChoi:
    def test_omega_projector_gives_identity_channel(self, tol):
        j = choi_from_matrix(omega_projector(2))
        assert channel_distance(channel_from_choi(j), identity_channel(2)) <= tol.eq * 4

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_preserves_superoperator(self, seed):
        n = 2 + seed % 4
        phi = random_stochastic_channel(n, 2, seed)
        back = channel_from_choi(choi_matrix(phi))
        assert channel_distance(phi, back) <= 1e-10 * n * n * 1e3

    def test_choi_of_extracted_channel_matches(self):
        phi = random_stochastic_channel(3, 3, seed=4)
        j = choi_matrix(phi)
        again = choi_matrix(channel_from_choi(j))
        assert np.linalg.norm(again.matrix - j.matrix) <= 1e-10 * 9 * 1e3

    def test_negative_eigenvalue_rejected(self):
        j = choi_from_matrix(np.diag([1.0, 1.0, 1.0, -0.1]))
        with pytest.raises(NotPositiveError):
            channel_from_choi(j)


class TestMapEntropy:
    def test_identity_channel(self):
        assert map_entropy(identity_channel(2)) == pytest.approx(0.0, abs=1e-10)

    def test_unitary_channel(self):
        phi = unitary_channel(random_unitary(3, 5))
        assert map_entropy(phi) == pytest.approx(0.0, abs=1e-8)

    def test_fully_depolarizing_qubit(self):
        # J/N = I_4/4, entropy log2(4) = 2
        assert map_entropy(depolarizing_channel(2)) == pytest.approx(2.0, abs=1e-8)

    def test_dephasing_qubit(self):
        # J/N = (|00><00| + |11><11|)/2, one bit
        assert map_entropy(dephasing_channel(2)) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_stochastic(self):
        with pytest.raises(NotStochasticError):
            map_entropy(kraus_channel([0.5 * np.eye(2)]))

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_composition_invariance(self, seed, tol):
        # special case of composition preservation: unitary outer channel
        psi = random_stochastic_channel(3, 2, seed)
        u = unitary_channel(random_unitary(3, seed + 100))
        assert abs(map_entropy(compose(u, psi)) - map_entropy(psi)) <= tol.eq

    @pytest.mark.parametrize("seed", range(5))
    def test_range(self, seed):
        n = 2 + seed % 3
        phi = random_stochastic_channel(n, 2, seed)
        s = map_entropy(phi)
        assert -1e-10 <= s <= 2 * np.log2(n) + 1e-10
