"""Tests for Kraus channels: application, adjoint, composition, classification,
superoperator matrices and the sigma-weighted recovery map."""

import tracemalloc

import numpy as np
import pytest

from qentropy import (
    DimensionMismatchError,
    KrausChannel,
    NotStochasticError,
    ValidationError,
    adjoint,
    apply_channel,
    channel_distance,
    channel_from_bistochastic,
    channel_from_choi,
    choi_matrix,
    classify,
    compose,
    fixed_point_space,
    kraus_channel,
    parse_block_spec,
    petz_recovery,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_stochastic_channel,
    random_unitary,
    synthesize_pair,
)
from qentropy.serialization import channel_from_obj, channel_to_obj

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    pure_state,
    superoperator_matrix,
    unitary_channel,
    unvec,
    vec,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def hs_inner(a, b):
    return complex(np.trace(a.conj().T @ b))


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            kraus_channel([])

    def test_rejects_trace_increasing(self):
        with pytest.raises(ValidationError):
            kraus_channel([1.2 * np.eye(2)])

    def test_trace_increase_message_shows_the_excess(self, tol):
        # (1 + 2^-52)^2 rounds to 1 + 2^-51, which only tol.eq = 0 refuses
        with pytest.raises(ValidationError) as info:
            kraus_channel([np.nextafter(1.0, 2.0) * np.eye(2)], tol.replace(eq=0.0))
        assert type(info.value) is ValidationError
        assert str(info.value) == (
            "channel increases trace: max eigenvalue of sum M^dag M exceeds 1 by 4.441e-16"
        )

    def test_accepts_trace_nonincreasing(self):
        phi = kraus_channel([0.5 * np.eye(2)])
        cls = classify(phi)
        assert cls.trace_nonincreasing and not cls.stochastic

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            kraus_channel([np.eye(2), np.eye(3)])

    def test_rejects_a_0x0_operator(self):
        with pytest.raises(ValidationError, match="at least 1x1"):
            kraus_channel([np.zeros((0, 0))])


class TestApply:
    def test_identity(self):
        x = random_hermitian(2, 0)
        np.testing.assert_allclose(apply_channel(identity_channel(2), x), x)

    def test_bit_flip_on_ground_state(self):
        out = apply_channel(bit_flip_channel(), pure_state(2).matrix)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_depolarizing_matches_explicit_pauli_sum(self):
        # independent oracle: sum the four normalized Pauli conjugations
        x = pure_state(2).matrix
        paulis = [np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z]
        expected = sum(p @ x @ p.conj().T for p in paulis) / 4
        np.testing.assert_allclose(expected, np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(
            apply_channel(depolarizing_channel(2), x), expected, atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(identity_channel(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_preserved_by_stochastic(self, seed, tol):
        phi = random_stochastic_channel(3, 2, seed)
        x = random_hermitian(3, seed + 50)
        assert abs(np.trace(apply_channel(phi, x)) - np.trace(x)) <= tol.eq

    @pytest.mark.parametrize("seed", range(5))
    def test_unital_fixes_identity(self, seed, tol):
        phi = random_bistochastic_channel(3, 3, seed)
        out = apply_channel(phi, np.eye(3))
        assert np.linalg.norm(out - np.eye(3)) <= tol.eq * 3


def loop_reference(phi, x):
    """sum_j M_j X M_j^dag one operator at a time: the sum apply_channel must equal bit for bit."""
    out = np.zeros((phi.dim, phi.dim), dtype=complex)
    for m in phi.kraus:
        out += m @ x @ m.conj().T
    return out


def slice_size(n):
    return max(1, 8192 // n**2)


# k = 1, one full slice s, s + 1 (a second slice of one operator), and N^2 + 1 where that stack
# stays small (at N = 48 it would be 85 MB); the N^2 x N^2 superoperator is formed for N <= 12
KERNEL_CASES = sorted(
    {(n, k) for n in (1, 2, 12, 48, 96) for k in (1, slice_size(n), slice_size(n) + 1)}
    | {(n, n * n + 1) for n in (1, 2, 12)}
)


class TestSlicedKernel:
    @pytest.mark.parametrize("n, k", KERNEL_CASES, ids=[f"n={n}-k={k}" for n, k in KERNEL_CASES])
    def test_matches_the_operator_loop_bit_for_bit(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        ops = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        phi = KrausChannel(n, ops / np.sqrt(k * n))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))  # not Hermitian
        out = apply_channel(phi, x)
        assert out.tobytes() == loop_reference(phi, x).tobytes()
        if n <= 12:
            dense = unvec(superoperator_matrix(phi) @ vec(x))
            assert np.max(np.abs(out - dense)) <= 1e-12

    def test_gram_numbers_match_the_operator_loop_bit_for_bit(self):
        # N = 48 takes slice_size(48) = 3 operators at a time: k = 7 runs slices of 3, 3 and 1,
        # and each slice is conjugated once for both sums
        rng = np.random.default_rng(48)
        ops = rng.standard_normal((7, 48, 48)) + 1j * rng.standard_normal((7, 48, 48))
        phi = KrausChannel(48, ops / np.sqrt(7 * 48))
        gram, cogram = np.zeros((2, 48, 48), dtype=complex)
        for m in phi.kraus:
            gram += m.conj().T @ m
            cogram += m @ m.conj().T
        eye = np.eye(48)
        top = np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]
        expected = (np.linalg.norm(gram - eye), np.linalg.norm(cogram - eye), top)
        assert slice_size(48) == 3
        assert [float(x).hex() for x in phi._gram_numbers] == [float(x).hex() for x in expected]

    def test_an_empty_stack_is_the_zero_map(self):
        phi = KrausChannel(3, np.zeros((0, 3, 3), dtype=complex))
        assert apply_channel(phi, np.eye(3)).tolist() == np.zeros((3, 3)).tolist()
        assert classify(phi).stochastic_residual == classify(phi).unital_residual == np.sqrt(3)

    def test_memory_stays_at_the_slice_size(self):
        # one unsliced (64, 64, 64) complex product is 4 MiB; a slice of two is 128 KiB
        phi = random_bistochastic_channel(64, 64, seed=3)
        x = random_density(64, 64, seed=4).matrix
        tracemalloc.start()
        try:
            apply_channel(phi, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


class TestAdjoint:
    def test_unitary_adjoint(self, tol):
        u = random_unitary(3, 1)
        distance = channel_distance(adjoint(unitary_channel(u)), unitary_channel(u.conj().T))
        assert distance <= tol.eq * 9

    @pytest.mark.parametrize("seed", range(5))
    def test_inner_product_identity(self, seed, tol):
        phi = random_stochastic_channel(3, 2, seed)
        a = random_hermitian(3, seed + 10) + 1j * random_hermitian(3, seed + 20)
        b = random_hermitian(3, seed + 30) + 1j * random_hermitian(3, seed + 40)
        lhs = hs_inner(apply_channel(phi, a), b)
        rhs = hs_inner(a, apply_channel(adjoint(phi), b))
        assert abs(lhs - rhs) <= tol.eq

    def test_adjoint_of_stochastic_is_unital(self):
        phi = random_stochastic_channel(3, 3, seed=2)
        assert classify(adjoint(phi)).unital

    def test_involution(self):
        phi = random_stochastic_channel(3, 2, seed=3)
        assert channel_distance(adjoint(adjoint(phi)), phi) <= 1e-10 * 9

    def test_superoperator_is_conjugate_transpose(self):
        phi = random_stochastic_channel(4, 2, seed=4)
        s = superoperator_matrix(phi)
        s_adj = superoperator_matrix(adjoint(phi))
        assert np.linalg.norm(s_adj - s.conj().T) <= 1e-10 * 16


class TestCompose:
    def test_identity_neutral(self, tol):
        psi = random_stochastic_channel(2, 2, seed=5)
        assert channel_distance(compose(identity_channel(2), psi), psi) <= tol.eq * 4

    def test_bit_flip_squares_to_identity(self, tol):
        twice = compose(bit_flip_channel(), bit_flip_channel())
        assert channel_distance(twice, identity_channel(2)) <= tol.eq * 4

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_double_application(self, seed):
        phi = random_stochastic_channel(3, 2, seed)
        psi = random_bistochastic_channel(3, 2, seed + 60)
        x = random_hermitian(3, seed + 70)
        np.testing.assert_allclose(
            apply_channel(compose(phi, psi), x),
            apply_channel(phi, apply_channel(psi, x)),
            atol=1e-10 * 3 * 1e3,
        )

    def test_associativity_on_superoperators(self):
        a = random_stochastic_channel(3, 2, seed=6)
        b = random_bistochastic_channel(3, 2, seed=7)
        c = random_stochastic_channel(3, 3, seed=8)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert channel_distance(left, right) <= 1e-10 * 9


class TestClassify:
    def test_unitary_is_bistochastic_with_zero_residuals(self):
        cls = classify(unitary_channel(random_unitary(3, 9)))
        assert cls.bistochastic
        assert cls.stochastic_residual <= 1e-12
        assert cls.unital_residual <= 1e-12

    def test_dephasing_is_bistochastic(self):
        from conftest import dephasing_channel

        assert classify(dephasing_channel(2)).bistochastic

    def test_amplitude_damping_stochastic_not_unital(self):
        phi = amplitude_damping_channel(0.5)
        cls = classify(phi)
        assert cls.stochastic and not cls.unital and not cls.bistochastic
        # oracle: sum M M^dag = diag(1.5, 0.5), Frobenius distance to I
        cogram = sum(m @ m.conj().T for m in phi.kraus)
        np.testing.assert_allclose(cogram, np.diag([1.5, 0.5]), atol=1e-12)
        assert cls.unital_residual == pytest.approx(np.sqrt(0.5), abs=1e-12)


# constructor name -> maker of a bi-stochastic channel built by it
CONSTRUCTORS = {
    "kraus_channel": lambda: kraus_channel(random_bistochastic_channel(3, 2, 1).kraus),
    "adjoint": lambda: adjoint(random_bistochastic_channel(3, 2, 2)),
    "compose": lambda: compose(
        random_bistochastic_channel(3, 2, 3), random_bistochastic_channel(3, 3, 4)
    ),
    "channel_from_choi": lambda: channel_from_choi(
        choi_matrix(random_bistochastic_channel(3, 2, 5))
    ),
    "channel_from_bistochastic": lambda: channel_from_bistochastic(
        random_bistochastic_matrix(3, 2, 6)
    ),
    # phi(I/N) = I/N, so the recovery map is adjoint(phi)
    "petz_recovery": lambda: petz_recovery(
        random_bistochastic_channel(3, 2, 7), maximally_mixed(3)
    ),
    "random_bistochastic_channel": lambda: random_bistochastic_channel(4, 3, 8),
    "random_stochastic_channel": lambda: random_stochastic_channel(3, 1, 9),
    "synthesize_pair": lambda: synthesize_pair(parse_block_spec("2x1,1x2"), seed=10)[0],
    "channel_from_obj": lambda: channel_from_obj(
        channel_to_obj(random_bistochastic_channel(3, 2, 11))
    ),
}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
class TestOneRepresentation:
    def test_kraus_is_one_read_only_complex_stack(self, make):
        phi = make()
        assert isinstance(phi.kraus, np.ndarray) and phi.kraus.dtype == complex
        assert phi.kraus.ndim == 3 and phi.kraus.shape[1:] == (phi.dim, phi.dim)
        assert phi.kraus.flags.c_contiguous and not phi.kraus.flags.writeable

    def test_kept_gram_numbers_equal_a_recomputation(self, make):
        phi = make()
        fresh = KrausChannel(phi.dim, phi.kraus.copy())
        assert classify(phi).as_dict() == classify(fresh).as_dict()

    def test_fixed_point_basis_is_one_read_only_stack(self, make):
        phi = make()
        basis = fixed_point_space(phi).basis
        assert isinstance(basis, np.ndarray) and basis.ndim == 3
        assert basis.shape[1:] == (phi.dim, phi.dim)
        assert not basis.flags.writeable


class TestSuperoperator:
    def test_identity_channel_gives_identity_matrix(self):
        np.testing.assert_allclose(superoperator_matrix(identity_channel(2)), np.eye(4))

    def test_vec_unvec_roundtrip(self):
        x = random_hermitian(3, 11)
        np.testing.assert_allclose(unvec(vec(x)), x)

    @pytest.mark.parametrize("seed", range(100))
    def test_matrix_action_matches_kraus(self, seed):
        n = 2 + seed % 5  # dims 2..6
        phi = random_stochastic_channel(n, 1 + seed % 3, seed)
        rng = np.random.default_rng(seed + 500)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.testing.assert_allclose(
            unvec(superoperator_matrix(phi) @ vec(x)),
            apply_channel(phi, x),
            atol=1e-10 * n * n,
        )


class TestPetzRecovery:
    def test_equals_adjoint_for_maximally_mixed_reference(self, tol):
        # bistochastic channel with sigma = I/N: the weighting cancels exactly
        phi = random_bistochastic_channel(3, 3, seed=12)
        rec = petz_recovery(phi, maximally_mixed(3))
        assert channel_distance(rec, adjoint(phi)) <= tol.eq * 9

    def test_unitary_channel_recovers_with_inverse(self, tol):
        u = random_unitary(3, 13)
        sigma = random_density(3, 3, seed=14)
        rec = petz_recovery(unitary_channel(u), sigma)
        assert channel_distance(rec, unitary_channel(u.conj().T)) <= tol.eq * 9

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_reference_state(self, seed, tol):
        phi = random_stochastic_channel(4, 2, seed)
        sigma = random_density(4, 4, seed + 80)
        rec = petz_recovery(phi, sigma)
        recovered = apply_channel(rec, apply_channel(phi, sigma.matrix))
        assert np.linalg.norm(recovered - sigma.matrix) <= tol.eq * 4

    def test_rejects_non_stochastic(self):
        with pytest.raises(NotStochasticError):
            petz_recovery(kraus_channel([0.5 * np.eye(2)]), maximally_mixed(2))

    def test_rank_deficient_reference(self, tol):
        # recovery restricted to the support still returns sigma
        phi = random_bistochastic_channel(4, 3, seed=15)
        sigma = random_density(4, 2, seed=16)
        rec = petz_recovery(phi, sigma)
        recovered = apply_channel(rec, apply_channel(phi, sigma.matrix))
        assert np.linalg.norm(recovered - sigma.matrix) <= tol.eq * 4
