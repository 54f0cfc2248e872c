"""Tests for state validation, spectra and entropic functionals."""

import math

import numpy as np
import pytest

from qentropy import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    TraceNotOneError,
    probability_vector,
    random_density,
    random_probability_vector,
    random_unitary,
    relative_entropy,
    shannon_entropy,
    state_spectrum,
    validate_state,
    von_neumann_entropy,
)

from qentropy.states import (
    EquivalenceReport,
    _projector,
    _psd_root,
    entropy_of_matrix,
    spectral_decomposition,
)

from conftest import maximally_mixed, pure_state

# Frozen oracle value: -(0.8*log2(0.8) + 0.2*log2(0.2)), scalar arithmetic.
ENTROPY_08_02 = 0.7219280948873623


class TestValidateState:
    def test_maximally_mixed_is_valid(self):
        rho = validate_state(np.eye(2) / 2)
        np.testing.assert_allclose(state_spectrum(rho).eigenvalues, [0.5, 0.5])

    def test_diagonal_psd_unit_trace(self):
        rho = validate_state(np.diag([0.8, 0.2]))
        assert rho.dim == 2

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_state(np.ones((2, 3)) / 6)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            validate_state(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOneError):
            validate_state(np.diag([0.6, 0.6]))

    def test_not_positive(self):
        with pytest.raises(NotPositiveError):
            validate_state(np.diag([1.5, -0.5]))

    def test_small_negative_eigenvalue_is_clipped(self):
        rho = validate_state(np.diag([1.0 + 5e-11, -5e-11]))
        vals = state_spectrum(rho).eigenvalues
        assert vals[-1] == 0.0

    def test_matrix_is_readonly(self):
        rho = validate_state(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        assert von_neumann_entropy(pure_state(2)) == pytest.approx(0.0, abs=1e-12)

    def test_diag_08_02(self):
        rho = validate_state(np.diag([0.8, 0.2]))
        assert von_neumann_entropy(rho) == pytest.approx(ENTROPY_08_02, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounds(self, n, seed, tol):
        rho = random_density(n, n, seed)
        s = von_neumann_entropy(rho)
        assert -tol.eq <= s <= math.log2(n) + tol.eq

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed, tol):
        rho = random_density(4, 4, seed)
        u = random_unitary(4, seed + 100)
        rotated = validate_state(u @ rho.matrix @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= tol.eq


def _diagonal_state(seed, zeros=0):
    """Diagonal state from a seeded probability vector: its eigenvalues are exact."""
    p = np.array(random_probability_vector(6, seed).entries)
    p[:zeros] = 0.0
    return validate_state(np.diag(p / p.sum()))


class TestEntropyKernelBits:
    """Every entropy goes through one kernel; these floats are pinned bit for bit."""

    @pytest.mark.parametrize(
        "compute, expected",
        [
            (lambda: entropy_of_matrix(_diagonal_state(1).matrix), "0x1.b56372ee6ad57p+0"),
            (lambda: von_neumann_entropy(_diagonal_state(2, zeros=2)), "0x1.e6abe307231a6p+0"),
            (lambda: von_neumann_entropy(validate_state(np.diag([0.0, 1.0, 0.0]))), "0x0.0p+0"),
            (lambda: shannon_entropy(random_probability_vector(7, 4)), "0x1.19b654d361fe1p+1"),
            (lambda: shannon_entropy(probability_vector([0.0, 1.0, 0.0])), "0x0.0p+0"),
            (
                lambda: relative_entropy(_diagonal_state(5, zeros=1), _diagonal_state(6)),
                "0x1.215b252de03bfp+0",
            ),
            (lambda: relative_entropy(pure_state(3, 1), pure_state(3, 1)), "0x0.0p+0"),
        ],
        ids=[
            "entropy_of_matrix",
            "von_neumann",
            "von_neumann_pure",
            "shannon",
            "shannon_point_mass",
            "relative",
            "relative_pure",
        ],
    )
    def test_pinned_floats(self, compute, expected):
        assert compute().hex() == expected


class TestSupportProjector:
    def test_rank_two_diagonal(self, tol):
        spec = spectral_decomposition(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(_projector(spec, tol), np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_full_rank_gives_identity(self, tol):
        spec = spectral_decomposition(random_density(4, 4, seed=3).matrix)
        np.testing.assert_allclose(_projector(spec, tol), np.eye(4), atol=1e-10)

    def test_rank_one(self, tol):
        spec = spectral_decomposition(pure_state(2).matrix)
        np.testing.assert_allclose(_projector(spec, tol), np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent_and_hermitian(self, tol):
        p = _projector(spectral_decomposition(random_density(5, 3, seed=4).matrix), tol)
        assert np.linalg.norm(p @ p - p) <= 1e-10 * 5
        assert np.linalg.norm(p - p.conj().T) <= 1e-10 * 5


class TestRelativeEntropy:
    def test_identical_arguments(self):
        rho = random_density(3, 3, seed=8)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        assert relative_entropy(pure_state(2), maximally_mixed(2)) == pytest.approx(1.0, abs=1e-12)

    def test_support_violation_gives_infinity(self):
        assert relative_entropy(maximally_mixed(2), pure_state(2)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            relative_entropy(maximally_mixed(2), maximally_mixed(3))

    @pytest.mark.parametrize("seed", range(8))
    def test_identity_against_maximally_mixed(self, seed, tol):
        n = 2 + seed % 4
        rho = random_density(n, 1 + seed % n, seed)
        expected = math.log2(n) - von_neumann_entropy(rho)
        assert relative_entropy(rho, maximally_mixed(n)) == pytest.approx(expected, abs=tol.eq)

    @pytest.mark.parametrize("seed", range(10))
    def test_klein_inequality(self, seed, tol):
        n = 2 + seed % 3
        rho = random_density(n, n, seed)
        sigma = random_density(n, n, seed + 1000)
        assert relative_entropy(rho, sigma) >= -tol.eq


class TestSpectrum:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        n = 2 + seed
        rho = random_density(n, n, seed)
        spec = state_spectrum(rho)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - rho.matrix) <= 1e-10 * n

    def test_descending_order_and_simplex(self):
        rho = random_density(5, 3, seed=20)
        vals = state_spectrum(rho).eigenvalues
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert abs(vals.sum() - 1.0) <= 1e-9 * 10

    def test_eigenvector_columns_orthonormal(self):
        rho = random_density(4, 4, seed=21)
        v = state_spectrum(rho).eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10 * 4 * 1e3


class TestToleranceConfig:
    def test_rejects_out_of_range(self):
        from qentropy import ToleranceConfig, ValidationError

        with pytest.raises(ValidationError):
            ToleranceConfig(eq=1.5)
        with pytest.raises(ValidationError):
            ToleranceConfig(psd=-1e-3)

    def test_replace(self):
        from qentropy import DEFAULT_TOL

        loose = DEFAULT_TOL.replace(eq=1e-4)
        assert loose.eq == 1e-4 and loose.fix == DEFAULT_TOL.fix


class TestPsdFunctions:
    def test_sqrt_squares_back(self, tol):
        rho = random_density(4, 4, seed=9)
        root = _psd_root(spectral_decomposition(rho.matrix), False, tol)
        np.testing.assert_allclose(root @ root, rho.matrix, atol=1e-10 * 16 * 1e3)

    def test_inverse_sqrt_on_support(self, tol):
        rho = random_density(4, 2, seed=10)
        spec = spectral_decomposition(rho.matrix)
        inv_root = _psd_root(spec, True, tol)
        np.testing.assert_allclose(
            inv_root @ rho.matrix @ inv_root, _projector(spec, tol), atol=1e-10 * 16 * 1e4
        )

    def test_negative_eigenvalue_counts_as_zero(self, tol):
        # the root clips it at 0 and the inverse root masks it, as one below tol.psd
        spec = spectral_decomposition(np.diag([1.0, -0.2]))
        for inverse in (False, True):
            np.testing.assert_array_equal(_psd_root(spec, inverse, tol), np.diag([1.0, 0.0]))


class TestEquivalenceReport:
    def test_agreement_follows_the_verdicts(self):
        agree = EquivalenceReport("petz", 1.0, 0.5, 0.5, 0.25, False, False)
        differ = EquivalenceReport("petz", 1.0, 0.5, 0.5, 0.0, False, True)
        assert agree.agreement and not differ.agreement
        assert agree.as_dict()["recovery"] is False and differ.as_dict()["agreement"] is False
