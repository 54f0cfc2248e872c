"""Tests for the classical (Shannon / doubly-stochastic) application."""

import dataclasses

import numpy as np
import pytest

from qentropy import (
    DEFAULT_TOL,
    NotBistochasticError,
    NotDiagonalError,
    StochasticMatrix,
    adjoint,
    bridge_check,
    channel_from_bistochastic,
    classify,
    corollary_check,
    kraus_matrix,
    probability_vector,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_probability_vector,
    random_stochastic_channel,
    random_unitary,
    shannon_entropy,
    stochastic_matrix,
    validate_state,
    von_neumann_entropy,
)

from conftest import identity_channel, unitary_channel

# Frozen oracle values (scalar arithmetic):
#   H([0.8, 0.2]) and H([0.62, 0.38]) for the worked corollary example.
ENTROPY_08_02 = 0.7219280948873623
ENTROPY_062_038 = 0.9580420222262996

# Precondition message for the column-stochastic [[1, 0.5], [0, 0.5]]; its
# residuals 0 and 0.5 are exact, so the text is the same on every platform.
NOT_BISTOCHASTIC_MESSAGE = (
    "matrix is not bistochastic; column residual 0.000e+00, row residual 5.000e-01"
)

EXACT = DEFAULT_TOL.replace(eq=0.0)


def permutation_matrix(perm):
    n = len(perm)
    m = np.zeros((n, n))
    m[np.asarray(perm), np.arange(n)] = 1.0
    return stochastic_matrix(m)


class TestShannonEntropy:
    def test_deterministic(self):
        assert shannon_entropy(probability_vector([1.0, 0.0])) == 0.0

    def test_entry_above_one_within_tolerance_is_not_negative(self):
        # the entries sum to 1 within tol.eq; -x log2 x of 1 + 5e-9 alone would be -7.2e-9
        assert shannon_entropy(probability_vector([1 + 5e-9, 0.0])) == 0.0

    def test_uniform_eight(self):
        assert shannon_entropy(probability_vector([1 / 8] * 8)) == pytest.approx(3.0, abs=1e-12)

    def test_frozen_value(self):
        assert shannon_entropy(probability_vector([0.8, 0.2])) == pytest.approx(
            ENTROPY_08_02, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_von_neumann_on_diagonal(self, seed, tol):
        n = 2 + seed % 7
        p = random_probability_vector(n, seed)
        rho = validate_state(np.diag(p.entries))
        assert abs(shannon_entropy(p) - von_neumann_entropy(rho)) <= 1e-10


class TestStochasticMatrix:
    def test_fields_are_the_matrix_and_its_residuals(self):
        assert [f.name for f in dataclasses.fields(StochasticMatrix)] == [
            "dim", "matrix", "column_residual", "row_residual"
        ]

    def test_built_at_zero_eq_passes_a_check_at_the_defaults(self):
        """The residuals are judged at the tolerance of the check, not of the construction."""
        b = stochastic_matrix(random_bistochastic_matrix(3, 3, 1).matrix, EXACT)
        assert 0.0 < b.column_residual <= DEFAULT_TOL.eq
        assert corollary_check(b, random_probability_vector(3, 0)).agreement


class TestKrausMatrix:
    def test_identity_channel(self):
        np.testing.assert_allclose(kraus_matrix(identity_channel(3)).matrix, np.eye(3))

    def test_unitary_channel_gives_unistochastic(self, tol):
        u = random_unitary(4, 1)
        b = kraus_matrix(unitary_channel(u))
        np.testing.assert_allclose(b.matrix, np.abs(np.asarray(u)) ** 2, atol=1e-12)
        assert max(b.column_residual, b.row_residual) <= tol.eq

    @pytest.mark.parametrize("seed", range(10))
    def test_adjoint_transposes(self, seed, tol):
        phi = random_stochastic_channel(4, 2, seed)
        b = kraus_matrix(phi)
        # B(adjoint) needs a stochastic channel; adjoint of bistochastic works
        psi = random_bistochastic_channel(4, 3, seed + 100)
        lhs = kraus_matrix(adjoint(psi)).matrix
        rhs = kraus_matrix(psi).matrix.T
        np.testing.assert_allclose(lhs, rhs, atol=tol.eq)
        assert b.column_residual <= tol.eq

    @pytest.mark.parametrize("seed", range(10))
    def test_column_sums(self, seed, tol):
        phi = random_stochastic_channel(5, 2, seed)
        b = kraus_matrix(phi)
        np.testing.assert_allclose(b.matrix.sum(axis=0), np.ones(5), atol=tol.eq)


class TestChannelFromBistochastic:
    def test_identity_matrix_gives_dephasing(self, tol):
        t = stochastic_matrix(np.eye(3))
        phi = channel_from_bistochastic(t)
        assert classify(phi).bistochastic
        np.testing.assert_allclose(kraus_matrix(phi).matrix, np.eye(3), atol=tol.eq)
        # acts as the dephasing channel on any input
        x = np.arange(9, dtype=complex).reshape(3, 3)
        from qentropy import apply_channel

        np.testing.assert_allclose(apply_channel(phi, x), np.diag(np.diagonal(x)), atol=1e-12)

    def test_permutation_matrix_permutes_projectors(self):
        from qentropy import apply_channel

        t = permutation_matrix([2, 0, 1])
        phi = channel_from_bistochastic(t)
        for i in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, i] = 1.0
            out = apply_channel(phi, e)
            expected = np.zeros((3, 3))
            expected[[2, 0, 1][i], [2, 0, 1][i]] = 1.0
            np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_maps_diag_p_to_diag_tp(self, seed, tol):
        from qentropy import apply_channel

        n = 3 + seed % 4
        t = random_bistochastic_matrix(n, 3, seed)
        p = random_probability_vector(n, seed + 200)
        out = apply_channel(channel_from_bistochastic(t), np.diag(p.entries).astype(complex))
        np.testing.assert_allclose(
            np.real(np.diagonal(out)), t.matrix @ p.entries, atol=tol.eq
        )

    def test_channel_of_a_mixture_accepted_at_zero_eq_has_it_as_kraus_matrix(self):
        t = random_bistochastic_matrix(3, 3, 19)
        assert max(t.column_residual, t.row_residual) == 0.0
        phi = channel_from_bistochastic(t, EXACT)
        np.testing.assert_allclose(kraus_matrix(phi).matrix, t.matrix, rtol=0, atol=1e-15)

    def test_entries_at_most_psd_keep_their_operators(self):
        t = stochastic_matrix(np.full((2, 2), 0.5))
        phi = channel_from_bistochastic(t, DEFAULT_TOL.replace(psd=0.6))
        np.testing.assert_allclose(kraus_matrix(phi).matrix, t.matrix, rtol=0, atol=1e-15)

    def test_rejects_column_stochastic_only(self):
        m = stochastic_matrix(np.array([[1.0, 0.5], [0.0, 0.5]]))
        assert (m.column_residual, m.row_residual) == (0.0, 0.5)
        with pytest.raises(NotBistochasticError) as info:
            channel_from_bistochastic(m)
        assert type(info.value) is NotBistochasticError
        assert str(info.value) == NOT_BISTOCHASTIC_MESSAGE


class TestCorollaryCheck:
    def test_permutation_preserves(self):
        b = permutation_matrix([1, 2, 0])
        p = random_probability_vector(3, 3)
        report = corollary_check(b, p)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_uniform_input_always_preserved(self):
        b = random_bistochastic_matrix(4, 3, seed=4)
        p = probability_vector(np.ones(4) / 4)
        report = corollary_check(b, p)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_worked_example_both_false(self):
        b = stochastic_matrix(np.array([[0.7, 0.3], [0.3, 0.7]]))
        p = probability_vector([0.8, 0.2])
        report = corollary_check(b, p)
        assert report.entropy_in == pytest.approx(ENTROPY_08_02, abs=1e-12)
        assert report.entropy_out == pytest.approx(ENTROPY_062_038, abs=1e-12)
        np.testing.assert_allclose(
            b.matrix.T @ (b.matrix @ p.entries), [0.548, 0.452], atol=1e-12
        )
        assert not report.entropy_preserved and not report.fixed_point
        assert report.agreement

    def test_permutation_at_zero_eq_reads_the_entropy_of_bp(self):
        """Bp is not validated again: its sum 0.9999999999999999 is not an input to judge."""
        b, p = random_bistochastic_matrix(3, 1, 2), random_probability_vector(3, 1002)
        report = corollary_check(b, p, EXACT)
        assert report.entropy_out == shannon_entropy(probability_vector(b.matrix @ p.entries))
        assert report.fixed_point_residual == corollary_check(b, p).fixed_point_residual

    def test_rejects_non_bistochastic(self):
        m = stochastic_matrix(np.array([[1.0, 0.5], [0.0, 0.5]]))
        with pytest.raises(NotBistochasticError) as info:
            corollary_check(m, probability_vector([0.5, 0.5]))
        assert type(info.value) is NotBistochasticError
        assert str(info.value) == NOT_BISTOCHASTIC_MESSAGE

    def test_keys(self):
        report = corollary_check(permutation_matrix([1, 0]), probability_vector([0.5, 0.5]))
        assert list(report.as_dict()) == [
            "entropy_in_bits",
            "entropy_out_bits",
            "entropy_gap_bits",
            "fixed_point_residual",
            "entropy_preserved",
            "fixed_point",
            "agreement",
        ]

    @pytest.mark.parametrize("seed", range(25))
    def test_entropy_never_decreases(self, seed, tol):
        n = 2 + seed % 6
        b = random_bistochastic_matrix(n, 2 + seed % 3, seed)
        p = random_probability_vector(n, seed + 400)
        report = corollary_check(b, p)
        assert report.entropy_out >= report.entropy_in - tol.eq


class TestBridgeCheck:
    def test_identity_channel(self):
        rho = validate_state(np.diag([0.3, 0.3, 0.4]))
        report = bridge_check(identity_channel(3), rho)
        assert report.passed
        np.testing.assert_allclose(report.output_probabilities, [0.3, 0.3, 0.4], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_channel_from_matrix_agrees_with_matrix_action(self, seed, tol):
        n = 2 + seed % 4
        t = random_bistochastic_matrix(n, 3, seed)
        phi = channel_from_bistochastic(t)
        p = random_probability_vector(n, seed + 300)
        rho = validate_state(np.diag(p.entries))
        report = bridge_check(phi, rho)
        assert report.passed
        np.testing.assert_allclose(
            report.kraus_matrix_probabilities, t.matrix @ p.entries, atol=tol.eq
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_bistochastic_channel(self, seed):
        n = 2 + seed % 4
        phi = random_bistochastic_channel(n, 3, seed)
        p = random_probability_vector(n, seed + 500)
        rho = validate_state(np.diag(p.entries))
        assert bridge_check(phi, rho).passed

    def test_a_validated_state_is_read_at_zero_eq(self):
        # its diagonal is not judged again, where a sum of 1.0000000000000002 was refused
        for seed in range(50):
            rho = validate_state(np.diag(random_probability_vector(4, seed).entries))
            expected = probability_vector(np.diagonal(rho.matrix).real).entries  # at the defaults
            report = bridge_check(identity_channel(4), rho, EXACT)
            assert report.input_probabilities == tuple(expected)

    def test_rejects_non_diagonal(self):
        rho = validate_state(np.array([[0.5, 0.4], [0.4, 0.5]]))
        with pytest.raises(NotDiagonalError):
            bridge_check(identity_channel(2), rho)
