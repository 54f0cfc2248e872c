"""Tests for the entropy-preservation equivalences, the fixed-point algebra
machinery, structure verification and pair synthesis."""

import math
from collections import Counter

import numpy as np
import pytest

from qentropy import (
    BlockSpec,
    FixedPointBasis,
    InvalidSpecError,
    NotAnAlgebraError,
    NotBistochasticError,
    NotStochasticError,
    StructureMismatchError,
    SupportViolationError,
    block_form_residual,
    check_petz_equality,
    decompose_fixed_point_algebra,
    entropy_monotonicity_check,
    entropy_preservation_report,
    fixed_point_space,
    kraus_channel,
    map_entropy,
    map_entropy_preservation_report,
    parse_block_spec,
    petz_recovery,
    random_bistochastic_channel,
    random_density,
    random_stochastic_channel,
    random_unitary,
    synthesize_pair,
    validate_state,
    verify_block_structure,
)

from conftest import (
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    maximally_mixed,
    phase_invariant_unitary_distance,
    pure_state,
    unitary_channel,
)
from qentropy.entropy_analysis import _block_structure
from qentropy.generators import _gaussian_state, _seeded_rng


def assemble_pair(blocks, weights, left_states, unitaries, right_channels, basis_change):
    """(phi, rho, structure) for phi = W (sum_k U_k (x) T_k) W^dag, each block's Kraus operators
    embedded on their own, and rho = W (sum_k w_k rho_k (x) I/dR) W^dag; built from the given
    parts with the arithmetic of synthesize_pair, so that equal parts give equal bits."""
    n = sum(dl * dr for dl, dr in blocks)
    kraus_ops, rho, classes, offset = [], np.zeros((n, n), dtype=complex), [], 0
    for (dl, dr), w, left, u, right in zip(blocks, weights, left_states, unitaries, right_channels):
        span = slice(offset, offset + dl * dr)
        for m in right.kraus:
            big = np.zeros((n, n), dtype=complex)
            big[span, span] = np.kron(u, m)
            kraus_ops.append(basis_change @ big @ basis_change.conj().T)
        rho[span, span] = w * np.kron(left, np.eye(dr) / dr)
        classes.append(basis_change[:, span].reshape(n, dl, dr))
        offset += dl * dr
    rho_state = validate_state(basis_change @ rho @ basis_change.conj().T)
    return kraus_channel(kraus_ops), rho_state, _block_structure(n, classes)


class TestPreservationReport:
    def test_unitary_preserves_everything(self, tol):
        phi = unitary_channel(random_unitary(3, 0))
        rho = random_density(3, 2, seed=1)
        report = entropy_preservation_report(phi, rho)
        assert report.entropy_preserved and report.fixed_point and report.agreement
        assert report.fixed_point_residual <= tol.fix

    def test_depolarizing_on_pure_state(self):
        report = entropy_preservation_report(depolarizing_channel(2), pure_state(2))
        assert report.entropy_in == pytest.approx(0.0, abs=1e-12)
        assert report.entropy_out == pytest.approx(1.0, abs=1e-12)
        assert not report.entropy_preserved and not report.fixed_point
        assert report.agreement
        # residual oracle: ||I/2 - |0><0|||_F = sqrt(1/2)
        assert report.fixed_point_residual == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_synthesized_pair_preserves(self):
        phi, rho, _ = synthesize_pair(BlockSpec(blocks=((2, 1), (1, 2))), seed=3)
        report = entropy_preservation_report(phi, rho)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_rejects_non_bistochastic(self):
        with pytest.raises(NotBistochasticError):
            entropy_preservation_report(amplitude_damping_channel(0.5), maximally_mixed(2))

    @pytest.mark.parametrize("seed", range(20))
    def test_verdicts_agree_on_random_pairs(self, seed):
        n = 2 + seed % 5
        phi = random_bistochastic_channel(n, 2 + seed % 2, seed)
        rho = random_density(n, 1 + seed % n, seed + 100)
        report = entropy_preservation_report(phi, rho)
        assert report.agreement


class TestMonotonicity:
    def test_unitary_gives_zero_slack(self, tol):
        phi = unitary_channel(random_unitary(3, 4))
        rho = random_density(3, 3, seed=5)
        sigma = random_density(3, 3, seed=6)
        report = entropy_monotonicity_check(phi, rho, sigma)
        assert abs(report.slack) <= tol.eq

    def test_equal_states_give_zero_both_sides(self, tol):
        phi = random_stochastic_channel(3, 2, seed=7)
        rho = random_density(3, 3, seed=8)
        report = entropy_monotonicity_check(phi, rho, rho)
        assert report.relative_entropy_in == pytest.approx(0.0, abs=tol.eq)
        assert report.relative_entropy_out == pytest.approx(0.0, abs=tol.eq)

    @pytest.mark.parametrize("seed", range(20))
    def test_slack_never_negative(self, seed, tol):
        n = 2 + seed % 4
        phi = random_stochastic_channel(n, 2, seed)
        rho = random_density(n, 1 + seed % n, seed + 200)
        sigma = random_density(n, n, seed + 300)
        report = entropy_monotonicity_check(phi, rho, sigma)
        assert report.slack >= -tol.eq

    @pytest.mark.parametrize("seed", range(10))
    def test_bistochastic_entropy_gain(self, seed, tol):
        n = 2 + seed % 4
        phi = random_bistochastic_channel(n, 3, seed)
        rho = random_density(n, n, seed + 400)
        report = entropy_monotonicity_check(phi, rho, maximally_mixed(n))
        assert report.entropy_gain is not None
        assert report.entropy_gain >= -tol.eq

    def test_support_violation(self):
        phi = identity_channel(2)
        with pytest.raises(SupportViolationError):
            entropy_monotonicity_check(phi, maximally_mixed(2), pure_state(2))

    @pytest.mark.parametrize("check", [entropy_monotonicity_check, check_petz_equality])
    def test_disjoint_supports_exact_error(self, check):
        with pytest.raises(SupportViolationError) as info:
            check(identity_channel(2), pure_state(2, 0), pure_state(2, 1))
        assert type(info.value) is SupportViolationError
        assert str(info.value) == "supp(rho) is not contained in supp(sigma); leakage 1.000e+00"

    def test_rejects_non_stochastic(self):
        from qentropy import kraus_channel

        with pytest.raises(NotStochasticError):
            entropy_monotonicity_check(
                kraus_channel([0.5 * np.eye(2)]), maximally_mixed(2), maximally_mixed(2)
            )


class TestPetzEquality:
    def test_unitary_both_verdicts_true(self):
        phi = unitary_channel(random_unitary(3, 9))
        rho = random_density(3, 2, seed=10)
        sigma = random_density(3, 3, seed=11)
        report = check_petz_equality(phi, rho, sigma)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_equal_states_both_verdicts_true(self):
        phi = random_stochastic_channel(3, 2, seed=12)
        sigma = random_density(3, 3, seed=13)
        report = check_petz_equality(phi, sigma, sigma)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_depolarizing_strict_decrease(self):
        phi = depolarizing_channel(2)
        rho = pure_state(2)
        sigma = validate_state(np.diag([0.75, 0.25]))
        report = check_petz_equality(phi, rho, sigma)
        assert not report.entropy_preserved and not report.fixed_point
        assert report.agreement
        assert report.entropy_gap > 0.1

    @pytest.mark.parametrize("seed", range(20))
    def test_verdict_agreement(self, seed):
        n = 2 + seed % 4
        phi = random_stochastic_channel(n, 2, seed)
        rho = random_density(n, n, seed + 500)
        sigma = random_density(n, n, seed + 600)
        assert check_petz_equality(phi, rho, sigma).agreement


class TestFixedPointSpace:
    def test_unitary_fixes_all_operators(self):
        phi = unitary_channel(random_unitary(3, 14))
        basis = fixed_point_space(phi)
        assert len(basis.basis) == 9

    def test_depolarizing_fixes_only_identity(self):
        basis = fixed_point_space(depolarizing_channel(2))
        assert len(basis.basis) == 1
        scaled = basis.basis[0] / basis.basis[0][0, 0]
        np.testing.assert_allclose(scaled, np.eye(2), atol=1e-10)

    def test_dephasing_fixes_diagonals(self):
        basis = fixed_point_space(dephasing_channel(3))
        assert len(basis.basis) == 3
        for b in basis.basis:
            np.testing.assert_allclose(b, np.diag(np.diagonal(b)), atol=1e-10)

    def test_residuals_and_gap(self, tol):
        basis = fixed_point_space(random_bistochastic_channel(3, 3, seed=15))
        assert basis.residual_bound <= tol.fix
        assert basis.spectral_gap > tol.fix

    def test_hermitian_representatives(self):
        basis = fixed_point_space(random_bistochastic_channel(4, 3, seed=16))
        for b in basis.basis:
            assert np.linalg.norm(b - b.conj().T) <= 1e-10

    def test_orthonormal(self):
        basis = fixed_point_space(dephasing_channel(4))
        gram = np.array(
            [[np.trace(a.conj().T @ b) for b in basis.basis] for a in basis.basis]
        )
        np.testing.assert_allclose(gram, np.eye(len(basis.basis)), atol=1e-10 * 1e3)

    def test_rejects_non_bistochastic(self):
        with pytest.raises(NotBistochasticError):
            fixed_point_space(amplitude_damping_channel(0.3))


class TestDecompose:
    def test_full_algebra_single_block(self):
        basis = fixed_point_space(unitary_channel(random_unitary(3, 17)))
        structure = decompose_fixed_point_algebra(basis)
        assert structure.block_dims == ((3, 1),)

    def test_identity_span_single_block(self):
        basis = fixed_point_space(depolarizing_channel(3))
        structure = decompose_fixed_point_algebra(basis)
        assert structure.block_dims == ((1, 3),)

    def test_diagonal_algebra(self):
        basis = fixed_point_space(dephasing_channel(3))
        structure = decompose_fixed_point_algebra(basis)
        assert structure.block_dims == ((1, 1), (1, 1), (1, 1))

    def test_not_an_algebra_rejected(self):
        # span{|0><1|} is not dagger-closed and has no identity
        element = np.zeros((2, 2), dtype=complex)
        element[0, 1] = 1.0
        fake = FixedPointBasis(dim=2, basis=(element,), residual_bound=0.0, spectral_gap=1.0)
        with pytest.raises(NotAnAlgebraError):
            decompose_fixed_point_algebra(fake)

    def test_non_unital_span_rejected(self):
        # dagger-closed but misses the identity
        element = np.diag([1.0, 0.0]).astype(complex)
        offs = np.zeros((2, 2), dtype=complex)
        offs[0, 1] = offs[1, 0] = 1.0
        fake = FixedPointBasis(
            dim=2,
            basis=(element, offs / np.sqrt(2)),
            residual_bound=0.0,
            spectral_gap=1.0,
        )
        with pytest.raises(NotAnAlgebraError):
            decompose_fixed_point_algebra(fake)

    def test_form_residual_small(self, tol):
        basis = fixed_point_space(random_bistochastic_channel(4, 2, seed=18))
        structure = decompose_fixed_point_algebra(basis)
        assert block_form_residual(basis, structure) <= 10 * tol.fix

    def test_deterministic_given_seed(self):
        basis = fixed_point_space(dephasing_channel(3))
        a = decompose_fixed_point_algebra(basis, seed=5)
        b = decompose_fixed_point_algebra(basis, seed=5)
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.isometry, bb.isometry)

    @pytest.mark.parametrize(
        "blocks", [((2, 2),), ((2, 1), (1, 2)), ((1, 1), (1, 1)), ((3, 1), (1, 3))]
    )
    def test_round_trip_block_dims(self, blocks):
        phi, _, _ = synthesize_pair(BlockSpec(blocks=blocks), seed=19)
        structure = decompose_fixed_point_algebra(fixed_point_space(phi))
        assert Counter(structure.block_dims) == Counter(blocks)


class TestVerifyBlockStructure:
    def test_identity_channel_single_block(self):
        phi = identity_channel(3)
        rho = maximally_mixed(3)
        basis = fixed_point_space(phi)
        structure = decompose_fixed_point_algebra(basis)
        result = verify_block_structure(structure, phi, rho)
        assert result.block_dims == ((3, 1),)
        u = result.left_unitaries[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-8
        # recovered unitary is the identity up to a phase
        assert phase_invariant_unitary_distance(np.eye(3), u) <= 1e-6

    def test_synthesized_round_trip(self, tol):
        phi, rho, structure = assemble_pair(
            blocks=((2, 1), (1, 2)),
            weights=(0.7, 0.3),
            left_states=(np.diag([0.6, 0.4]), np.eye(1)),
            unitaries=(np.asarray(random_unitary(2, 20)), np.eye(1)),
            right_channels=(identity_channel(1), random_bistochastic_channel(2, 3, seed=20)),
            basis_change=np.asarray(random_unitary(4, 20)),
        )
        result = verify_block_structure(structure, phi, rho)
        assert result.block_dims in (((1, 2), (2, 1)), ((2, 1), (1, 2)))
        np.testing.assert_allclose(sorted(result.weights), [0.3, 0.7], atol=tol.eq)
        assert result.action_residual <= tol.eq * 4

    def test_recovers_specified_unitary(self, tol):
        u = np.asarray(random_unitary(2, 21))
        phi, rho, structure = assemble_pair(
            blocks=((2, 1),),
            weights=(1.0,),
            left_states=(np.diag([0.6, 0.4]),),
            unitaries=(u,),
            right_channels=(identity_channel(1),),
            basis_change=np.asarray(random_unitary(2, 22)),
        )
        result = verify_block_structure(structure, phi, rho)
        assert phase_invariant_unitary_distance(u, result.left_unitaries[0]) <= 1e-6
        np.testing.assert_allclose(result.left_states[0], np.diag([0.6, 0.4]), atol=tol.eq)

    def test_depolarizing_claimed_unitary_block_mismatch(self):
        phi = depolarizing_channel(2)
        rho = maximally_mixed(2)
        full_block = decompose_fixed_point_algebra(
            fixed_point_space(unitary_channel(np.eye(2)))
        )  # claims a single (2, 1) block
        with pytest.raises(StructureMismatchError):
            verify_block_structure(full_block, phi, rho)

    def test_state_coupling_blocks_mismatch(self):
        phi = dephasing_channel(2)
        structure = decompose_fixed_point_algebra(fixed_point_space(phi))
        rho = validate_state(np.array([[0.5, 0.4], [0.4, 0.5]]))
        with pytest.raises(StructureMismatchError):
            verify_block_structure(structure, phi, rho)


class TestPhaseInvariantUnitaryDistance:
    def test_resolves_close_unitaries(self):
        u = np.asarray(random_unitary(3, 5))
        v = np.exp(0.3j) * u @ np.diag(np.exp(1j * 1e-10 * np.array([1.0, -1.0, 0.0])))
        assert phase_invariant_unitary_distance(u, v) == pytest.approx(np.sqrt(2) * 1e-10, rel=1e-6)

    def test_phase_equal_unitaries_are_at_zero(self):
        u = np.asarray(random_unitary(4, 6))
        assert phase_invariant_unitary_distance(u, np.exp(-1.1j) * u) <= 1e-15

    def test_non_unitary_inputs(self):
        assert phase_invariant_unitary_distance(2.0 * np.eye(3), -np.eye(3)) == pytest.approx(np.sqrt(3))
        assert phase_invariant_unitary_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
            np.sqrt(2)
        )


class TestSynthesizePair:
    def test_single_left_block_is_unitary_channel(self):
        phi, rho, structure = synthesize_pair(BlockSpec(blocks=((4, 1),)), seed=23)
        assert len(phi.kraus) == 1
        assert structure.block_dims == ((4, 1),)
        report = entropy_preservation_report(phi, rho)
        assert report.entropy_preserved

    def test_single_right_block_gives_maximally_mixed(self, tol):
        phi, rho, _ = synthesize_pair(BlockSpec(blocks=((1, 4),)), seed=24)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=tol.eq)

    def test_spec_example_preserves(self, tol):
        phi, rho, _ = synthesize_pair(BlockSpec(blocks=((2, 1), (1, 2))), seed=7)
        report = entropy_preservation_report(phi, rho)
        assert abs(report.entropy_out - report.entropy_in) <= tol.eq

    def test_deterministic(self):
        a_phi, a_rho, _ = synthesize_pair(BlockSpec(blocks=((2, 2),)), seed=25)
        b_phi, b_rho, _ = synthesize_pair(BlockSpec(blocks=((2, 2),)), seed=25)
        np.testing.assert_array_equal(a_rho.matrix, b_rho.matrix)
        for ma, mb in zip(a_phi.kraus, b_phi.kraus):
            np.testing.assert_array_equal(ma, mb)

    @pytest.mark.parametrize(
        "text, seed", [("2x2,2x1,1x2", 0), ("1x4,2x2", 7), ("3x1,1x3,1x1", -3)]
    )
    def test_draw_order(self, text, seed):
        """One generator seeded by ``seed`` draws the weights, every left state, every left
        unitary, the right channels of the blocks with dR > 1, then the basis change; the
        benchmark's instances depend on this order."""
        blocks = parse_block_spec(text).blocks
        rng = _seeded_rng(seed)

        def child_seed() -> int:
            return int(rng.integers(0, 2**63))

        weights = rng.dirichlet(np.ones(len(blocks)))
        left_states = [_gaussian_state(dl, dl, child_seed()) for dl, _ in blocks]
        unitaries = [np.asarray(random_unitary(dl, child_seed())) for dl, _ in blocks]
        right_channels = [
            random_bistochastic_channel(dr, 3, child_seed()) if dr > 1 else identity_channel(1)
            for _, dr in blocks
        ]
        basis_change = np.asarray(random_unitary(sum(dl * dr for dl, dr in blocks), child_seed()))
        phi, rho, structure = assemble_pair(
            blocks, weights, left_states, unitaries, right_channels, basis_change
        )
        got_phi, got_rho, got_structure = synthesize_pair(parse_block_spec(text), seed)
        np.testing.assert_array_equal(got_phi.kraus, phi.kraus)
        np.testing.assert_array_equal(got_rho.matrix, rho.matrix)
        assert got_structure.block_dims == structure.block_dims
        for got, want in zip(got_structure.blocks, structure.blocks):
            np.testing.assert_array_equal(got.isometry, want.isometry)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            synthesize_pair(BlockSpec(blocks=()), seed=0)
        with pytest.raises(InvalidSpecError):
            synthesize_pair(BlockSpec(blocks=((0, 2),)), seed=0)

    def test_parse_block_spec(self):
        assert parse_block_spec("2x1,1x2").blocks == ((2, 1), (1, 2))
        with pytest.raises(InvalidSpecError):
            parse_block_spec("2x")


class TestMapEntropyReport:
    def test_unitary_outer_channel(self):
        phi = unitary_channel(random_unitary(3, 26))
        psi = random_stochastic_channel(3, 2, seed=27)
        report = map_entropy_preservation_report(phi, psi)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_depolarizing_on_identity(self):
        report = map_entropy_preservation_report(depolarizing_channel(2), identity_channel(2))
        assert report.entropy_in == pytest.approx(0.0, abs=1e-10)
        assert report.entropy_out == pytest.approx(2.0, abs=1e-8)
        assert not report.entropy_preserved and not report.fixed_point
        assert report.agreement

    def test_dephasing_composed_with_itself(self, tol):
        # dephasing is an idempotent Hermitian projection, verified numerically
        phi = dephasing_channel(2)
        from qentropy import channel_distance, compose

        assert channel_distance(compose(phi, phi), phi) <= tol.eq
        report = map_entropy_preservation_report(phi, phi)
        assert report.entropy_preserved and report.fixed_point and report.agreement

    def test_rejects_wrong_preconditions(self):
        with pytest.raises(NotBistochasticError):
            map_entropy_preservation_report(amplitude_damping_channel(0.4), identity_channel(2))
        from qentropy import kraus_channel

        with pytest.raises(NotStochasticError):
            map_entropy_preservation_report(identity_channel(2), kraus_channel([0.5 * np.eye(2)]))

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_on_random_pairs(self, seed):
        n = 2 + seed % 3
        phi = random_bistochastic_channel(n, 2 + seed % 2, seed)
        psi = random_stochastic_channel(n, 2, seed + 800)
        assert map_entropy_preservation_report(phi, psi).agreement


class TestReportContract:
    """JSON keys and precondition messages, pinned without BLAS-dependent floats."""

    def test_preservation_keys(self):
        report = entropy_preservation_report(identity_channel(2), maximally_mixed(2))
        assert list(report.as_dict()) == [
            "entropy_in_bits",
            "entropy_out_bits",
            "entropy_gap_bits",
            "fixed_point_residual",
            "entropy_preserved",
            "fixed_point",
            "agreement",
        ]

    def test_map_entropy_keys(self):
        report = map_entropy_preservation_report(identity_channel(2), identity_channel(2))
        assert list(report.as_dict()) == [
            "map_entropy_in_bits",
            "map_entropy_composed_bits",
            "entropy_gap_bits",
            "composition_residual",
            "entropy_preserved",
            "composition_fixed",
            "agreement",
        ]

    def test_petz_keys(self):
        mixed = maximally_mixed(2)
        report = check_petz_equality(identity_channel(2), mixed, mixed)
        assert list(report.as_dict()) == [
            "relative_entropy_in_bits",
            "relative_entropy_out_bits",
            "equality_gap_bits",
            "recovery_residual",
            "equality",
            "recovery",
            "agreement",
        ]

    # Full reset (amplitude damping with gamma = 1) and 0.5 I have entries 0, 1
    # and 0.5, so their residuals sqrt(2) and 0.75 sqrt(2) print the same everywhere.
    @pytest.mark.parametrize(
        "site, error, message",
        [
            (
                "preservation",
                NotBistochasticError,
                "report needs a bi-stochastic channel; "
                "stochastic residual 0.000e+00, unital residual 1.414e+00",
            ),
            (
                "monotonicity",
                NotStochasticError,
                "monotonicity needs a trace-preserving channel; residual 1.061e+00",
            ),
            (
                "petz",
                NotStochasticError,
                "equality check needs a trace-preserving channel; residual 1.061e+00",
            ),
            (
                "map outer",
                NotBistochasticError,
                "outer channel must be bi-stochastic; "
                "stochastic residual 0.000e+00, unital residual 1.414e+00",
            ),
            (
                "map inner",
                NotStochasticError,
                "inner channel must be trace preserving; residual 1.061e+00",
            ),
            (
                "fixed-point space",
                NotBistochasticError,
                "fixed-point space needs a bi-stochastic channel; "
                "stochastic residual 0.000e+00, unital residual 1.414e+00",
            ),
            (
                "petz recovery",
                NotStochasticError,
                "recovery map needs a trace-preserving channel; residual 1.061e+00",
            ),
            (
                "map entropy",
                NotStochasticError,
                "map entropy needs a trace-preserving channel; residual 1.061e+00",
            ),
            (
                # each factor passes with residual 1.27e-8 <= 2 tol.eq, their composition does not
                "map composed",
                NotStochasticError,
                "map entropy needs a trace-preserving channel; residual 2.546e-08",
            ),
        ],
    )
    def test_precondition_messages(self, site, error, message):
        reset, half = amplitude_damping_channel(1.0), kraus_channel([0.5 * np.eye(2)])
        scaled = kraus_channel([math.sqrt(1.0 + 0.9e-8) * np.eye(2)])
        mixed, ident = maximally_mixed(2), identity_channel(2)
        calls = {
            "preservation": lambda: entropy_preservation_report(reset, mixed),
            "monotonicity": lambda: entropy_monotonicity_check(half, mixed, mixed),
            "petz": lambda: check_petz_equality(half, mixed, mixed),
            "map outer": lambda: map_entropy_preservation_report(reset, ident),
            "map inner": lambda: map_entropy_preservation_report(ident, half),
            "fixed-point space": lambda: fixed_point_space(reset),
            "petz recovery": lambda: petz_recovery(half, mixed),
            "map entropy": lambda: map_entropy(half),
            "map composed": lambda: map_entropy_preservation_report(scaled, scaled),
        }
        with pytest.raises(error) as info:
            calls[site]()
        assert type(info.value) is error
        assert str(info.value) == message
