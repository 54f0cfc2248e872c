"""The verdict reports against dense references, and the work each report does.

The composition residual and ``channel_distance`` are computed from a QR of
the two Kraus stacks; the references below form the N^2 x N^2 superoperators.
A state is diagonalized once, by ``validate_state``, and every report reads the
spectrum it keeps: the counts are taken by spying on ``np.linalg.eigh`` (and
``eigvalsh``) and ``classify``.  The report floats are pinned to the last bit by
``tests/golden/verdicts.json``, so reusing a spectrum cannot move them.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import qentropy.channels
from qentropy import (
    DEFAULT_TOL,
    SupportViolationError,
    ValidationError,
    channel_distance,
    channel_from_bistochastic,
    check_petz_equality,
    classify,
    compose,
    entropy_monotonicity_check,
    entropy_preservation_report,
    kraus_channel,
    map_entropy,
    map_entropy_preservation_report,
    parse_block_spec,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_stochastic_channel,
    random_unitary,
    relative_entropy,
    spectral_decomposition,
    synthesize_pair,
    validate_state,
)
from qentropy.cli import main
from qentropy.serialization import channel_to_obj, save_json, state_to_obj

from conftest import spy, superoperator_matrix


def dense_composition_residual(phi, psi):
    s_phi, s_psi = superoperator_matrix(phi), superoperator_matrix(psi)
    return float(np.linalg.norm(s_phi.conj().T @ s_phi @ s_psi - s_psi))


def replacement_channel(rho):
    """X -> tr(X) rho, with Kraus operators sqrt(p_a) |v_a><j|."""
    spec = spectral_decomposition(rho.matrix)
    n = rho.dim
    ops = []
    for p, v in zip(spec.eigenvalues, spec.eigenvectors.T):
        if p > 1e-14:
            ops.extend(np.sqrt(p) * np.outer(v, np.eye(n)[j]) for j in range(n))
    return kraus_channel(ops)


RANDOM_PAIRS = [(n, k_phi, k_psi) for n in range(2, 9) for k_phi, k_psi in [(1, 4), (3, 2), (4, 3)]]


class TestCompositionResidual:
    @pytest.mark.parametrize("n, k_phi, k_psi", RANDOM_PAIRS)
    def test_matches_dense_residual(self, n, k_phi, k_psi):
        phi = random_bistochastic_channel(n, k_phi, seed=10 * n + k_phi)
        psi = random_stochastic_channel(n, k_psi, seed=10 * n + k_psi + 5)
        report = map_entropy_preservation_report(phi, psi)
        dense = dense_composition_residual(phi, psi)
        assert abs(report.fixed_point_residual - dense) <= 1e-12

    @pytest.mark.parametrize("spec", ["2x1,1x2", "2x2,1x3", "3x1,1x2"])
    def test_exactly_fixed_inner_channel(self, spec):
        # psi replaces every input by a fixed point of adjoint(phi) o phi
        phi, rho, _ = synthesize_pair(parse_block_spec(spec), seed=3)
        psi = replacement_channel(rho)
        report = map_entropy_preservation_report(phi, psi)
        assert report.fixed_point_residual <= 1e-13
        assert dense_composition_residual(phi, psi) <= 1e-13
        assert report.fixed_point and report.agreement

    def test_no_superoperator_sized_allocation(self):
        phi = random_bistochastic_channel(24, 6, seed=1)
        psi = random_stochastic_channel(24, 2, seed=2)
        tracemalloc.start()
        try:
            map_entropy_preservation_report(phi, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 576 x 576 complex superoperator alone is 5.3 MB
        assert peak < 4e6

    def test_high_kraus_rank_outer_channel(self):
        # a dense 8 x 8 bistochastic matrix gives phi 64 Kraus operators, so the
        # family {M_i^dag M_j N_l} has 64^2 * 2 = 8192 members before folding
        phi = channel_from_bistochastic(random_bistochastic_matrix(8, 64, seed=1))
        psi = random_stochastic_channel(8, 2, seed=2)
        assert len(phi.kraus) == 64
        tracemalloc.start()
        try:
            report = map_entropy_preservation_report(phi, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(report.fixed_point_residual - dense_composition_residual(phi, psi)) <= 1e-12
        # the unfolded 8192 x 64 complex stack alone is 8.4 MB
        assert peak < 2e6


class TestComposedMapEntropy:
    @pytest.mark.parametrize("n, k_phi, k_psi", RANDOM_PAIRS)
    def test_matches_the_composed_channel(self, n, k_phi, k_psi):
        phi = random_bistochastic_channel(n, k_phi, seed=10 * n + k_phi)
        psi = random_stochastic_channel(n, k_psi, seed=10 * n + k_psi + 5)
        report = map_entropy_preservation_report(phi, psi)
        assert abs(report.entropy_out - map_entropy(compose(phi, psi))) <= 1e-12

    def test_dense_pair_stays_small(self):
        # 144 Kraus operators each: the 20736 stored products alone take 48 MB
        phi = channel_from_bistochastic(random_bistochastic_matrix(12, 200, seed=1))
        psi = channel_from_bistochastic(random_bistochastic_matrix(12, 200, seed=2))
        assert len(phi.kraus) == len(psi.kraus) == 144
        tracemalloc.start()
        try:
            report = map_entropy_preservation_report(phi, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert 0.0 <= report.entropy_out <= 2 * np.log2(12)


class TestProductStack:
    @pytest.mark.parametrize("k_left, k_right", [(1, 3), (2, 3), (5, 6), (9, 1)])
    def test_keeps_the_choi_matrix_in_at_most_n2_rows(self, k_left, k_right):
        # N = 2: (1, 3) needs no QR, (5, 6) has more right factors than N^2 = 4,
        # (9, 1) more left ones
        rng = np.random.default_rng(k_left + 10 * k_right)
        left, right = (
            rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2)) for k in (k_left, k_right)
        )
        products = (left[:, None] @ right[None]).reshape(-1, 4)
        r = qentropy.channels._product_stack(left, right)
        assert r.shape[0] <= 4
        np.testing.assert_allclose(r.T @ r.conj(), products.T @ products.conj(), atol=1e-12)


class TestChannelDistance:
    @pytest.mark.parametrize(
        "n, k_phi, k_psi", [(2, 3, 2), (2, 1, 1), (3, 2, 4), (5, 3, 3), (7, 4, 2)]
    )
    def test_matches_dense_difference(self, n, k_phi, k_psi):
        # (2, 3, 2) stacks K + k = 5 > N^2 = 4 columns into the QR
        phi = random_stochastic_channel(n, k_phi, seed=n + k_phi)
        psi = random_bistochastic_channel(n, k_psi, seed=n + 7 * k_psi)
        dense = float(np.linalg.norm(superoperator_matrix(phi) - superoperator_matrix(psi)))
        assert abs(channel_distance(phi, psi) - dense) <= 1e-12

    def test_same_channel_from_another_kraus_family(self):
        phi = random_stochastic_channel(3, 2, seed=4)
        a, b = phi.kraus
        rotated = kraus_channel([(a + b) / np.sqrt(2), (a - b) / np.sqrt(2)])
        assert channel_distance(phi, rotated) <= 1e-14


@pytest.fixture
def calls_of(monkeypatch):
    """Count calls of the named functions made inside a callable, through np.linalg's or whichever
    qentropy module's binding of each name the call goes."""

    def run(names, fn, *args):
        owners = [np.linalg, *(m for key, m in sys.modules.items() if key.startswith("qentropy."))]
        calls = {n: [spy(monkeypatch, o, n) for o in owners if n in vars(o)] for n in names}
        fn(*args)
        return tuple(sum(map(len, calls[name])) for name in names)

    return run


def _instance():
    phi = random_stochastic_channel(3, 2, seed=11)
    return phi, random_density(3, 3, seed=12), random_density(3, 3, seed=13)


class TestOneEigendecompositionPerState:
    """rho and sigma arrive validated; only phi(rho) and phi(sigma) are diagonalized."""

    def test_petz(self, calls_of):
        # the recovery map is applied once, so its Gram matrix is never diagonalized
        assert calls_of(["eigh", "classify", "eigvalsh"], check_petz_equality, *_instance()) == (
            2, 1, 0
        )

    def test_monotonicity(self, calls_of):
        assert calls_of(["eigh", "classify"], entropy_monotonicity_check, *_instance()) == (2, 1)

    def test_monotonicity_with_entropies(self, calls_of):
        phi = random_bistochastic_channel(3, 2, seed=14)
        rho = random_density(3, 3, seed=12)
        report = entropy_monotonicity_check(phi, rho, validate_state(np.eye(3) / 3))
        assert report.entropy_gain is not None
        mixed = validate_state(np.eye(3) / 3)
        assert calls_of(["eigh", "classify"], entropy_monotonicity_check, phi, rho, mixed) == (2, 1)

    def test_relative_entropy(self, calls_of):
        _, rho, sigma = _instance()
        assert calls_of(["eigh", "classify"], relative_entropy, rho, sigma) == (0, 0)

    def test_preservation(self, calls_of):
        # S(phi(rho)) reads eigenvalues alone (eigvalsh), S(rho) the kept spectrum
        args = random_bistochastic_channel(3, 2, seed=14), random_density(3, 3, seed=12)
        assert calls_of(["eigh", "classify"], entropy_preservation_report, *args) == (0, 1)

    def test_analyze_state_diagonalizes_once(self, calls_of, tmp_path):
        path = tmp_path / "state.json"
        save_json(path, state_to_obj(random_density(3, 3, seed=12)))

        def analyze():
            assert main(["analyze-state", str(path)]) == 0

        assert calls_of(["eigh", "eigvalsh"], analyze) == (1, 0)


class TestOneGramPerChannel:
    """A channel forms sum M^dag M and its top eigenvalue once, when validated, and the reports
    read the kept numbers: on N=4, k=3 channels only validation and S(phi(rho)) call eigvalsh."""

    @pytest.fixture
    def cli(self, tmp_path, capsys):
        """main([command, *files]) for objects written to files, asserting a verdict exit code."""

        def run(command, *objects):
            paths = [str(tmp_path / f"{i}.json") for i in range(len(objects))]
            for path, obj in zip(paths, objects):
                save_json(path, obj)
            assert main([command, *paths]) in (0, 1)
            capsys.readouterr()

        return run

    def test_analyze_pair(self, calls_of, cli):
        phi = channel_to_obj(random_bistochastic_channel(4, 3, seed=21))
        rho = state_to_obj(random_density(4, 4, seed=22))
        assert calls_of(["eigvalsh"], cli, "analyze-pair", phi, rho) == (2,)

    def test_two_channel_map_entropy(self, calls_of, cli):
        phi = channel_to_obj(random_bistochastic_channel(4, 3, seed=21))
        psi = channel_to_obj(random_stochastic_channel(4, 3, seed=23))
        # the composition's trace check forms sum P^dag P alone, with no eigvalsh
        assert calls_of(["eigvalsh"], cli, "map-entropy", phi, psi) == (2,)

    def test_one_channel_map_entropy(self, calls_of, cli):
        psi = channel_to_obj(random_stochastic_channel(4, 3, seed=23))
        assert calls_of(["eigvalsh"], cli, "map-entropy", psi) == (1,)

    def test_classify_of_a_validated_channel(self, calls_of):
        phi = random_bistochastic_channel(4, 3, seed=21)
        assert calls_of(["eigvalsh"], classify, phi) == (0,)


class TestNoRecoercion:
    """Validated states and stacks go straight to the channel kernel: a report coerces nothing, as
    it builds the outputs phi(rho) and phi(sigma) and does not validate them, and applies phi^dag
    to phi(rho) without an adjoint channel."""

    def test_preservation(self, calls_of):
        phi = random_bistochastic_channel(3, 2, seed=14)
        rho = random_density(3, 3, seed=12)
        calls = calls_of(["adjoint", "as_complex_matrix"], entropy_preservation_report, phi, rho)
        assert calls == (0, 0)

    def test_petz(self, calls_of):
        assert calls_of(["as_complex_matrix"], check_petz_equality, *_instance()) == (0,)

    def test_monotonicity(self, calls_of):
        assert calls_of(["as_complex_matrix"], entropy_monotonicity_check, *_instance()) == (0,)


def _rank_deficient_instance():
    """(phi, rho inside supp(sigma), sigma of rank 2 in N=3)."""
    phi, _, _ = _instance()
    low = random_density(3, 2, seed=15)
    squared = low.matrix @ low.matrix
    return phi, validate_state(squared / np.trace(squared).real), low


class TestSupportFromSpectrum:
    """relative_entropy reads a full-rank sigma's support off its spectrum and forms the support
    projectors only when sigma has an eigenvalue at or below tol.psd."""

    @pytest.mark.parametrize("check", [check_petz_equality, entropy_monotonicity_check])
    def test_full_rank_reference_forms_no_projector(self, calls_of, check):
        assert calls_of(["_support_leak"], check, *_instance()) == (0,)

    @pytest.mark.parametrize("check", [check_petz_equality, entropy_monotonicity_check])
    def test_rank_deficient_reference_still_tests_the_leak(self, calls_of, check):
        # S(rho||sigma) tests the leak; phi(sigma) has full rank, so S after does not
        assert calls_of(["_support_leak"], check, *_rank_deficient_instance()) == (1,)

    def test_map_report_classifies_only_its_two_channels(self, calls_of):
        phi = random_bistochastic_channel(4, 3, seed=21)
        psi = random_stochastic_channel(4, 3, seed=23)
        assert calls_of(["classify"], map_entropy_preservation_report, phi, psi) == (2,)


# tol.psd values at or below the rounding floor of a support projector (~1e-16 to 1e-15)
FLOOR_TOLS = [0.0, 1e-17, 1e-16, 1e-15]
FULL_RANK_PAIRS = [(n, seed) for n in range(2, 12) for seed in range(5)]


class TestTolPsdBelowTheRoundingFloor:
    """A full-rank sigma has full support at any tol.psd below its smallest eigenvalue, so the
    relative entropy is finite and the checks run; the support leak, rounding noise of ~1e-16,
    used to be compared with tol.psd and made every such pair +inf."""

    @pytest.mark.parametrize("psd", FLOOR_TOLS)
    def test_relative_entropy_is_finite(self, psd):
        tol, changed = DEFAULT_TOL.replace(psd=psd), []
        for n, seed in FULL_RANK_PAIRS:
            rho, sigma = random_density(n, n, seed=seed), random_density(n, n, seed=seed + 50)
            if relative_entropy(rho, sigma, tol) != relative_entropy(rho, sigma):
                changed.append((n, seed))
        assert changed == []

    @pytest.mark.parametrize("psd", FLOOR_TOLS)
    def test_checks_accept_full_rank_pairs(self, psd):
        tol = DEFAULT_TOL.replace(psd=psd)
        for n in (2, 5, 11):
            phi = random_stochastic_channel(n, 2, seed=n)
            rho, sigma = random_density(n, n, seed=n + 1), random_density(n, n, seed=n + 2)
            assert check_petz_equality(phi, rho, sigma, tol) == check_petz_equality(phi, rho, sigma)
            monotonicity = entropy_monotonicity_check(phi, rho, sigma, tol)
            assert monotonicity == entropy_monotonicity_check(phi, rho, sigma)


# (check, field of S(rho||sigma), field of S(phi(rho)||phi(sigma))) for each relative-entropy leg
LEGS = [
    (check_petz_equality, "entropy_in", "entropy_out"),
    (entropy_monotonicity_check, "relative_entropy_in", "relative_entropy_out"),
]
LEG_IDS = ["petz", "monotonicity"]


def _to_8_digits(kraus):
    """Kraus entries written to 8 significant digits, as a JSON writer might."""
    digits = np.vectorize(lambda x: float(f"{x:.8g}"))
    return digits(kraus.real) + 1j * digits(kraus.imag)


@pytest.mark.parametrize("check, before, after", LEGS, ids=LEG_IDS)
class TestOutputsAreBuiltNotJudged:
    """phi(rho) and phi(sigma) are built from their spectral decompositions, not validated: a
    channel the caller's tolerance admits gets a report from both legs, and its trace defect
    shows in S after, not as an error about a state the caller never passed."""

    def test_a_trace_defect_within_eq(self, check, before, after):
        u = random_unitary(2, 3)
        rho, sigma = random_density(2, 2, seed=1), random_density(2, 2, seed=2)
        exact = check(kraus_channel([u]), rho, sigma)
        report = check(kraus_channel([math.sqrt(1 + 5e-9) * u]), rho, sigma)
        # S before depends only on (rho, sigma); S after scales with phi's trace, 1 + 5e-9
        assert getattr(report, before) == getattr(exact, before)
        s_before, s_after = getattr(report, before), getattr(report, after)
        assert abs(s_after - (1 + 5e-9) * s_before) <= 1e-14

    def test_a_channel_written_to_8_digits(self, check, before, after):
        rho, sigma = random_density(4, 4, seed=1), random_density(4, 4, seed=2)
        admitted = 0
        for seed in range(40):
            exact = random_bistochastic_channel(4, 3, seed)
            try:
                phi = kraus_channel(_to_8_digits(exact.kraus))
            except ValidationError:
                continue  # rounding up raised sum M^dag M past 1 + tol.eq
            admitted += 1
            report, reference = check(phi, rho, sigma), check(exact, rho, sigma)
            assert getattr(report, before) == getattr(reference, before)
        assert admitted == 16

    @pytest.mark.parametrize("psd", [0.0, 1e-18])
    def test_a_rank_deficient_output_at_psd_near_zero(self, check, before, after, psd):
        # phi(sigma) has rank 2 in N = 4: its null eigenvalues are rounding noise, some below -psd
        tol = DEFAULT_TOL.replace(psd=psd)
        for seed in range(60):
            phi, sigma = random_bistochastic_channel(4, 1, seed), random_density(4, 2, 100 + seed)
            squared = sigma.matrix @ sigma.matrix
            rho = validate_state(squared / np.trace(squared).real)
            try:
                check(phi, rho, sigma, tol)
            except SupportViolationError:
                pass  # at psd ~ 0 rounding decides a rank-deficient support (relative_entropy)
