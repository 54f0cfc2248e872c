"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated tolerance on deterministic seeded
instances; the whole suite stays at desk scale (N <= 8) and finishes in well
under a minute.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

from collections import Counter

import numpy as np

from qentropy import (
    BlockSpec,
    DEFAULT_TOL,
    adjoint,
    apply_channel,
    block_form_residual,
    bridge_check,
    channel_distance,
    channel_from_bistochastic,
    channel_from_choi,
    check_petz_equality,
    choi_matrix,
    classify,
    corollary_check,
    decompose_fixed_point_algebra,
    entropy_monotonicity_check,
    entropy_preservation_report,
    fixed_point_space,
    kraus_channel,
    kraus_matrix,
    map_entropy,
    map_entropy_preservation_report,
    probability_vector,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_probability_vector,
    random_stochastic_channel,
    random_unitary,
    shannon_entropy,
    stochastic_matrix,
    synthesize_pair,
    validate_state,
    von_neumann_entropy,
)

from conftest import (
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
)


def announce(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index}/8 [{name}]: {status}{suffix}")


def random_block_spec(rng: np.random.Generator, max_dim: int) -> BlockSpec:
    """Random list of (dL, dR) blocks with total dimension in [2, max_dim]."""
    n = int(rng.integers(2, max_dim + 1))
    blocks = []
    remaining = n
    while remaining > 0:
        size = int(rng.integers(1, remaining + 1))
        divisors = [d for d in range(1, size + 1) if size % d == 0]
        dl = int(rng.choice(divisors))
        blocks.append((dl, size // dl))
        remaining -= size
    return BlockSpec(blocks=tuple(blocks))


def test_entropy_vs_fixed_point_agreement():
    """100 synthesized preserving pairs + 100 random non-preserving pairs:
    the entropy verdict and the fixed-point verdict agree on every report."""
    rng = np.random.default_rng(2024)
    agreements = []
    preserving_gaps = []

    for i in range(100):
        spec = random_block_spec(rng, max_dim=6)
        phi, rho, _ = synthesize_pair(spec, seed=10_000 + i)
        report = entropy_preservation_report(phi, rho)
        agreements.append(report.agreement)
        assert report.entropy_preserved and report.fixed_point
        preserving_gaps.append(abs(report.entropy_out - report.entropy_in))

    produced = 0
    attempt = 0
    while produced < 100:
        n = int(rng.integers(2, 7))
        phi = random_bistochastic_channel(n, 2 + attempt % 2, seed=20_000 + attempt)
        rho = random_density(n, 1 + attempt % n, seed=30_000 + attempt)
        attempt += 1
        residual = np.linalg.norm(
            apply_channel(adjoint(phi), apply_channel(phi, rho.matrix)) - rho.matrix
        )
        if residual <= 10 * DEFAULT_TOL.fix:
            continue  # not a non-preserving instance
        report = entropy_preservation_report(phi, rho)
        agreements.append(report.agreement)
        assert not report.fixed_point
        produced += 1

    ok = all(agreements) and max(preserving_gaps) <= 1e-8
    announce(
        1,
        "entropy vs fixed-point verdict agreement",
        ok,
        f"{len(agreements)} instances, max preserving gap {max(preserving_gaps):.2e}",
    )
    assert all(agreements)
    assert max(preserving_gaps) <= 1e-8


def test_block_structure_round_trip():
    """50 random block specs (N <= 8): decomposing the synthesized channel's
    fixed-point algebra recovers the exact block-dimension multiset and the
    conjugated basis exhibits the block form within 1e-6."""
    rng = np.random.default_rng(777)
    exact = []
    residuals = []
    for i in range(50):
        spec = random_block_spec(rng, max_dim=8)
        phi, _, _ = synthesize_pair(spec, seed=40_000 + i)
        basis = fixed_point_space(phi)
        structure = decompose_fixed_point_algebra(basis, seed=i)
        exact.append(Counter(structure.block_dims) == Counter(spec.blocks))
        residuals.append(block_form_residual(basis, structure))
    ok = all(exact) and max(residuals) <= 1e-6
    announce(
        2,
        "block-structure round trip",
        ok,
        f"50 specs, max form residual {max(residuals):.2e}",
    )
    assert all(exact)
    assert max(residuals) <= 1e-6


def test_relative_entropy_monotonicity():
    """500 stochastic triples: relative entropy never increases; 500
    bistochastic pairs: entropy never decreases (both within 1e-8)."""
    worst_slack = np.inf
    for i in range(500):
        n = 2 + i % 5
        phi = random_stochastic_channel(n, 1 + i % 3, seed=50_000 + i)
        rho = random_density(n, 1 + i % n, seed=60_000 + i)
        sigma = random_density(n, n, seed=70_000 + i)
        report = entropy_monotonicity_check(phi, rho, sigma)
        worst_slack = min(worst_slack, report.slack)

    worst_gain = np.inf
    for i in range(500):
        n = 2 + i % 5
        phi = random_bistochastic_channel(n, 2 + i % 3, seed=80_000 + i)
        rho = random_density(n, 1 + i % n, seed=90_000 + i)
        out = validate_state(apply_channel(phi, rho.matrix))
        worst_gain = min(worst_gain, von_neumann_entropy(out) - von_neumann_entropy(rho))

    ok = worst_slack >= -1e-8 and worst_gain >= -1e-8
    announce(
        3,
        "relative-entropy monotonicity",
        ok,
        f"worst slack {worst_slack:.2e}, worst entropy gain {worst_gain:.2e}",
    )
    assert worst_slack >= -1e-8
    assert worst_gain >= -1e-8


def test_recovery_equality_agreement():
    """200 triples spanning the equality side (unitary channels, identical
    states) and the strict side (contractive channels): the relative-entropy
    equality verdict always agrees with the recovery verdict."""
    agreements = []
    count_equal = count_strict = 0
    for i in range(200):
        n = 2 + i % 4
        rho = random_density(n, n, seed=100_000 + i)
        sigma = random_density(n, n, seed=110_000 + i)
        if i % 4 == 0:
            phi = unitary_channel(random_unitary(n, 120_000 + i))
        elif i % 4 == 1:
            phi = random_stochastic_channel(n, 2, seed=130_000 + i)
            sigma = rho  # equality holds trivially when the states coincide
        else:
            phi = random_stochastic_channel(n, 2 + i % 2, seed=140_000 + i)
        report = check_petz_equality(phi, rho, sigma)
        agreements.append(report.agreement)
        if report.entropy_preserved:
            count_equal += 1
        else:
            count_strict += 1
    ok = all(agreements) and count_equal >= 50 and count_strict >= 50
    announce(
        4,
        "recovery-map equality agreement",
        ok,
        f"200 triples, {count_equal} equality / {count_strict} strict",
    )
    assert all(agreements)
    assert count_equal >= 50 and count_strict >= 50


def test_map_entropy_agreement():
    """100+ composition pairs across unitary/dephasing/depolarizing outer
    channels: map-entropy and superoperator fixed-point verdicts agree; spot
    values for the identity and the fully depolarizing qubit channel."""
    assert abs(map_entropy(identity_channel(2))) <= 1e-10
    assert abs(map_entropy(depolarizing_channel(2)) - 2.0) <= 1e-8

    agreements = []
    preserved_count = 0
    for i in range(102):
        n = 2 + i % 2
        if i % 3 == 0:
            phi = unitary_channel(random_unitary(n, 150_000 + i))
        elif i % 3 == 1:
            phi = dephasing_channel(n)
        else:
            phi = depolarizing_channel(n)
        psi = random_stochastic_channel(n, 1 + i % 3, seed=160_000 + i)
        report = map_entropy_preservation_report(phi, psi)
        agreements.append(report.agreement)
        preserved_count += int(report.entropy_preserved)
    ok = all(agreements)
    announce(
        5,
        "map-entropy agreement",
        ok,
        f"{len(agreements)} pairs, {preserved_count} preserved",
    )
    assert all(agreements)
    assert preserved_count >= 30  # the unitary third preserves


def output_traced(j):
    """Trace out the output (first) tensor factor of a Choi matrix."""
    return np.einsum("aiaj->ij", j.matrix.reshape((j.dim,) * 4))


def test_choi_round_trip():
    """100 random stochastic channels (N <= 5): channel -> Choi -> channel
    preserves the superoperator matrix; trace preservation is equivalent to
    the output partial trace of the Choi matrix being the identity."""
    worst_dist = 0.0
    worst_tp = 0.0
    nontp_detected = []
    for i in range(100):
        n = 2 + i % 4
        phi = random_stochastic_channel(n, 1 + i % 3, seed=170_000 + i)
        back = channel_from_choi(choi_matrix(phi))
        worst_dist = max(worst_dist, channel_distance(phi, back) / (n * n))
        residual = np.linalg.norm(output_traced(choi_matrix(phi)) - np.eye(n)) / n
        worst_tp = max(worst_tp, residual)
        # reverse direction: a deliberately non-TP channel must show a residual
        shrunk = kraus_channel([0.9 * m for m in phi.kraus])
        bad_residual = np.linalg.norm(
            output_traced(choi_matrix(shrunk)) - np.eye(n)
        ) / n
        nontp_detected.append(bad_residual > 1e-8 and not classify(shrunk).stochastic)
    ok = worst_dist <= 1e-8 and worst_tp <= 1e-8 and all(nontp_detected)
    announce(
        6,
        "Choi round trip",
        ok,
        f"max superop distance/N^2 {worst_dist:.2e}, max TP residual/N {worst_tp:.2e}",
    )
    assert worst_dist <= 1e-8
    assert worst_tp <= 1e-8
    assert all(nontp_detected)


def engineered_preserving_instance(rng: np.random.Generator, n: int):
    """B = P (block-averaging) Q with p constant on each block preimage.

    Built so that H(Bp) = H(p) and B^T B p = p hold exactly: averaging a
    block-constant vector is the identity on it, and the block-averaging
    matrix is idempotent and symmetric.
    """
    sizes = []
    remaining = n
    while remaining > 0:
        size = int(rng.integers(1, remaining + 1))
        sizes.append(size)
        remaining -= size
    b0 = np.zeros((n, n))
    offset = 0
    for size in sizes:
        b0[offset : offset + size, offset : offset + size] = np.ones((size, size)) / size
        offset += size
    p_perm = np.zeros((n, n))
    p_perm[rng.permutation(n), np.arange(n)] = 1.0
    q_perm = np.zeros((n, n))
    q_perm[rng.permutation(n), np.arange(n)] = 1.0
    b = p_perm @ b0 @ q_perm
    weights = rng.dirichlet(np.ones(len(sizes)))
    v = np.zeros(n)
    offset = 0
    for w, size in zip(weights, sizes):
        v[offset : offset + size] = w / size
        offset += size
    p = q_perm.T @ v
    return stochastic_matrix(b), probability_vector(p)


def test_classical_corollary():
    """500 (B, p) instances (engineered preserving + generic): the entropy
    condition |H(Bp)-H(p)| <= 1e-9 coincides with ||B^T B p - p|| <= 1e-8;
    B(adjoint) transposes B; the Kraus matrix of the channel built from a
    bistochastic T returns T."""
    rng = np.random.default_rng(4242)
    agreements = []
    preserved_count = 0
    for i in range(500):
        n = 2 + i % 7
        if i % 3 == 0:
            if i % 6 == 0:
                b, p = engineered_preserving_instance(rng, n)
            else:
                perm = np.zeros((n, n))
                perm[rng.permutation(n), np.arange(n)] = 1.0
                b = stochastic_matrix(perm)
                p = random_probability_vector(n, seed=180_000 + i)
        else:
            b = random_bistochastic_matrix(n, 2 + i % 3, seed=190_000 + i)
            p = random_probability_vector(n, seed=200_000 + i)
        report = corollary_check(b, p)
        preserved = report.entropy_gap <= 1e-9
        agreements.append(preserved == (report.fixed_point_residual <= 1e-8))
        preserved_count += int(preserved)

    transpose_worst = 0.0
    for i in range(100):
        n = 2 + i % 4
        phi = random_stochastic_channel(n, 1 + i % 3, seed=210_000 + i)
        lhs = kraus_matrix(adjoint(phi)).matrix
        rhs = kraus_matrix(phi).matrix.T
        transpose_worst = max(transpose_worst, float(np.max(np.abs(lhs - rhs))))

    kraus_worst = 0.0
    for i in range(100):
        n = 2 + i % 7
        t = random_bistochastic_matrix(n, 2 + i % 3, seed=220_000 + i)
        again = kraus_matrix(channel_from_bistochastic(t)).matrix
        kraus_worst = max(kraus_worst, float(np.max(np.abs(again - t.matrix))))

    ok = all(agreements) and transpose_worst <= 1e-9 and kraus_worst <= 1e-9
    announce(
        7,
        "classical corollary",
        ok,
        f"500 instances ({preserved_count} preserving), transpose residual "
        f"{transpose_worst:.2e}, kraus-matrix round trip {kraus_worst:.2e}",
    )
    assert all(agreements)
    assert preserved_count >= 100  # engineered + uniform cases land preserving
    assert transpose_worst <= 1e-9
    assert kraus_worst <= 1e-9


def test_cross_module_consistency():
    """Shannon entropy equals von Neumann entropy on diagonal embeddings, and
    the diagonal of a channel output matches the Kraus-matrix action on 100
    random (channel, diagonal state) pairs."""
    entropy_worst = 0.0
    for i in range(100):
        n = 2 + i % 7
        p = random_probability_vector(n, seed=230_000 + i)
        rho = validate_state(np.diag(p.entries))
        entropy_worst = max(
            entropy_worst, abs(shannon_entropy(p) - von_neumann_entropy(rho))
        )

    bridge_ok = []
    bridge_worst = 0.0
    for i in range(100):
        n = 2 + i % 5
        if i % 2 == 0:
            phi = random_stochastic_channel(n, 1 + i % 3, seed=240_000 + i)
        else:
            phi = random_bistochastic_channel(n, 2 + i % 2, seed=250_000 + i)
        p = random_probability_vector(n, seed=260_000 + i)
        rho = validate_state(np.diag(p.entries))
        report = bridge_check(phi, rho)
        bridge_ok.append(report.passed)
        bridge_worst = max(bridge_worst, report.residual)

    ok = entropy_worst <= 1e-10 and all(bridge_ok)
    announce(
        8,
        "cross-module consistency",
        ok,
        f"entropy gap {entropy_worst:.2e}, bridge residual {bridge_worst:.2e}",
    )
    assert entropy_worst <= 1e-10
    assert all(bridge_ok)
