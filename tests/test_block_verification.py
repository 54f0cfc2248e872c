"""verify_block_structure against a matrix-unit loop oracle, and its mismatch raises.

The oracle applies the channel to embedded product matrix units block by
block: (unit (x) I) for the left Choi matrix, (I (x) unit) for the right
images, and every (unit (x) unit) for the product form.  The library reads
the same residuals off the conjugated Kraus operators.  Verdicts must agree
on exact synthesized pairs and on perturbations far from the threshold; in
the threshold decade the two residual definitions may cut differently.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qentropy import (
    Block,
    BlockStructure,
    DimensionMismatchError,
    StructureMismatchError,
    DEFAULT_TOL,
    apply_channel,
    kraus_channel,
    parse_block_spec,
    random_bistochastic_channel,
    synthesize_pair,
    validate_state,
    verify_block_structure,
)

from conftest import (
    SIGMA_X,
    amplitude_damping_channel,
    dephasing_channel,
    maximally_mixed,
    partial_trace_right,
    phase_invariant_unitary_distance,
    superoperator_matrix,
)

SPECS = [
    "2x2",
    "2x1,1x2",
    "3x1,1x3",
    "1x1,1x1,2x2",
    "2x2,2x1,1x2",
    "1x4,2x2",
    "3x2,2x3",
    "2x3,1x1",
]


def _unit(n, row, col):
    out = np.zeros((n, n), dtype=complex)
    out[row, col] = 1.0
    return out


def oracle_verify(structure, phi, rho, tol):
    """Matrix-unit loop: dl^2 dr^2 + dl^2 + dr^2 channel applications per block.

    Returns the extracted (weights, left states, left unitaries) or raises
    StructureMismatchError.  The structural pre-checks are the library's, so
    the oracle starts from the state checks.
    """
    n = structure.dim
    isos = [b.isometry for b in structure.blocks]
    for j in range(len(isos)):
        for k in range(len(isos)):
            cross = isos[j].conj().T @ rho.matrix @ isos[k]
            if j != k and float(np.linalg.norm(cross)) > tol.eq:
                raise StructureMismatchError("state couples distinct blocks")
    weights, left_states, fact_res = [], [], 0.0
    for block, v in zip(structure.blocks, isos):
        dl, dr = block.dim_left, block.dim_right
        rho_k = v.conj().T @ rho.matrix @ v
        p_k = float(np.real(np.trace(rho_k)))
        weights.append(p_k)
        if p_k <= tol.psd:
            left_states.append(np.eye(dl) / dl)
            continue
        left = partial_trace_right(rho_k, dl, dr) / p_k
        fact_res = max(fact_res, float(np.linalg.norm(rho_k - p_k * np.kron(left, np.eye(dr) / dr))))
        left_states.append(left)
    if fact_res > tol.eq * n:
        raise StructureMismatchError("a block of the state does not factor")

    inv_res = act_res = right_res = 0.0
    left_unitaries = []
    for block, v in zip(structure.blocks, isos):
        dl, dr = block.dim_left, block.dim_right
        proj = v @ v.conj().T

        def on_block(x):
            big = apply_channel(phi, v @ x @ v.conj().T)
            return v.conj().T @ big @ v, float(np.linalg.norm(big - proj @ big @ proj))

        j_left = np.zeros((dl * dl, dl * dl), dtype=complex)
        for a in range(dl):
            for b in range(dl):
                image, leak = on_block(np.kron(_unit(dl, a, b), np.eye(dr)))
                inv_res = max(inv_res, leak)
                j_left += np.kron(partial_trace_right(image, dl, dr) / dr, _unit(dl, a, b))
        if inv_res > tol.eq * n:
            raise StructureMismatchError("channel maps a block outside itself")
        vals, vecs = np.linalg.eigh((j_left + j_left.conj().T) / 2.0)
        if dl > 1 and float(abs(vals[-2])) > tol.eq * dl:
            raise StructureMismatchError("left action is not a unitary conjugation")
        u_hat = math.sqrt(max(float(vals[-1]), 0.0)) * vecs[:, -1].reshape(dl, dl)
        if float(np.linalg.norm(u_hat.conj().T @ u_hat - np.eye(dl))) > tol.eq * dl:
            raise StructureMismatchError("extracted left factor is not unitary")
        left_unitaries.append(u_hat)

        right_images, tp_res = {}, 0.0
        for c in range(dr):
            for d in range(dr):
                image, leak = on_block(np.kron(np.eye(dl), _unit(dr, c, d)))
                inv_res = max(inv_res, leak)
                right_images[c, d] = np.einsum("aras->rs", image.reshape(dl, dr, dl, dr)) / dl
                tp_res = max(tp_res, abs(complex(np.trace(right_images[c, d])) - (c == d)))
        unital_image = sum(right_images[c, c] for c in range(dr))
        right_res = max(tp_res, float(np.linalg.norm(unital_image - np.eye(dr))), right_res)
        if right_res > tol.eq * n:
            raise StructureMismatchError("extracted right factor is not bi-stochastic")

        for a in range(dl):
            for b in range(dl):
                conj_left = u_hat @ _unit(dl, a, b) @ u_hat.conj().T
                for c in range(dr):
                    for d in range(dr):
                        image, _ = on_block(np.kron(_unit(dl, a, b), _unit(dr, c, d)))
                        expected = np.kron(conj_left, right_images[c, d])
                        act_res = max(act_res, float(np.linalg.norm(image - expected)))
        if act_res > tol.eq * n:
            raise StructureMismatchError("block action differs from unitary (x) channel")
    return weights, left_states, left_unitaries


def _random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def perturb(phi, kind, eps, seed):
    """An eps-perturbation of phi: mixed with a random channel, coherent Kraus
    noise (renormalized to trace preservation) or a left rotation exp(i eps H)."""
    n = phi.dim
    rng = np.random.default_rng(seed)
    kraus = [np.asarray(m) for m in phi.kraus]
    if kind == "mix":
        other = random_bistochastic_channel(n, 2, seed)
        ops = [math.sqrt(1.0 - eps) * m for m in kraus] + [math.sqrt(eps) * m for m in other.kraus]
    elif kind == "coherent":
        noisy = [
            m + eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
            for m in kraus
        ]
        vals, vecs = np.linalg.eigh(sum(m.conj().T @ m for m in noisy))
        ops = [m @ (vecs / np.sqrt(vals)) @ vecs.conj().T for m in noisy]
    else:
        vals, vecs = np.linalg.eigh(_random_hermitian(n, rng))
        rotation = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
        ops = [rotation @ m for m in kraus]
    return kraus_channel(ops)


def _accepts(check, *args):
    try:
        check(*args)
    except StructureMismatchError:
        return False
    return True


class TestOracleAgreement:
    @pytest.mark.parametrize("spec", SPECS)
    def test_exact_pairs_match_the_oracle(self, spec, tol):
        phi, rho, structure = synthesize_pair(parse_block_spec(spec), seed=31)
        result = verify_block_structure(structure, phi, rho, tol)
        weights, left_states, left_unitaries = oracle_verify(structure, phi, rho, tol)
        np.testing.assert_allclose(result.weights, weights, rtol=0.0, atol=1e-12)
        for got, want in zip(result.left_states, left_states):
            assert np.abs(got - want).max() <= 1e-12
        for got, want in zip(result.left_unitaries, left_unitaries):
            assert phase_invariant_unitary_distance(got, want) <= 1e-10

    @pytest.mark.parametrize("kind", ["mix", "coherent", "rotation"])
    @pytest.mark.parametrize("spec", SPECS)
    def test_perturbed_verdicts_match_away_from_threshold(self, spec, kind, tol):
        phi, rho, structure = synthesize_pair(parse_block_spec(spec), seed=32)
        for eps, accepted in ((1e-10, True), (1e-9, True), (1e-5, False)):
            noisy = perturb(phi, kind, eps, seed=33)
            oracle = _accepts(oracle_verify, structure, noisy, rho, tol)
            assert _accepts(verify_block_structure, structure, noisy, rho, tol) == oracle == accepted


@pytest.mark.parametrize("spec", ["2x2", "2x1,1x2", "1x3,2x1", "2x3"])
def test_gram_residuals_equal_dense_superoperator_norms(spec):
    """invariance_residual and action_residual against the dense superoperator differences
    they stand for, on a 1e-3 mixture verified with a loose tolerance so nothing raises."""
    phi, rho, structure = synthesize_pair(parse_block_spec(spec), seed=34)
    noisy = perturb(phi, "mix", 1e-3, seed=35)
    result = verify_block_structure(structure, noisy, rho, DEFAULT_TOL.replace(eq=0.5))
    v = np.hstack([b.isometry for b in structure.blocks])
    kraus = [v.conj().T @ m @ v for m in noisy.kraus]
    inv = act = 0.0
    start = 0
    for (dl, dr), u in zip(structure.block_dims, result.left_unitaries):
        inside = np.zeros(len(v), dtype=bool)
        inside[start : start + dl * dr] = True
        start += dl * dr
        columns = [m[:, inside] for m in kraus]
        kept = [np.where(inside[:, None], m, 0.0) for m in columns]
        inv = max(inv, np.linalg.norm(superoperator_matrix(columns) - superoperator_matrix(kept)))
        blocks = [m[inside] for m in kept]
        right = [np.einsum("ab,arbs->rs", u.conj(), k.reshape(dl, dr, dl, dr)) / dl for k in blocks]
        fitted = superoperator_matrix([np.kron(u, n) for n in right])
        act = max(act, np.linalg.norm(superoperator_matrix(blocks) - fitted))
    assert result.invariance_residual == pytest.approx(inv, rel=1e-9)
    assert result.action_residual == pytest.approx(act, rel=1e-9)
    assert result.action_residual > 1e-5


def _single_block(n, dl, dr):
    return BlockStructure(dim=n, blocks=(Block(np.eye(n, dtype=complex), dl, dr),))


def _controlled_rotation(delta):
    """|0><0| (x) I + |1><1| (x) exp(i delta X): product up to O(delta), with
    left and right marginals off only at O(delta^2)."""
    rotation = math.cos(delta) * np.eye(2) + 1j * math.sin(delta) * SIGMA_X
    return np.kron(np.diag([1.0, 0.0]), np.eye(2)) + np.kron(np.diag([0.0, 1.0]), rotation)


def _mismatch_cases():
    e0, e1 = np.eye(2, dtype=complex)[:, :1], np.eye(2, dtype=complex)[:, 1:]
    diagonal = BlockStructure(dim=2, blocks=(Block(e0, 1, 1), Block(e1, 1, 1)))
    mixed2, mixed4 = maximally_mixed(2), maximally_mixed(4)
    identity2 = kraus_channel([np.eye(2)])
    return {
        "block dimensions do not add up": (
            BlockStructure(dim=2, blocks=(Block(e0, 1, 1),)), identity2, mixed2
        ),
        "isometry 0 columns are not orthonormal": (
            BlockStructure(dim=2, blocks=(Block(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, 1),)),
            identity2,
            mixed2,
        ),
        "block 1 is 0x3; both dims must be positive": (
            BlockStructure(dim=2, blocks=(Block(np.eye(2), 1, 2), Block(np.zeros((2, 0)), 0, 3))),
            identity2,
            mixed2,
        ),
        "isometry 0 has shape": (
            BlockStructure(
                dim=3, blocks=(Block(np.eye(3)[:, :2], 1, 1), Block(np.eye(3)[:, 2:], 2, 1))
            ),
            kraus_channel([np.eye(3)]),
            maximally_mixed(3),
        ),
        "blocks 0 and 1 have overlapping ranges": (
            BlockStructure(dim=2, blocks=(Block(e0, 1, 1), Block((e0 + e1) / math.sqrt(2), 1, 1))),
            identity2,
            mixed2,
        ),
        "state couples distinct blocks": (
            diagonal, dephasing_channel(2), validate_state(np.array([[0.5, 0.4], [0.4, 0.5]]))
        ),
        "does not factor as left": (
            _single_block(2, 1, 2), identity2, validate_state(np.diag([0.7, 0.3]))
        ),
        "channel maps a block outside itself": (diagonal, kraus_channel([SIGMA_X]), mixed2),
        "extracted left factor is not unitary": (
            _single_block(2, 2, 1), kraus_channel([np.diag([1.0, 0.5])]), mixed2
        ),
        "extracted right factor is not bi-stochastic": (
            _single_block(2, 1, 2), amplitude_damping_channel(0.5), mixed2
        ),
        "block action differs from unitary": (
            _single_block(4, 2, 2), kraus_channel([_controlled_rotation(1e-5)]), mixed4
        ),
    }


class TestMismatchRaises:
    @pytest.mark.parametrize("message", list(_mismatch_cases()))
    def test_each_sub_check_names_itself(self, message, tol):
        structure, phi, rho = _mismatch_cases()[message]
        with pytest.raises(StructureMismatchError, match=message):
            verify_block_structure(structure, phi, rho, tol)

    def test_isometry_faults_are_named_in_order(self):
        # orthonormality by block before any overlap, then the first overlapping pair j < k
        e = np.eye(3, dtype=complex)
        faults = {
            "isometry 1 columns are not orthonormal": (e[:, :1], 2 * e[:, 1:2], 2 * e[:, :1]),
            "blocks 0 and 2 have overlapping ranges": (
                e[:, :1], e[:, 1:2], (e[:, :1] + e[:, 1:2]) / math.sqrt(2)
            ),
        }
        for message, isos in faults.items():
            structure = BlockStructure(dim=3, blocks=tuple(Block(v, 1, 1) for v in isos))
            with pytest.raises(StructureMismatchError, match=f"^{message}$"):
                verify_block_structure(structure, kraus_channel([np.eye(3)]), maximally_mixed(3))

    def test_dimension_mismatch(self):
        phi, rho, structure = synthesize_pair(parse_block_spec("2x1"), seed=1)
        with pytest.raises(DimensionMismatchError):
            verify_block_structure(structure, phi, maximally_mixed(3))


def test_large_block_stays_small():
    """A 7x7 block (N=49): the loop oracle made 2,499 channel applications here."""
    phi, rho, structure = synthesize_pair(parse_block_spec("7x7"), seed=7)
    tracemalloc.start()
    try:
        result = verify_block_structure(structure, phi, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.block_dims == ((7, 7),)
    assert peak < 8 * 2**20
