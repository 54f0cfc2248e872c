"""The certificate paths of the fixed-point solver and the decomposition, each forced once.

A wrapped kernel hands the first attempt a wrong frame (rotated, split by left index, merged or
with every eigenspace group linked); the retry with the next seed must then return the right
block dims, and a frame that is wrong on every attempt must raise AmbiguousGroupingError naming
the reason after the fourth failure.  Also here: a certificate that fails because the canonical cut
dropped what holds a block together, retried once on the uncut family; a dependent basis; and a
block of the state with no weight in verify_block_structure.
"""

from math import inf

import numpy as np
import pytest

from qentropy import (
    AmbiguousGroupingError,
    Block,
    BlockStructure,
    FixedPointBasis,
    NotAnAlgebraError,
    decompose_fixed_point_algebra,
    entropy_analysis,
    fixed_point_space,
    kraus_channel,
    parse_block_spec,
    random_unitary,
    synthesize_pair,
    validate_state,
    verify_block_structure,
)

from conftest import eps_mixture, spy

SPEC = "2x2,1x3"  # dR 2 and 3 differ, and dL = 2 links two groups within a block


def _pair(spec=SPEC):
    return synthesize_pair(parse_block_spec(spec), seed=1)[0]


def _dims(structure):
    return sorted(structure.block_dims)


def _rotated(classes):
    """The classes with their columns moved by one Haar unitary: no longer blocks of phi."""
    n = classes[0].shape[0]
    u = np.asarray(random_unitary(n, 99))
    return [(u @ c.reshape(n, -1)).reshape(c.shape) for c in classes]


def _split_by_left(classes):
    """Each (N, dL, dR) class cut into dL classes of one left index: fixed, but too few."""
    return [c[:, [left]] for c in classes for left in range(c.shape[1])]


def _merged(classes):
    """Classes of equal dL joined into one: fixed, but too few."""
    by_left = {}
    for c in classes:
        by_left.setdefault(c.shape[1], []).append(c)
    return [np.concatenate(group, axis=2) for group in by_left.values()]


FIXED_POINT_FRAMES = {
    "rotated": (_rotated, r"a fixed-space direction is not fixed \(span residual \S+ > tol\.fix"),
    "split by left index": (_split_by_left, "a fixed direction lies outside the commutant"),
    "merged": (_merged, "a fixed direction lies outside the commutant"),
}


@pytest.mark.parametrize("frame", FIXED_POINT_FRAMES)
def test_fixed_point_space_retries_a_frame_that_fails_its_certificate(frame, monkeypatch):
    spec = "2x2,2x1" if frame == "merged" else SPEC  # merging needs two blocks of equal dL
    wrong, _ = FIXED_POINT_FRAMES[frame]
    phi = _pair(spec)
    calls = spy(monkeypatch, entropy_analysis, "_split", lambda real, *a: wrong(real(*a)), 1)
    f = fixed_point_space(phi)
    assert len(calls) == 2
    assert _dims(f.structure) == sorted(parse_block_spec(spec).blocks)
    assert len(f.basis) == sum(dl * dl for dl, _ in parse_block_spec(spec).blocks)


@pytest.mark.parametrize("frame", FIXED_POINT_FRAMES)
def test_fixed_point_space_gives_up_after_four_failed_certificates(frame, monkeypatch):
    spec = "2x2,2x1" if frame == "merged" else SPEC
    wrong, reason = FIXED_POINT_FRAMES[frame]
    phi = _pair(spec)
    calls = spy(monkeypatch, entropy_analysis, "_split", lambda real, *a: wrong(real(*a)), 4)
    with pytest.raises(AmbiguousGroupingError, match=f"^{reason} .* after 3 retries$"):
        fixed_point_space(phi)
    assert len(calls) == 4


def test_a_failed_certificate_retries_on_the_uncut_family(monkeypatch):
    # the 3x2 block's nearly unitary right channel rides on two canonical operators of total
    # weight 8.9e-7 <= N tol.fix, which the cut drops: the first attempt splits the block by left
    # index and fails its certificate (residual 2.1e-7), the next splits the whole family
    phi = synthesize_pair(parse_block_spec("3x2,1x3"), seed=707566911170)[0]
    calls = spy(monkeypatch, entropy_analysis, "_split")
    f = fixed_point_space(phi)
    families = [len(call.args[0]) for call in calls]
    assert len(families) == 2 and families[0] < families[1]
    assert _dims(f.structure) == [(1, 3), (3, 2)]
    assert len(f.basis) == 10
    assert f.spectral_gap == pytest.approx(2.97e-7, rel=0.01)  # the dense oracle's, 3 tol.fix


def test_the_uncut_family_gets_one_attempt(monkeypatch):
    # the first attempt fails its certificate on the cut family (residual 1.5e-7) and the next on
    # the uncut one, whose light noise operators leave residuals of ~3e-4; the third goes back to
    # the cut family and solves
    phi = eps_mixture("1x1,1x2,1x1", 1e-9, -6294)
    calls = spy(monkeypatch, entropy_analysis, "_split")
    f = fixed_point_space(phi)
    families = [len(call.args[0]) for call in calls]
    assert len(families) == 3 and families[0] == families[2] < families[1]
    assert _dims(f.structure) == [(1, 1), (1, 1), (1, 2)]


def _all_linked(real, vecs, bounds, linked, connector):
    return real(vecs, bounds, np.ones_like(linked), connector)


def _zero_connector(real, vecs, bounds, linked, connector):
    return real(vecs, bounds, linked, np.zeros_like(connector))


ALIGNMENT_FAULTS = {
    # the dR = 2 and dR = 3 groups linked to each other
    "unequal groups": (_all_linked, "linked eigenspaces differ in dimension"),
    # the two left-index groups of the 2x2 block joined by a zero connector
    "singular connector": (_zero_connector, "connecting element is numerically singular"),
}


@pytest.mark.parametrize("fault", ALIGNMENT_FAULTS)
def test_aligned_blocks_retries_then_gives_up(fault, monkeypatch):
    change, reason = ALIGNMENT_FAULTS[fault]
    phi = _pair()
    calls = spy(monkeypatch, entropy_analysis, "_aligned_blocks", change, 1)
    assert _dims(fixed_point_space(phi).structure) == [(1, 3), (2, 2)]
    assert len(calls) == 2
    spy(monkeypatch, entropy_analysis, "_aligned_blocks", change, 4)
    with pytest.raises(AmbiguousGroupingError, match=f"^{reason} after 3 retries$"):
        fixed_point_space(phi)


def test_decompose_retries_a_frame_that_misses_the_block_form(monkeypatch):
    f = fixed_point_space(_pair())
    rotated = lambda real, *a: _rotated(real(*a))
    calls = spy(monkeypatch, entropy_analysis, "_split", rotated, 1)
    assert _dims(decompose_fixed_point_algebra(f)) == [(1, 3), (2, 2)]
    assert len(calls) == 2
    calls = spy(monkeypatch, entropy_analysis, "_split", rotated, 4)
    reason = "conjugated basis misses the block form"
    with pytest.raises(AmbiguousGroupingError, match=f"^{reason} after 3 retries$"):
        decompose_fixed_point_algebra(f)
    assert len(calls) == 4


def test_decompose_refuses_a_dependent_basis():
    eye = np.eye(2, dtype=complex)
    f = FixedPointBasis(2, np.stack([eye, eye]), 0.0, inf)
    with pytest.raises(NotAnAlgebraError, match="^basis elements are not linearly independent$"):
        decompose_fixed_point_algebra(f)


def test_a_block_without_weight_keeps_the_maximally_mixed_left_state():
    # 1x2 on e0, e1 and 2x1 on e2, e3; the state lives on the first block only
    eye = np.eye(4)
    structure = BlockStructure(4, (Block(eye[:, :2], 1, 2), Block(eye[:, 2:], 2, 1)))
    rho = validate_state(np.diag([0.5, 0.5, 0.0, 0.0]))
    result = verify_block_structure(structure, kraus_channel([eye]), rho)
    assert result.weights == (1.0, 0.0)
    assert np.array_equal(result.left_states[1], np.eye(2) / 2)
    assert np.array_equal(result.left_states[0], np.eye(1))
