"""Golden verdicts: every field of the verdict reports on a seeded grid, as float hex.

``tests/golden/verdicts.json`` records, for N in {2, 3, 4, 8, 12, 16} and k in {1, 3}, every
field of the preservation, Petz, map-entropy and classical-corollary ``EquivalenceReport``, of
``MonotonicityReport`` and of ``relative_entropy``, against a full-rank, a rank-deficient and a
leaking reference state; a case that raises records its exception type and message.  One
non-stochastic composition is recorded too.  Rewrite the file with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_verdicts.py --update

and check it without pytest by leaving out ``--update``.  Floats are compared bit for bit when
numpy (its version and the SIMD targets it dispatches to), its BLAS (the build, and the kernel
set a bundled OpenBLAS picks for the CPU) and ``OPENBLAS_NUM_THREADS=1`` match the recorded ones.
Otherwise each float is compared by ``conftest.golden_agrees``, the one rule of both golden
files: to a relative 1e-12, or within c N^2 eps_mach for the case's N, the rounding of an
eigensolve-based entropy or residual of an N x N state.  Verdicts, ``None`` fields, infinities
and error messages are always compared exactly.
"""

import argparse
import ctypes
import dataclasses
import functools
import glob
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from qentropy import (
    QentropyError,
    check_petz_equality,
    corollary_check,
    entropy_monotonicity_check,
    entropy_preservation_report,
    kraus_channel,
    map_entropy_preservation_report,
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_probability_vector,
    random_stochastic_channel,
    relative_entropy,
    validate_state,
)
from qentropy import states

from conftest import golden_agrees, spy

GOLDEN = Path(__file__).resolve().parent / "golden" / "verdicts.json"
DIMS, KRAUS_COUNTS = (2, 3, 4, 8, 12, 16), (1, 3)


def _blas() -> str:
    """numpy's BLAS build and, for a bundled OpenBLAS, the kernel set it picked for this CPU at run
    time: two kernel sets (say SkylakeX and Zen) may round differently."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy < 1.26 has no dict mode
        return "unknown"
    name = f"{blas['name']} {blas['version']}"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*")):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return f"{name} {corename().decode()}"
    return name


def _simd() -> list[str]:
    """The SIMD targets numpy's own loops (log2, the reductions) dispatch to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        return ["unknown"]
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def _environment() -> dict:
    return {
        "numpy": np.__version__,
        "simd": _simd(),
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    return value  # bool, None or a kind string


def _record(call) -> dict:
    """Every dataclass field of call()'s report (a float for relative_entropy), or its error."""
    try:
        result = call()
    except QentropyError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(result, float):
        return {"value": _encode(result)}
    return {f.name: _encode(getattr(result, f.name)) for f in dataclasses.fields(result)}


@functools.lru_cache(maxsize=None)
def _instances(n: int, k: int) -> dict:
    s = 100 * n + k
    low = random_density(n, max(1, n // 2), s + 4)
    squared = low.matrix @ low.matrix
    return {
        "phi": random_bistochastic_channel(n, k, s),
        "psi": random_stochastic_channel(n, k, s + 1),
        "rho": random_density(n, n, s + 2),
        "full": random_density(n, n, s + 3),  # full-rank reference
        "low": low,  # rank-deficient reference
        "inside": validate_state(squared / np.trace(squared).real),  # supported inside supp(low)
        "mixed": validate_state(np.eye(n) / n),
        "b": random_bistochastic_matrix(n, k, s + 5),
        "p": random_probability_vector(n, s + 6),
    }


def _grid_cases(n: int, k: int) -> dict:
    def case(fn, *names):
        return lambda: fn(*(_instances(n, k)[name] for name in names))

    return {
        "preservation": case(entropy_preservation_report, "phi", "rho"),
        "preservation_low_rank": case(entropy_preservation_report, "phi", "inside"),
        "petz_bistochastic_full": case(check_petz_equality, "phi", "rho", "full"),
        "petz_full": case(check_petz_equality, "psi", "rho", "full"),
        "petz_rank_deficient": case(check_petz_equality, "psi", "inside", "low"),
        "petz_leaking": case(check_petz_equality, "psi", "rho", "low"),
        "monotonicity_full": case(entropy_monotonicity_check, "psi", "rho", "full"),
        "monotonicity_mixed": case(entropy_monotonicity_check, "phi", "rho", "mixed"),
        "monotonicity_rank_deficient": case(entropy_monotonicity_check, "psi", "inside", "low"),
        "monotonicity_leaking": case(entropy_monotonicity_check, "psi", "rho", "low"),
        "relative_entropy_full": case(relative_entropy, "rho", "full"),
        "relative_entropy_rank_deficient": case(relative_entropy, "inside", "low"),
        "relative_entropy_leaking": case(relative_entropy, "rho", "low"),
        "relative_entropy_of_rank_deficient": case(relative_entropy, "low", "full"),
        "map_entropy": case(map_entropy_preservation_report, "phi", "psi"),
        "corollary": case(corollary_check, "b", "p"),
    }


def _non_stochastic_composition():
    # each factor passes with residual 1.27e-8 <= 2 tol.eq, their composition does not
    scaled = kraus_channel([math.sqrt(1.0 + 0.9e-8) * np.eye(2)])
    return map_entropy_preservation_report(scaled, scaled)


def cases() -> dict:
    """Case id -> a call returning the report (or raising), in file order."""
    out = {}
    for n in DIMS:
        for k in KRAUS_COUNTS:
            for name, call in _grid_cases(n, k).items():
                out[f"N={n} k={k} {name}"] = call
    out["map_entropy_non_stochastic_composition"] = _non_stochastic_composition
    return out


def _exact(recorded_env: dict, environment=_environment) -> bool:
    return environment() == recorded_env and recorded_env["OPENBLAS_NUM_THREADS"] == "1"


def _dim(case_id: str) -> int:
    """N of a case: a grid case's id starts with "N=<N> ", the composition is at N = 2."""
    return int(case_id.split()[0][2:]) if case_id.startswith("N=") else 2


def _decode(value):
    try:
        return float.fromhex(value)
    except (TypeError, ValueError):
        return value  # a bool, None, a kind string or an error message


def _mismatches(case_id: str, expected: dict, actual: dict, exact: bool) -> list[str]:
    """The fields of one case that differ."""
    if expected.keys() != actual.keys():
        return [f"fields {sorted(actual)} != recorded {sorted(expected)}"]
    return [f"{name}: {actual[name]} != recorded {want}" for name, want in expected.items()
            if actual[name] != want and (exact or not golden_agrees(
                _decode(actual[name]), _decode(want), _dim(case_id), 1e-12))]


GOLDEN_DATA = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
               else {"environment": {}, "cases": {}})
CASES = cases()


def record_cases() -> dict:
    return {case_id: _record(call) for case_id, call in CASES.items()}


def test_file_covers_the_grid_and_stays_small():
    assert list(GOLDEN_DATA["cases"]) == list(CASES)
    assert GOLDEN.stat().st_size < 100_000


@pytest.mark.parametrize("case_id", list(CASES))
def test_verdict_matches_golden(case_id):
    exact = _exact(GOLDEN_DATA["environment"])
    expected = GOLDEN_DATA["cases"][case_id]
    assert _mismatches(case_id, expected, _record(CASES[case_id]), exact) == []


@pytest.mark.skipif(
    not _exact(GOLDEN_DATA["environment"]), reason="bit for bit only in the recorded environment"
)
def test_one_ulp_in_the_entropy_kernel_fails_the_exact_comparison(monkeypatch):
    # each entropy times 1 + 2^-52 moves by an ulp or two: the exact comparison names both, the
    # tolerant one lets them pass
    case_id = "N=2 k=3 preservation"
    calls = spy(monkeypatch, states, "_entropy_bits", lambda bits, p: bits(p) * (1 + 2**-52))
    expected, actual = GOLDEN_DATA["cases"][case_id], _record(CASES[case_id])
    assert len(calls) == 2
    bad = _mismatches(case_id, expected, actual, exact=True)
    assert [line.split(":")[0] for line in bad] == ["entropy_in", "entropy_out"]
    assert _mismatches(case_id, expected, actual, exact=False) == []


@pytest.mark.parametrize("case_id, field, change", [
    ("N=3 k=3 petz_full", "entropy_in", lambda x: (float.fromhex(x) * (1 + 1e-9)).hex()),
    ("N=3 k=3 petz_full", "fixed_point", lambda verdict: not verdict),
    ("N=3 k=3 petz_leaking", "error", lambda message: message.replace("1.414", "1.415")),
    # 0.0 against 3 eps_mach, within the floor at N = 3
    ("N=3 k=1 petz_bistochastic_full", "entropy_gap", lambda zero: (6.66e-16).hex()),
])
def test_the_tolerant_comparison_reports_only_defects(case_id, field, change):
    expected = GOLDEN_DATA["cases"][case_id]
    actual = {**expected, field: change(expected[field])}
    bad = [line.split(":")[0] for line in _mismatches(case_id, expected, actual, False)]
    assert bad == ([] if field == "entropy_gap" else [field])


def main(argv=None, golden=GOLDEN, run=record_cases, environment=_environment,
         mismatches=_mismatches, counted="mismatched fields") -> int:
    """Compare the cases ``run`` returns with the file ``golden`` and print each mismatch (exit 1 if
    any), or rewrite the file with --update (exit 2 unless OPENBLAS_NUM_THREADS=1);
    test_golden_cli passes its own file, runner, environment, comparison and word for a mismatch."""
    parser = argparse.ArgumentParser(description=f"check the cases of {golden.name}")
    parser.add_argument("--update", action="store_true", help=f"rewrite tests/golden/{golden.name}")
    args = parser.parse_args(argv)
    if args.update and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("set OPENBLAS_NUM_THREADS=1 before recording", file=sys.stderr)
        return 2
    actual = run()
    if args.update:
        golden.parent.mkdir(exist_ok=True)
        data = {"environment": environment(), "cases": actual}
        golden.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {len(actual)} cases to {golden}")
        return 0
    recorded = json.loads(golden.read_text())
    exact, failed = _exact(recorded["environment"], environment), 0
    for case_id, result in actual.items():
        for line in mismatches(case_id, recorded["cases"].get(case_id, {}), result, exact):
            print(f"{case_id}: {line}")
            failed += 1
    print(f"{len(actual)} cases, {failed} {counted}, {'exact' if exact else 'tolerant'} comparison")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
