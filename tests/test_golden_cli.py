"""Golden CLI outputs: the CLI contract over the benchmark's ``cli`` mix, error paths and decompose.

The cases run in order through ``cli.main`` in-process, in one temporary directory, with N <= 48
(``test_cli`` runs N = 64 and 96 under the ``deep`` marker); later cases read the files earlier
ones wrote.  ``tests/golden/cli.json`` records for each case
its exit code, the sha256 of its stdout (with the directory written as ``$TMP``), the sha256 of
each file it wrote, and a portable record: the printed object with every float rounded to 10
significant digits and each diagnostic cut to its exception type, leaving out the matrix payloads
(block isometries and the objects ``gen`` prints), which the hashes cover.  Rewrite the file with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_cli.py --update

and check it without pytest by leaving out ``--update``.  Exit codes, the names of the files
written and records are always compared, floats to a relative 1e-9 with an absolute 1e-12 for
values at the rounding floor; hashes and exact records only when the environment of
``test_golden_verdicts`` (numpy, its SIMD targets, its BLAS and ``OPENBLAS_NUM_THREADS=1``) and
the Python version match the recorded ones.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import pytest
from test_golden_verdicts import _environment, _exact
from test_golden_verdicts import main as check_or_update

from qentropy import cli, random_bistochastic_matrix, random_probability_vector

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
REL_TOL, ABS_TOL = 1e-9, 1e-12
_PAYLOADS = ("isometry", "object")  # matrix data, left to the hashes

# synthesize specs and seeds for decompose: 1x2,1x2,2x1 has two blocks of equal dR, which only
# sum dL^2 = d tells apart; 3x2,1x3's first attempt fails its certificate on the cut family (its
# 3x2 block has a nearly unitary right channel, gap ~3e-7) and the next splits the uncut family
_SPECS = (
    ("2x2,1x2", 5), ("4x3,3x4", 3), ("8x4,4x4", 3), ("1x2,1x2,2x1", 3), ("3x2,1x3", 707566911170)
)
# gen bistochastic-channel --seed 3 (name, dim, unitaries); bist24 takes the Lanczos gap
_BIST = (("bist20", 20, 2), ("bist48", 48, 2), ("bist24", 24, 3))

# case id -> argv, "{tmp}" standing for the directory; in run order
CASES = {
    # the benchmark's cli mix at N = 8
    "gen density N=8 out": "gen density --dim 8 --seed 11 --out {tmp}/state8.json",
    "analyze-state N=8": "analyze-state {tmp}/state8.json",
    "synthesize 2x2,2x1,1x2": "synthesize --spec 2x2,2x1,1x2 --seed 12 --out-dir {tmp}/pair8",
    "analyze-pair preserving N=8": "analyze-pair {tmp}/pair8/channel.json {tmp}/pair8/state.json",
    "gen stochastic-channel N=8":
        "gen stochastic-channel --dim 8 --env-dim 2 --seed 13 --out {tmp}/nonunital8.json",
    "analyze-pair non-unital N=8": "analyze-pair {tmp}/nonunital8.json {tmp}/state8.json",
    "synthesize decompose input": "synthesize --spec 2x2,2x1,1x2 --seed 14 --out-dir {tmp}/dec8",
    "decompose 2x2,2x1,1x2": "decompose {tmp}/dec8/channel.json --seed 0",
    "gen bistochastic-channel N=8":
        "gen bistochastic-channel --dim 8 --num-unitaries 3 --seed 15 --out {tmp}/outer8.json",
    "map-entropy single N=8": "map-entropy {tmp}/outer8.json",
    "map-entropy composed N=8": "map-entropy {tmp}/outer8.json {tmp}/nonunital8.json",
    "classical-check csv N=8": "classical-check {tmp}/batch8.csv",
    "synthesize 3x2,2x3": "synthesize --spec 3x2,2x3 --seed 16 --out-dir {tmp}/synth",
    "gen density N=8": "gen density --dim 8 --seed 17",
    # error paths, compositions, classical batches and decompose of synthesized and generic channels
    "gen density N=2": "gen density --dim 2",
    "gen stochastic-channel N=2":
        "gen stochastic-channel --dim 2 --seed 1 --out {tmp}/channel2.json",
    "gen density N=2 out": "gen density --dim 2 --seed 2 --out {tmp}/state2.json",
    "analyze-pair non-unital N=2": "analyze-pair {tmp}/channel2.json {tmp}/state2.json",
    "analyze-state overflowing dim": "analyze-state {tmp}/huge_dim.json",
    "gen density negative seed": "gen density --dim 2 --seed -1",
    "gen stochastic-channel N=3":
        "gen stochastic-channel --dim 3 --env-dim 2 --seed 3 --out {tmp}/psi3.json",
    "map-entropy single N=3": "map-entropy {tmp}/psi3.json",
    "gen unitary channel N=3":
        "gen bistochastic-channel --dim 3 --num-unitaries 1 --seed 4 --out {tmp}/outer3.json",
    "map-entropy composed N=3": "map-entropy {tmp}/outer3.json {tmp}/psi3.json",
    "map-entropy non-stochastic composition": "map-entropy {tmp}/a.json {tmp}/b.json",
    "gen bistochastic-matrix N=3":
        "gen bistochastic-matrix --dim 3 --num-perms 1 --seed 2 --out {tmp}/perm3.json",
    "gen probability N=3": "gen probability --dim 3 --seed 4 --out {tmp}/p3.json",
    "classical-check json N=3": "classical-check {tmp}/batch3.json",
    "classical-check declared dim mismatch": "classical-check {tmp}/bad_dim.json",
    "synthesize 2x1,1x2": "synthesize --spec 2x1,1x2 --seed 7 --out-dir {tmp}/pair21",
    "analyze-pair preserving N=3": "analyze-pair {tmp}/pair21/channel.json {tmp}/pair21/state.json",
    "analyze-state nested": "analyze-state {tmp}/nested.json",
    "analyze-pair no matrix": "analyze-pair {tmp}/no_matrix.json {tmp}/pair21/state.json",
    "gen bistochastic-channel N=48 k=3":
        "gen bistochastic-channel --dim 48 --num-unitaries 3 --out {tmp}/generic48.json",
    "gen density N=48": "gen density --dim 48 --out {tmp}/rho48.json",
    "analyze-pair generic N=48": "analyze-pair {tmp}/generic48.json {tmp}/rho48.json",
    **{f"gen {name}": f"gen bistochastic-channel --dim {n} --num-unitaries {k} --seed 3 "
                      f"--out {{tmp}}/{name}.json" for name, n, k in _BIST},
    **{case: argv for spec, seed in _SPECS for case, argv in (
        (f"synthesize {spec}",
         f"synthesize --spec {spec} --seed {seed} --out-dir {{tmp}}/syn_{spec}"),
        (f"decompose {spec}", f"decompose {{tmp}}/syn_{spec}/channel.json"),
    )},
    **{f"decompose {name}": f"decompose {{tmp}}/{name}.json" for name, _, _ in _BIST},
    "gen dim 0": "gen bistochastic-channel --dim 0",
    "analyze-state string dim": "analyze-state {tmp}/str_dim.json",
    # tolerance flags and a usage error
    "decompose --tol-fix": "--tol-fix 1e-6 --tol-eq 1e-7 decompose {tmp}/syn_2x2,1x2/channel.json",
    "unknown command": "frobnicate",
}


def _write_inputs(tmp: Path) -> None:
    """The hand-written inputs of the error paths and compositions, and the classical batches."""
    s = math.sqrt(1 + 0.9e-8)  # trace preserving within 2 tol.eq; the composition is not
    one_kraus = json.dumps({"dim": 2, "kraus": [[[[s, 0], [0, 0]], [[0, 0], [s, 0]]]]})
    texts = {
        "huge_dim.json": '{"dim": 1e400, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        "str_dim.json": '{"dim": "2", "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        "a.json": one_kraus,
        "b.json": one_kraus,
        "bad_dim.json": '{"dim": 5, "matrix": [[0, 1], [1, 0]], "p": [0.8, 0.2]}',
        "nested.json": "[" * 100000 + "]" * 100000,
        "no_matrix.json": '{"kraus": [{"foo": 1}]}',
        "batch3.json": json.dumps([{
            "dim": 3,
            "matrix": random_bistochastic_matrix(3, 1, 2).matrix.tolist(),
            "p": random_probability_vector(3, 4).entries.tolist(),
        }]),
    }
    lines = []  # 16 records at N=8, alternating permutations and three-permutation mixtures
    for i in range(16):
        b = random_bistochastic_matrix(8, 1 if i % 2 == 0 else 3, 100 + i)
        lines.append("8")
        lines.extend(",".join(repr(float(x)) for x in row) for row in b.matrix)
        p = random_probability_vector(8, 200 + i)
        lines.append(",".join(repr(float(x)) for x in p.entries))
    texts["batch8.csv"] = "\n".join(lines)
    for name, text in texts.items():
        (tmp / name).write_text(text + "\n", encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hashes(tmp: Path) -> dict:
    files = sorted(p for p in tmp.rglob("*") if p.is_file())
    return {p.relative_to(tmp).as_posix(): _sha(p.read_bytes()) for p in files}


def _portable(value):
    """The printed object without its matrix payloads, floats to 10 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _portable(v) for k, v in value.items() if k not in _PAYLOADS}
    if isinstance(value, list):
        return [_portable(v) for v in value]
    return value


def run_cases(tmp: Path) -> dict:
    """Case id -> its exit code, hashes and portable record."""
    _write_inputs(tmp)
    results, before = {}, _file_hashes(tmp)
    for case_id, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv.format(tmp=tmp).split())
        stdout = out.getvalue().replace(str(tmp), "$TMP")
        after = _file_hashes(tmp)
        printed = json.loads(stdout)
        printed["diagnostics"] = [d.split(":")[0] for d in printed["diagnostics"]]
        results[case_id] = {
            "exit": code,
            "stdout": _sha(stdout.encode()),
            "files": {k: v for k, v in after.items() if before.get(k) != v},
            "record": _portable(printed),
        }
        before = after
    return results


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return got == want or (math.isnan(got) and math.isnan(want)) or (
            math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(_close(g, w) for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def _mismatches(expected: dict, actual: dict, exact: bool) -> list[str]:
    fields = ("exit", "stdout", "files", "record") if exact else ("exit",)
    bad = [f"{f}: {actual[f]} != recorded {expected[f]}" for f in fields
           if actual[f] != expected[f]]
    written, recorded = sorted(actual["files"]), sorted(expected["files"])
    if not exact and written != recorded:
        bad.append(f"files written: {written} != recorded {recorded}")
    if not exact and not _close(actual["record"], expected["record"]):
        bad.append(f"record: {actual['record']} != recorded {expected['record']}")
    return bad


def _cli_environment() -> dict:
    """The verdict golden file's environment and the Python version, which words usage errors."""
    return {**_environment(), "python": platform.python_version()}


GOLDEN_DATA = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
               else {"environment": {}, "cases": {}})


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("cli"))


def test_file_covers_the_cases_and_stays_small():
    assert list(GOLDEN_DATA["cases"]) == list(CASES)
    assert GOLDEN.stat().st_size < 200_000


@pytest.mark.parametrize("case_id", list(CASES))
def test_cli_matches_golden(results, case_id):
    exact = _exact(GOLDEN_DATA["environment"], _cli_environment)
    assert _mismatches(GOLDEN_DATA["cases"][case_id], results[case_id], exact) == []


def _run_in_a_temporary_directory() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return run_cases(Path(tmp))


def main(argv=None) -> int:
    return check_or_update(
        argv, GOLDEN, _run_in_a_temporary_directory, _cli_environment, _mismatches, "mismatches"
    )


if __name__ == "__main__":
    sys.exit(main())
