"""The four benchmark workloads: seeded instances, one op per instance, and
the check each op's output must pass.

Every call the benchmark makes into a qentropy module goes through
``t.call("<module>.<function>", fn, *args)``, where ``t`` is the run's tracer
(a no-op when tracing is off).  Those names are the per-layer metric names.

Instance sizes are part of each workload's definition; they are never scaled
with ``--seconds`` (a shorter run does fewer passes over the same mix).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qentropy import choi, classical, cli, entropy_analysis, generators
from qentropy import serialization as ser
from qentropy.errors import StructureMismatchError
from qentropy.states import von_neumann_entropy
from qentropy.tolerances import DEFAULT_TOL

# decompose_fixed_point_algebra draws its generic elements from this seed; it
# is a fixed input of the op, not derived from the workload seed.
DECOMPOSE_SEED = 0


class CheckFailed(Exception):
    """An op returned an output that contradicts how its instance was built."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop request: ``run(t)`` performs it and checks its output."""

    label: str
    run: Callable
    info: dict  # per-instance record: N, d (fixed-space dim or None), kraus count
    budget_s: float


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    # in-process replay of the serialization and cli.main layers (cli only)
    replay: Callable | None = None


class Seeds:
    """Non-negative child seeds drawn in a fixed order from the workload seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def __call__(self) -> int:
        return int(self._rng.integers(0, 2**31 - 1))


def _spec_dims(spec: str) -> tuple[list[tuple[int, int]], int, int]:
    blocks = [tuple(int(x) for x in piece.split("x")) for piece in spec.split(",")]
    return blocks, sum(dl * dr for dl, dr in blocks), sum(dl * dl for dl, _ in blocks)


def _synthesize(t, spec: str, seed: int):
    blocks, n, d = _spec_dims(spec)
    phi, rho, structure = t.call(
        "entropy_analysis.synthesize_pair",
        entropy_analysis.synthesize_pair,
        entropy_analysis.parse_block_spec(spec),
        seed,
    )
    return phi, rho, structure, blocks, n, d


def _smallest(ops: list[Op]) -> Op:
    return min(ops, key=lambda op: (op.info["N"], op.info["d"] or 0))


# ---------------------------------------------------------------------------
# structure: fixed_point_space -> decompose -> block_form_residual
# ---------------------------------------------------------------------------

# Two specs each at N = 8, 12 and 16 with different fixed-space dimensions
# d = sum dl^2, so the (d N^2)^2 center solve separates from the N^6
# eigensolve.
STRUCTURE_SPECS = ("2x2,2x1,1x2", "1x4,2x2", "3x2,2x3", "2x3,1x6", "4x2,2x3,1x2", "2x4,2x4")


def _structure_op(phi, blocks, d):
    expected_dims = sorted(blocks)
    limit = 10.0 * DEFAULT_TOL.fix

    def run(t):
        basis = t.call("entropy_analysis.fixed_point_space", entropy_analysis.fixed_point_space, phi)
        structure = t.call(
            "entropy_analysis.decompose_fixed_point_algebra",
            entropy_analysis.decompose_fixed_point_algebra,
            basis,
            seed=DECOMPOSE_SEED,
        )
        residual = t.call(
            "entropy_analysis.block_form_residual",
            entropy_analysis.block_form_residual,
            basis,
            structure,
        )
        check(len(basis.basis) == d, f"fixed-space dim {len(basis.basis)} != {d}")
        got = sorted(structure.block_dims)
        check(got == expected_dims, f"block dims {got} != {expected_dims}")
        check(residual <= limit, f"block-form residual {residual:.3e} > {limit:.1e}")

    return run


def setup_structure(seed: int, t, workdir: Path) -> Workload:
    seeds = Seeds(seed)
    ops = []
    for spec in STRUCTURE_SPECS:
        phi, _, _, blocks, n, d = _synthesize(t, spec, seeds())
        ops.append(
            Op(
                label=f"decompose {spec}",
                run=_structure_op(phi, blocks, d),
                info={"spec": spec, "N": n, "d": d, "kraus": len(phi.kraus)},
                budget_s=60.0,
            )
        )
    return Workload(ops=ops, warmup=_smallest(ops))


# ---------------------------------------------------------------------------
# certify: entropy_preservation_report -> fixed_point_space -> verify
# ---------------------------------------------------------------------------

CERTIFY_SPECS = ("4x3,3x4", "2x5,3x2,1x8", "4x4,4x4", "3x4,2x5,2x5")


def _certify_op(phi, rho, claimed, d, accept: bool):
    def run(t):
        report = t.call(
            "entropy_analysis.entropy_preservation_report",
            entropy_analysis.entropy_preservation_report,
            phi,
            rho,
        )
        basis = t.call("entropy_analysis.fixed_point_space", entropy_analysis.fixed_point_space, phi)
        check(report.agreement, "preservation report verdicts disagree")
        check(report.entropy_preserved == accept, f"entropy_preserved is {report.entropy_preserved}")
        check(report.fixed_point == accept, f"fixed_point is {report.fixed_point}")
        check(len(basis.basis) == d, f"fixed-space dim {len(basis.basis)} != {d}")
        try:
            verification = t.call(
                "entropy_analysis.verify_block_structure",
                entropy_analysis.verify_block_structure,
                claimed,
                phi,
                rho,
            )
        except StructureMismatchError:
            check(not accept, "the structure the pair was built from was rejected")
            return
        check(accept, "a mismatched claim was accepted")
        check(verification.block_dims == claimed.block_dims, "verified block dims differ")

    return run


def setup_certify(seed: int, t, workdir: Path) -> Workload:
    seeds = Seeds(seed)
    ops = []
    for spec in CERTIFY_SPECS:
        phi, rho, claimed, _, n, d = _synthesize(t, spec, seeds())
        other = t.call("generators.random_density", generators.random_density, n, n, seeds())
        info = {"spec": spec, "N": n, "d": d, "kraus": len(phi.kraus)}
        ops.append(Op(f"certify {spec} own state", _certify_op(phi, rho, claimed, d, True), info, 60.0))
        ops.append(
            Op(f"certify {spec} random state", _certify_op(phi, other, claimed, d, False), info, 60.0)
        )
    return Workload(ops=ops, warmup=_smallest(ops))


# ---------------------------------------------------------------------------
# verdicts: the four two-verdict reports, preserving and generic, N in {4, 8, 12}
# ---------------------------------------------------------------------------

VERDICT_SPECS = {4: "2x1,1x2", 8: "2x2,2x1,1x2", 12: "3x2,2x3"}
GENERIC_TERMS = 3


def _report_op(layer: str, args: tuple, verdicts: tuple[str, str], preserved: bool):
    module, name = layer.split(".")
    fn = getattr({"entropy_analysis": entropy_analysis, "classical": classical}[module], name)

    def run(t):
        report = t.call(layer, fn, *args).as_dict()
        check(report["agreement"], f"{verdicts} disagree")
        for key in verdicts:
            check(report[key] == preserved, f"{key} is {report[key]}, expected {preserved}")

    return run


def _gram_map_entropy(phi) -> float:
    """Map entropy from the Kraus Gram matrix tr(M_i^dag M_j)/N, an independent
    route to the spectrum of J(phi)/N."""
    k = np.stack([m.ravel() for m in phi.kraus])
    vals = np.linalg.eigvalsh(k.conj() @ k.T / phi.dim)
    pos = vals[vals > 1e-15]
    return float(-(pos * np.log2(pos)).sum())


def _map_entropy_op(phi):
    expected = _gram_map_entropy(phi)

    def run(t):
        value = t.call("choi.map_entropy", choi.map_entropy, phi)
        check(abs(value - expected) <= 1e-8, f"map entropy {value!r} != Gram value {expected!r}")

    return run


def setup_verdicts(seed: int, t, workdir: Path) -> Workload:
    seeds = Seeds(seed)

    def gen(name, *args):
        return t.call(f"generators.{name}", getattr(generators, name), *args)

    ops = []
    for n, spec in VERDICT_SPECS.items():
        inner = gen("random_stochastic_channel", n, 2, seeds())
        for preserved in (True, False):
            if preserved:
                # preserving by construction: a synthesized pair, a single
                # unitary outer channel, a permutation matrix
                phi, state = _synthesize(t, spec, seeds())[:2]
                terms = 1
            else:
                phi = gen("random_bistochastic_channel", n, GENERIC_TERMS, seeds())
                state = gen("random_density", n, n, seeds())
                terms = GENERIC_TERMS
            outer = gen("random_bistochastic_channel", n, terms, seeds())
            matrix = gen("random_bistochastic_matrix", n, terms, seeds())
            rho, sigma = gen("random_density", n, n, seeds()), gen("random_density", n, n, seeds())
            p = gen("random_probability_vector", n, seeds())
            kind = "preserving" if preserved else "generic"
            reports = (
                ("entropy_analysis.entropy_preservation_report", (phi, state),
                 ("entropy_preserved", "fixed_point"), len(phi.kraus)),
                ("entropy_analysis.map_entropy_preservation_report", (outer, inner),
                 ("entropy_preserved", "composition_fixed"), len(outer.kraus)),
                ("entropy_analysis.check_petz_equality", (outer, rho, sigma),
                 ("equality", "recovery"), len(outer.kraus)),
                ("classical.corollary_check", (matrix, p),
                 ("entropy_preserved", "fixed_point"), None),
            )
            for layer, args, verdicts, kraus in reports:
                ops.append(Op(f"{layer.split('.')[1]} N={n} {kind}",
                              _report_op(layer, args, verdicts, preserved),
                              {"N": n, "d": None, "kraus": kraus}, 5.0))
            ops.append(Op(f"map_entropy N={n} {kind}", _map_entropy_op(outer),
                          {"N": n, "d": None, "kraus": len(outer.kraus)}, 5.0))
    return Workload(ops=ops, warmup=_smallest(ops))


# ---------------------------------------------------------------------------
# cli: one fresh `python -m qentropy.cli <command>` process per op
# ---------------------------------------------------------------------------

CLI_N = 8
CLI_DECOMPOSE_SPEC = "2x2,2x1,1x2"
CLI_SYNTH_SPEC = "3x2,2x3"
CLI_BATCH_RECORDS = 1000


def child_env(src: Path) -> dict:
    """Environment of every child: the checkout's sources first, default
    tolerances (no TOL_* overrides), BLAS already pinned by the parent."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOL_")}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


def _one_json_object(stdout: str) -> dict:
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not exactly one JSON object: {exc}") from exc
    check(isinstance(obj, dict), "stdout JSON is not an object")
    return obj


def _write_batch_csv(path: Path, t, seeds: Seeds) -> int:
    """1000 (B, p) records at N=8, alternating permutations (preserving) and
    three-permutation mixtures (generic); returns the preserving count."""
    lines = []
    preserving = 0
    for i in range(CLI_BATCH_RECORDS):
        perms = 1 if i % 2 == 0 else GENERIC_TERMS
        preserving += perms == 1
        b = t.call(
            "generators.random_bistochastic_matrix",
            generators.random_bistochastic_matrix,
            CLI_N,
            perms,
            seeds(),
        )
        p = t.call(
            "generators.random_probability_vector", generators.random_probability_vector, CLI_N, seeds()
        )
        lines.append(str(CLI_N))
        lines.extend(",".join(repr(float(x)) for x in row) for row in b.matrix)
        lines.append(",".join(repr(float(x)) for x in p.entries))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return preserving


def setup_cli(seed: int, t, workdir: Path) -> Workload:
    seeds = Seeds(seed)
    src = Path(cli.__file__).resolve().parent.parent
    env = child_env(src)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}

    def save(name: str, obj) -> str:
        path = workdir / name
        t.call("serialization.save_json", ser.save_json, path, obj)
        files[name] = path
        return str(path)

    state = t.call("generators.random_density", generators.random_density, CLI_N, CLI_N, seeds())
    pair_phi, pair_rho, _, _, _, _ = _synthesize(t, "2x2,2x1,1x2", seeds())
    dec_phi, _, _, dec_blocks, _, dec_d = _synthesize(t, CLI_DECOMPOSE_SPEC, seeds())
    nonunital = t.call(
        "generators.random_stochastic_channel", generators.random_stochastic_channel, CLI_N, 2, seeds()
    )
    outer = t.call(
        "generators.random_bistochastic_channel",
        generators.random_bistochastic_channel,
        CLI_N,
        GENERIC_TERMS,
        seeds(),
    )
    state_f = save("state.json", ser.state_to_obj(state))
    pair_channel_f = save("pair_channel.json", ser.channel_to_obj(pair_phi))
    pair_state_f = save("pair_state.json", ser.state_to_obj(pair_rho))
    nonunital_f = save("nonunital_channel.json", ser.channel_to_obj(nonunital))
    dec_f = save("decompose_channel.json", ser.channel_to_obj(dec_phi))
    outer_f = save("outer_channel.json", ser.channel_to_obj(outer))
    batch_path = workdir / "batch.csv"
    preserving = _write_batch_csv(batch_path, t, seeds)
    synth_dir = str(workdir / "synth")
    synth_seed, gen_seed = seeds(), seeds()
    expected_entropy = von_neumann_entropy(state)
    synth_blocks = sorted(_spec_dims(CLI_SYNTH_SPEC)[0])

    def analyze_state(r):
        check(r["dim"] == CLI_N and r["rank"] == CLI_N, "analyze-state dim/rank")
        check(abs(r["entropy_bits"] - expected_entropy) <= 1e-9, "analyze-state entropy")

    def pair_ok(r):
        check(r["entropy_preserved"] and r["fixed_point"] and r["agreement"], "analyze-pair verdicts")

    def decompose(r):
        got = sorted((b["dim_left"], b["dim_right"]) for b in r["blocks"])
        check(got == sorted(dec_blocks), f"decompose block dims {got}")
        check(r["fixed_space_dimension"] == dec_d, "decompose fixed-space dimension")
        check(r["block_form_residual"] <= 10.0 * DEFAULT_TOL.fix, "decompose residual")

    def map_single(r):
        check(r["dim"] == CLI_N and r["map_entropy_bits"] > 0.0, "map-entropy value")

    def map_composed(r):
        check(r["agreement"] and not r["entropy_preserved"], "map-entropy composition verdicts")

    def batch(r):
        check(r["instances"] == CLI_BATCH_RECORDS, "classical-check record count")
        check(r["preserved"] == preserving and r["disagreements"] == 0, "classical-check verdicts")

    def synthesize(r):
        check(sorted(tuple(b) for b in r["block_dims"]) == synth_blocks, "synthesize block dims")
        check(r["self_check"]["agreement"] and r["self_check"]["entropy_preserved"], "self check")
        for path in r["files"].values():
            check(Path(path).is_file(), f"synthesize did not write {path}")

    def gen_density(r):
        check(r["object"]["dim"] == CLI_N, "gen density dim")

    mix = [  # (label, command, arguments, expected status, report check)
        ("analyze-state", "analyze-state", [state_f], "ok", analyze_state),
        ("analyze-pair preserving", "analyze-pair", [pair_channel_f, pair_state_f], "ok", pair_ok),
        ("analyze-pair non-unital", "analyze-pair", [nonunital_f, state_f], "error", None),
        ("decompose", "decompose", [dec_f, "--seed", str(DECOMPOSE_SEED)], "ok", decompose),
        ("map-entropy single", "map-entropy", [outer_f], "ok", map_single),
        ("map-entropy composed", "map-entropy", [outer_f, nonunital_f], "violated", map_composed),
        ("classical-check", "classical-check", [str(batch_path)], "ok", batch),
        ("synthesize", "synthesize",
         ["--spec", CLI_SYNTH_SPEC, "--seed", str(synth_seed), "--out-dir", synth_dir], "ok", synthesize),
        ("gen density", "gen", ["density", "--dim", str(CLI_N), "--seed", str(gen_seed)], "ok", gen_density),
    ]
    exit_codes = {"ok": 0, "violated": 1, "error": 2}
    reports: dict[int, dict] = {}

    def cli_op(index, label, command, args, status, check_report):
        argv = ["-m", "qentropy.cli", command, *args]
        budget = 60.0

        def run(t):
            proc = t.call(f"cli.{command}", run_child, argv, env, budget)
            obj = _one_json_object(proc.stdout)
            check(obj.get("status") == status, f"status {obj.get('status')!r} != {status!r}")
            check(proc.returncode == exit_codes[status], f"exit code {proc.returncode}")
            if check_report is not None:
                check_report(obj["report"])
            reports[index] = obj

        return Op(f"cli {label}", run, {"N": CLI_N, "d": None, "kraus": None}, budget)

    ops = [cli_op(i, *entry) for i, entry in enumerate(mix)]

    def replay(t):
        """In-process pass over the same files and the reports the children
        printed: the serialization layer and cli.main without interpreter start."""
        for name in ("state.json", "pair_state.json"):
            t.call("serialization.state_from_obj", ser.state_from_obj,
                   t.call("serialization.load_json", ser.load_json, files[name]))
        for name in ("pair_channel.json", "nonunital_channel.json", "decompose_channel.json", "outer_channel.json"):
            t.call("serialization.channel_from_obj", ser.channel_from_obj,
                   t.call("serialization.load_json", ser.load_json, files[name]))
        t.call("serialization.load_classical_batch", ser.load_classical_batch, batch_path)
        for index, obj in sorted(reports.items()):
            t.call("serialization.dumps", ser.dumps, obj)
            t.call("serialization.save_json", ser.save_json, workdir / f"report_{index}.json", obj)
        for _, command, args, status, _ in mix:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = t.call("cli.main", cli.main, [command, *args])
            check(code == exit_codes[status], f"in-process {command} exit code {code}")
            check(_one_json_object(out.getvalue())["status"] == status, f"in-process {command} status")

    return Workload(ops=ops, warmup=ops[0], replay=replay)


WORKLOADS = {
    "structure": setup_structure,
    "certify": setup_certify,
    "verdicts": setup_verdicts,
    "cli": setup_cli,
}
