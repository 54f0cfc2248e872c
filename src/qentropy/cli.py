"""Batch command-line front end.

Every command prints one JSON object ``{"status", "report", "diagnostics"}``
and exits 0 when the status is ``ok``, 1 when a checked property is false
(``violated``) and 2 on invalid input, a failed precondition or a size too large
to allocate (``error``).
Reports always embed the tolerance values used.  Tolerances come from the
``--tol-eq/--tol-fix/--tol-psd`` flags, then from the defaults; they judge the
input files and the verdicts, never an object a command built itself.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

import numpy as np

from . import serialization as ser
from .channels import classify
from .choi import map_entropy
from .classical import corollary_check
from .entropy_analysis import (
    block_form_residual,
    entropy_preservation_report,
    fixed_point_space,
    map_entropy_preservation_report,
    parse_block_spec,
    synthesize_pair,
)
from .errors import NotBistochasticError, QentropyError
from .generators import (
    random_bistochastic_channel,
    random_bistochastic_matrix,
    random_density,
    random_probability_vector,
    random_stochastic_channel,
    random_unitary,
)
from .states import state_spectrum, von_neumann_entropy
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = ["main"]

_EXIT_CODES = {"ok": 0, "violated": 1, "error": 2}


class UsageError(Exception):
    """Bad command-line arguments; reported as an ``error`` result with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors keep the one-JSON-object contract.

    The usage line still goes to stderr; ``--help`` still prints and exits 0.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


# ToleranceConfig field -> help word of its --tol-<field> flag
_TOL_FLAGS = {"eq": "equality", "fix": "fixed-point", "psd": "positivity"}


def _resolve_tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(**{field: getattr(args, f"tol_{field}") for field in _TOL_FLAGS})


def _cmd_analyze_state(args, tol: ToleranceConfig) -> dict:
    rho = ser.state_from_obj(ser.load_json(args.state_file), tol)
    spectrum = state_spectrum(rho)
    report = {
        "dim": rho.dim,
        "entropy_bits": von_neumann_entropy(rho),
        "rank": int(np.sum(spectrum.eigenvalues > tol.psd)),
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
    }
    return {"status": "ok", "report": report, "diagnostics": []}


def _cmd_analyze_pair(args, tol: ToleranceConfig) -> dict:
    phi = ser.channel_from_obj(ser.load_json(args.channel_file), tol)
    rho = ser.state_from_obj(ser.load_json(args.state_file), tol)
    try:
        report = entropy_preservation_report(phi, rho, tol).as_dict()
    except NotBistochasticError:
        return {
            "status": "error",
            "report": {"classification": classify(phi, tol).as_dict()},
            "diagnostics": ["NotBistochasticError: the channel is not bi-stochastic"],
        }
    status = "ok" if report["entropy_preserved"] else "violated"
    return {"status": status, "report": report, "diagnostics": []}


def _cmd_decompose(args, tol: ToleranceConfig) -> dict:
    phi = ser.channel_from_obj(ser.load_json(args.channel_file), tol)
    basis = fixed_point_space(phi, tol, seed=args.seed)
    report = ser.block_structure_to_obj(basis.structure)
    report["fixed_space_dimension"] = sum(dl * dl for dl, _ in basis.structure.block_dims)
    report["spectral_gap"] = basis.spectral_gap
    report["block_form_residual"] = block_form_residual(basis, basis.structure)
    return {"status": "ok", "report": report, "diagnostics": []}


def _cmd_map_entropy(args, tol: ToleranceConfig) -> dict:
    phi = ser.channel_from_obj(ser.load_json(args.channel_file), tol)
    if args.channel_file_2 is None:
        report = {"dim": phi.dim, "map_entropy_bits": map_entropy(phi, tol)}
        return {"status": "ok", "report": report, "diagnostics": []}
    psi = ser.channel_from_obj(ser.load_json(args.channel_file_2), tol)
    report = map_entropy_preservation_report(phi, psi, tol).as_dict()
    status = "ok" if report["entropy_preserved"] else "violated"
    return {"status": status, "report": report, "diagnostics": []}


def _cmd_classical_check(args, tol: ToleranceConfig) -> dict:
    batch = ser.load_classical_batch(args.batch_file, tol)
    rows = [corollary_check(b, p, tol).as_dict() for b, p in batch]
    disagreements = sum(not row["agreement"] for row in rows)
    report = {
        "instances": len(rows),
        "preserved": sum(row["entropy_preserved"] for row in rows),
        "disagreements": disagreements,
        "rows": rows,
    }
    status = "violated" if disagreements else "ok"
    diagnostics = (
        [f"{disagreements} instance(s) show verdict disagreement"] if disagreements else []
    )
    return {"status": status, "report": report, "diagnostics": diagnostics}


def _cmd_synthesize(args, tol: ToleranceConfig) -> dict:
    spec = parse_block_spec(args.spec)
    phi, rho, structure = synthesize_pair(spec, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {name: os.path.join(args.out_dir, f"{name}.json")
             for name in ("channel", "state", "structure")}
    ser.save_json(paths["channel"], ser.channel_to_obj(phi))
    ser.save_json(paths["state"], ser.state_to_obj(rho))
    ser.save_json(paths["structure"], ser.block_structure_to_obj(structure))
    self_check = entropy_preservation_report(phi, rho, tol).as_dict()
    report = {
        "dim": phi.dim,
        "block_dims": [list(d) for d in structure.block_dims],
        "files": paths,
        "self_check": self_check,
    }
    status = "ok" if self_check["entropy_preserved"] else "violated"
    return {"status": status, "report": report, "diagnostics": []}


# `gen` kind -> maker of its JSON object from the parsed arguments; the keys are the choices
_GEN_KINDS = {
    "density": lambda a: ser.state_to_obj(
        random_density(a.dim, a.dim if a.rank is None else a.rank, a.seed)
    ),
    "unitary": lambda a: {
        "dim": a.dim, "matrix": ser.matrix_to_obj(random_unitary(a.dim, a.seed))
    },
    "bistochastic-channel": lambda a: ser.channel_to_obj(
        random_bistochastic_channel(a.dim, a.num_unitaries, a.seed)
    ),
    "stochastic-channel": lambda a: ser.channel_to_obj(
        random_stochastic_channel(a.dim, a.env_dim, a.seed)
    ),
    "bistochastic-matrix": lambda a: {
        "dim": a.dim,
        "matrix": random_bistochastic_matrix(a.dim, a.num_perms, a.seed).matrix.tolist(),
    },
    "probability": lambda a: {
        "dim": a.dim, "p": random_probability_vector(a.dim, a.seed).entries.tolist()
    },
}


def _cmd_gen(args, tol: ToleranceConfig) -> dict:
    obj = _GEN_KINDS[args.kind](args)
    if args.out is not None:
        ser.save_json(args.out, obj)
        report = {"kind": args.kind, "seed": args.seed, "file": args.out}
    else:
        report = {"kind": args.kind, "seed": args.seed, "object": obj}
    return {"status": "ok", "report": report, "diagnostics": []}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qentropy",
        description="Decide, certify and construct entropy-preserving quantum operations.",
    )
    for field, word in _TOL_FLAGS.items():
        default = getattr(DEFAULT_TOL, field)
        parser.add_argument(f"--tol-{field}", type=float, default=default, help=f"{word} tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-state", help="entropy, spectrum and support rank of a state")
    p.add_argument("state_file")
    p.set_defaults(handler=_cmd_analyze_state)

    p = sub.add_parser("analyze-pair", help="entropy preservation report for (channel, state)")
    p.add_argument("channel_file")
    p.add_argument("state_file")
    p.set_defaults(handler=_cmd_analyze_pair)

    p = sub.add_parser("decompose", help="block decomposition of a channel's fixed-point algebra")
    p.add_argument("channel_file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("map-entropy", help="map entropy, or its preservation under composition")
    p.add_argument("channel_file")
    p.add_argument("channel_file_2", nargs="?", default=None)
    p.set_defaults(handler=_cmd_map_entropy)

    p = sub.add_parser("classical-check", help="corollary check over a (B, p) batch file")
    p.add_argument("batch_file")
    p.set_defaults(handler=_cmd_classical_check)

    p = sub.add_parser("synthesize", help="synthesize an entropy-preserving pair from a spec")
    p.add_argument("--spec", required=True, help='block list such as "2x1,1x2"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("gen", help="emit random objects in the shared JSON formats")
    p.add_argument("kind", choices=list(_GEN_KINDS))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, default=None, help="density: rank (default full)")
    p.add_argument("--num-unitaries", type=int, default=3)
    p.add_argument("--env-dim", type=int, default=2)
    p.add_argument("--num-perms", type=int, default=3)
    p.add_argument("--out", default=None, help="write the bare object to this file")
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        tol = _resolve_tolerances(args)
        result = args.handler(args, tol)
        result["report"]["tolerances"] = tol.as_dict()
    except (QentropyError, UsageError, OSError, KeyError, ValueError, TypeError,
            RecursionError, MemoryError) as exc:
        # json.JSONDecodeError is a ValueError; json raises RecursionError on too deep nesting,
        # numpy MemoryError on a dimension too large to allocate
        result = {"status": "error", "report": {}, "diagnostics": [f"{type(exc).__name__}: {exc}"]}
    sys.stdout.write(ser.dumps(result))
    sys.stdout.write("\n")
    return _EXIT_CODES[result["status"]]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
