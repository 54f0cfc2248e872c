"""JSON and CSV interchange formats.

The shared matrix format is ``{"dim": N, "matrix": [[[re, im], ...], ...]}``:
the outer array runs over rows, the inner over columns, and every entry is a
two-element array of finite doubles.  Channels are ``{"dim": N, "kraus":
[<matrix>, ...]}`` where each Kraus entry is the nested row/column array (the
full wrapped object is also accepted).  Block structures are written as
``{"dim": N, "blocks": [{"dim_left", "dim_right", "isometry": <matrix>}, ...]}``.

Classical (B, p) batches come either as CSV records -- a line holding N, then
N comma-separated rows of B, then one row of p, repeated until the end of the
file -- or as JSON: an object ``{"dim": N, "matrix": [[...]], "p": [...]}``
with real entries, or a list of such objects.  Wherever an object declares
``"dim"``, it must be an integer equal to the size its matrix has.

All floats emitted by :func:`dumps` are printed with 17 significant digits so
doubles round-trip exactly.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from .channels import KrausChannel, kraus_channel
from .classical import ProbabilityVector, StochasticMatrix, probability_vector, stochastic_matrix
from .entropy_analysis import BlockStructure
from .errors import ValidationError
from .states import DensityMatrix, as_complex_matrix, validate_state
from .tolerances import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "state_to_obj",
    "state_from_obj",
    "channel_to_obj",
    "channel_from_obj",
    "block_structure_to_obj",
    "load_json",
    "save_json",
    "load_classical_batch",
    "dumps",
]


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits, indented by 2 spaces per level.

    Non-finite floats use the same ``Infinity``/``NaN`` literals the standard
    library emits and accepts.
    """

    def render(node, depth: int) -> str:
        pad = "  " * depth
        inner_pad = "  " * (depth + 1)
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = [
                f'{inner_pad}{json.dumps(str(key))}: {render(value, depth + 1)}'
                for key, value in node.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(node, (list, tuple)):
            if len(node) == 0:
                return "[]"
            rendered = [render(value, depth + 1) for value in node]
            flat = "[" + ", ".join(rendered) + "]"
            if "\n" not in flat and len(flat) <= 100:
                return flat
            return "[\n" + ",\n".join(inner_pad + r for r in rendered) + "\n" + pad + "]"
        if isinstance(node, bool) or node is None or isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return _format_float(float(node))
        raise TypeError(f"cannot serialize value of type {type(node).__name__}")

    return render(obj, 0)


def matrix_to_obj(m: np.ndarray) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in arr]


def matrix_from_obj(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix entries: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(
            f"matrix entries must be [re, im] pairs; got array of shape {arr.shape}"
        )
    return as_complex_matrix(arr[:, :, 0] + 1j * arr[:, :, 1])


def state_to_obj(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": matrix_to_obj(rho.matrix)}


def _shortened(text: str) -> str:
    """text, or its first 20 characters and its length when it is longer than 40."""
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _check_declared_dim(obj: dict, actual: int, what: str) -> None:
    """Reject an optional "dim" field that is not an integer (a bool, a string, null, 2.7, inf,
    nan) or differs from ``actual``; an integral float such as 2.0 is an integer.  The
    messages quote the declared value shortened to at most 40 characters plus its length."""
    declared = obj.get("dim", actual)
    integral = isinstance(declared, (int, np.integer)) and not isinstance(declared, bool)
    if not (integral or isinstance(declared, float) and declared.is_integer()):
        raise ValidationError(f"declared dim {_shortened(repr(declared))} is not an integer")
    if int(declared) != actual:
        raise ValidationError(
            f"declared dim {_shortened(str(declared))} does not match {what} {actual}"
        )


def state_from_obj(obj, tol: ToleranceConfig = DEFAULT_TOL) -> DensityMatrix:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValidationError('expected an object with a "matrix" field')
    matrix = matrix_from_obj(obj["matrix"])
    _check_declared_dim(obj, matrix.shape[0], "matrix rows")
    return validate_state(matrix, tol)


def channel_to_obj(phi: KrausChannel) -> dict:
    return {"dim": phi.dim, "kraus": [matrix_to_obj(m) for m in phi.kraus]}


def channel_from_obj(obj, tol: ToleranceConfig = DEFAULT_TOL) -> KrausChannel:
    if not isinstance(obj, dict) or "kraus" not in obj:
        raise ValidationError('expected an object with a "kraus" field')
    if not isinstance(obj["kraus"], list):
        raise ValidationError('"kraus" must be a list of Kraus operators')
    mats = []
    for number, entry in enumerate(obj["kraus"], 1):
        if isinstance(entry, dict) and "matrix" not in entry:
            raise ValidationError(f'Kraus entry {number}: expected an object with a "matrix" field')
        mats.append(matrix_from_obj(entry["matrix"] if isinstance(entry, dict) else entry))
    phi = kraus_channel(mats, tol)
    _check_declared_dim(obj, phi.dim, "Kraus dimension")
    return phi


def block_structure_to_obj(structure: BlockStructure) -> dict:
    return {
        "dim": structure.dim,
        "blocks": [
            {
                "dim_left": b.dim_left,
                "dim_right": b.dim_right,
                "isometry": matrix_to_obj(b.isometry),
            }
            for b in structure.blocks
        ],
    }


def load_json(path) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))
        handle.write("\n")


def _records(text: str) -> Iterator[tuple[object, int | None]]:
    """The records of a classical batch, each with the CSV line it starts on (None in JSON).  A
    CSV record is parsed only after the one before it has been validated."""
    if text.lstrip().startswith(("{", "[")):
        obj = json.loads(text)
        yield from ((record, None) for record in (obj if isinstance(obj, list) else [obj]))
        return
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    numbers = [i for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    pos = 0
    while pos < len(lines):
        try:
            n = int(lines[pos])
        except ValueError as exc:
            raise ValidationError(f"expected a dimension line, got {lines[pos]!r}") from exc
        if pos + n + 1 >= len(lines):
            raise ValidationError("truncated CSV record")
        rows = [[float(x) for x in line.split(",")] for line in lines[pos + 1 : pos + 1 + n]]
        yield {"matrix": rows, "p": [float(x) for x in lines[pos + 1 + n].split(",")]}, numbers[pos]
        pos += n + 2


def load_classical_batch(
    path, tol: ToleranceConfig = DEFAULT_TOL
) -> list[tuple[StochasticMatrix, ProbabilityVector]]:
    """Load (B, p) records from a CSV or JSON file (format sniffed by content).

    Matrix rows of unequal lengths, and matrices numpy cannot read as one array of floats, are
    refused by record number (from 1) and, in CSV, the line the record starts on.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    batch = []
    for record, line in _records(text):
        if not isinstance(record, dict) or "matrix" not in record or "p" not in record:
            raise ValidationError('each record needs "matrix" and "p" fields')
        rows = record["matrix"]
        where = f"record {len(batch) + 1}" + ("" if line is None else f" (line {line})")
        if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
            lengths = [len(row) for row in rows]
            if len(set(lengths)) > 1:
                raise ValidationError(
                    f"{where}: matrix rows have unequal lengths {_shortened(str(lengths))}"
                )
        try:  # rows mixed with numbers, uneven nesting or entries that are not numbers
            rows = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: matrix is not equal-length rows of numbers") from exc
        matrix = stochastic_matrix(rows, tol)
        _check_declared_dim(record, matrix.dim, "matrix rows")
        batch.append((matrix, probability_vector(record["p"], tol)))
    if not batch:
        raise ValidationError("empty classical batch")
    return batch
