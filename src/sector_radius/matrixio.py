"""Matrix document I/O and deterministic JSON/CSV formatting.

A matrix document is a JSON object ``{"n": n, "entries": e}`` where ``e``
is an n x n array of ``[re, im]`` pairs.  Reals are printed with 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import SectorRadiusError, UsageError
from .matcore import as_square_matrix


def format_real(x) -> str:
    return f"{float(x):.17g}"


def to_json(value) -> str:
    """Serialize nested dicts/lists/scalars with 17-significant-digit reals.

    A nan or inf (an overflowed result) has no JSON form and raises.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise SectorRadiusError(
                f"result {value} is not finite (the computation overflowed)")
        return format_real(value)
    if isinstance(value, (complex, np.complexfloating)):
        return to_json([value.real, value.imag])
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(to_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return ("{" + ", ".join(f"{json.dumps(str(k))}: {to_json(v)}"
                                for k, v in value.items()) + "}")
    raise TypeError(f"cannot serialize {type(value)!r}")


def matrix_document(t) -> dict:
    t = as_square_matrix(t)
    n = t.shape[0]
    entries = [[[float(t[i, j].real), float(t[i, j].imag)]
                for j in range(n)] for i in range(n)]
    return {"n": n, "entries": entries}


def parse_matrix_document(text: str) -> np.ndarray:
    """Matrix from document JSON text; malformed input raises UsageError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("matrix document must be a JSON object")
    if "n" not in doc or "entries" not in doc:
        raise UsageError('matrix document needs keys "n" and "entries"')
    n = doc["n"]
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise UsageError(f'"n" must be a positive integer, got {n!r}')
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise UsageError(f'"entries" must be a list of {n} rows')
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise UsageError(f"row {i} must be a list of {n} [re, im] pairs")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(type(v) in (int, float) for v in pair)):
                raise UsageError(
                    f"entry ({i}, {j}) must be a [re, im] pair of reals")
            try:
                out[i, j] = complex(float(pair[0]), float(pair[1]))
            except OverflowError as exc:
                raise UsageError(
                    f"entry ({i}, {j}) does not fit in float64") from exc
    if not np.isfinite(out).all():
        raise UsageError("matrix entries must be finite")
    return out


def read_matrix(source: str) -> np.ndarray:
    """Read a matrix document from a path, or from stdin when source is '-'."""
    if source == "-":
        return parse_matrix_document(sys.stdin.read())
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return parse_matrix_document(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {source}: {exc}") from exc


def write_text(dest: str, text: str) -> None:
    """Write text to a path, or to stdout when dest is '-'."""
    if dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {dest}: {exc}") from exc


def complex_pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def boundary_csv(samples) -> str:
    """CSV rows theta,re,im; like `to_json`, a non-finite value raises."""
    lines = ["theta,re,im"]
    for s in samples:
        row = (s.theta, s.boundary_point.real, s.boundary_point.imag)
        if not all(map(math.isfinite, row)):
            raise SectorRadiusError(
                f"boundary point {s.boundary_point} at theta = {s.theta} is "
                "not finite (the computation overflowed)")
        lines.append(",".join(map(format_real, row)))
    return "\n".join(lines) + "\n"
