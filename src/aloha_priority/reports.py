"""Dataset and report serialization for the command-line surface.

Two formats, csv and json, carrying identical field names.  Floats are
rendered with repr, the shortest string that parses back to the exact same
double, so every emitted dataset re-parses to identical values and repeated
runs are byte-identical.  Tabular datasets become csv tables or a json
object {"columns": [...], "rows": [[...]]}; scalar reports become two-column
field/value csv or a flat json object.  Json has no NaN or infinity, so a
non-finite float is written as null there; csv writes its repr (``nan``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable
from typing import Any


def _py(value: Any) -> Any:
    """Collapse numpy scalars to plain Python types at the emit boundary."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, bool):
        return int(value)
    return value


def _json(value: Any) -> Any:
    """``_py``, with a non-finite float as null."""
    value = _py(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render(value: Any) -> Any:
    value = _py(value)
    if isinstance(value, float):
        return repr(value)
    return value


def _csv(columns: list[str], rows: Iterable[Iterable[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_render(v) for v in row])
    return buf.getvalue()


def emit_table(columns: list[str], rows: list[list[Any]], fmt: str) -> str:
    if fmt == "csv":
        return _csv(columns, rows)
    if fmt == "json":
        payload = {"columns": columns, "rows": [[_json(v) for v in row] for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "csv":
        return _csv(["field", "value"], report.items())
    if fmt == "json":
        return json.dumps({k: _json(v) for k, v in report.items()}, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
