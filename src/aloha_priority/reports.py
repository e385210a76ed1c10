"""Dataset and report serialization for the command-line surface.

Two formats, csv and json, carrying identical field names.  Every value goes
through one rule first: a numpy scalar collapses to its plain Python value
and a bool becomes an int.  The csv writer renders each float by its repr,
the shortest string that parses back to the exact same double, so every
emitted dataset re-parses to identical values and repeated runs are
byte-identical.  Tabular datasets become csv tables or a json object
{"columns": [...], "rows": [[...]]}; scalar reports become two-column
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
    kind = type(value)
    if kind is float or kind is int or kind is str:
        return value
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, bool):
        return int(value)
    return value


def _json(value: Any) -> Any:
    """``_py``, with a non-finite float as null."""
    value = _py(value)
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _csv(columns: list[str], rows: Iterable[Iterable[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_py(v) for v in row] for row in rows)
    return buf.getvalue()


def emit_table(columns: list[str], rows: Iterable[Iterable[Any]], fmt: str) -> str:
    """``rows`` as a csv table or a json object under ``columns``.

    ``rows`` is an iterable consumed once, row by row, so a caller can pass a
    generator or a ``zip`` of columns and never hold the rows as a list.
    """
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
