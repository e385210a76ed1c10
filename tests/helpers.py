"""Readers for the emitted reports, a QBD matrix builder and a verdict
shortcut, used only by tests.

The parsers invert :mod:`aloha_priority.reports` so tests can assert on
emitted values; ``assemble`` lays the QBD blocks out as a truncated
block-tridiagonal matrix for comparison with the enumerated oracle kernel;
``classify_stability`` runs the simulator's drift verdict on a bare trajectory.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

import numpy as np

from aloha_priority.qbd import QbdBlocks
from aloha_priority.simulate import _slope, _verdict


def _coerce(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv_table(text: str) -> tuple[list[str], list[list[Any]]]:
    """Inverse of table_to_csv, numbers coerced back to int/float."""
    reader = csv.reader(io.StringIO(text))
    columns = next(reader)
    rows = [[_coerce(cell) for cell in row] for row in reader if row]
    return columns, rows


def parse_json_table(text: str) -> tuple[list[str], list[list[Any]]]:
    payload = json.loads(text)
    return payload["columns"], payload["rows"]


def parse_csv_report(text: str) -> dict[str, Any]:
    columns, rows = parse_csv_table(text)
    if columns != ["field", "value"]:
        raise ValueError("not a field/value report")
    return {row[0]: row[1] for row in rows}


def parse_json_report(text: str) -> dict[str, Any]:
    return json.loads(text)


def classify_stability(lengths: np.ndarray, total_slots: int | None = None) -> str:
    """The verdict ``simulate.summarize`` gives a queue with this trajectory."""
    total = lengths.shape[0] if total_slots is None else total_slots
    return _verdict(lengths, _slope(lengths), total)


def assemble(blocks: QbdBlocks, n_levels: int) -> np.ndarray:
    """Truncated block-tridiagonal matrix for structural inspection.

    Columns of interior levels (1 .. n_levels - 2) sum to 1.  The 0-OFF
    column and the last level's columns are deficient (no up-block past the
    truncation); this is for looking at structure, not for computing
    stationary laws.
    """
    if n_levels < 3:
        raise ValueError("need at least 3 levels to show interior structure")
    n = 2 * n_levels
    t = np.zeros((n, n))
    t[0:2, 0:2] = blocks.b
    t[2:4, 0:2] = blocks.a2
    for k in range(1, n_levels):
        r = 2 * k
        t[r - 2 : r, r : r + 2] = blocks.a0
        t[r : r + 2, r : r + 2] = blocks.a1
        if k + 1 < n_levels:
            t[r + 2 : r + 4, r : r + 2] = blocks.a2
    return t
