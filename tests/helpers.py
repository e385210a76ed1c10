"""Readers for the emitted reports, a QBD matrix builder, a reference
rate-matrix solver, a verdict shortcut and a reference simulator, used only
by tests.

The parsers invert :mod:`aloha_priority.reports` so tests can assert on
emitted values; ``assemble`` lays the QBD blocks out as a truncated
block-tridiagonal matrix for comparison with the enumerated oracle kernel;
``reference_rate_matrix`` solves one point at a time with 2x2 arithmetic;
``classify_stability`` runs the simulator's drift verdict on a bare trajectory;
``reference_trajectory`` replays a run with one ``advance_slot`` call per slot;
``reference_chain`` builds the oracle kernel with one ``advance_slot`` call per
level, phase and coin combination; ``reference_stationary`` solves the oracle's
stationary system in a copy of the kernel.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product
from typing import Any

import numpy as np

from aloha_priority.errors import (
    NoConvergenceError,
    SingularBlockError,
    SingularSystemError,
)
from aloha_priority.model import (
    AccessProbabilities,
    DominanceMode,
    Phase,
    ProtocolKind,
    SystemState,
    advance_slot,
)
from aloha_priority.oracle import TruncatedChain
from aloha_priority.qbd import _TOL, QbdBlocks
from aloha_priority.simulate import SimulationConfig, Trajectory, _slope, _verdict


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
    """Inverse of emit_table's csv, numbers coerced back to int/float."""
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


def reference_rate_matrix(blocks: QbdBlocks) -> np.ndarray:
    """``qbd.solve_rate_matrix`` for one point, as a loop over 2x2 matrices.

    The same fixed point, stopping rule and inverse; the stacked solver must
    match it slice for slice, bit for bit.
    """
    m = np.eye(2) - blocks.a1
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= 1e-14:
        raise SingularBlockError(f"I - A1 is singular (det = {det})")
    m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    a0, a2 = blocks.a0, blocks.a2
    r = np.zeros((2, 2))
    for _ in range(10**6):
        r_next = m @ (a2 + a0 @ (r @ r))
        delta = np.max(np.abs(r_next - r))
        r = r_next
        if delta < _TOL:
            return r
    raise NoConvergenceError(f"rate-matrix iteration did not reach tol={_TOL}")


def reference_trajectory(config: SimulationConfig) -> Trajectory:
    """``simulate.run_trajectory`` as one ``advance_slot`` call per slot.

    The same four coin streams, the same dtypes; the table-driven simulator
    must match it array for array.
    """
    n = config.horizon
    streams = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(config.seed).spawn(4)
    ]
    arr1 = (streams[0].random(n) < config.l.l1).tolist()
    arr2 = (streams[1].random(n) < config.l.l2).tolist()
    acc1 = (streams[2].random(n) < config.p.p1).tolist()
    acc2 = (streams[3].random(n) < config.p.p2).tolist()

    q1 = np.empty(n, dtype=np.int64)
    q2 = np.empty(n, dtype=np.int64)
    phase_start = np.empty(n, dtype=np.int8)
    outcome = np.empty(n, dtype=np.int8)

    state = SystemState(0, 0, Phase.NORMAL)
    kind, mode = config.kind, config.mode
    for t in range(n):
        phase_start[t] = int(state.phase)
        state, out = advance_slot(
            state, kind, mode, (arr1[t], arr2[t]), (acc1[t], acc2[t])
        )
        q1[t] = state.q1_len
        q2[t] = state.q2_len
        outcome[t] = int(out)

    arr1 = np.asarray(arr1)
    arr2 = np.asarray(arr2)
    busy1 = np.concatenate(([0], q1[:-1])) + arr1 > 0
    busy2 = np.concatenate(([0], q2[:-1])) + arr2 > 0
    return Trajectory(
        q1=q1, q2=q2, phase_start=phase_start, outcome=outcome, busy1=busy1, busy2=busy2
    )


def reference_chain(
    mode: DominanceMode, p: AccessProbabilities, arrival_rate: float, k_max: int
) -> TruncatedChain:
    """``oracle.build_chain`` as one ``advance_slot`` call per level, phase and
    coin combination, into a C-ordered matrix.

    Every level is enumerated on its own, so nothing assumes that levels
    above 0 behave alike; the tabulated kernel must match it entry for entry,
    bit for bit.
    """
    tracked_q1 = mode is DominanceMode.DS1
    n = 2 * (k_max + 1)
    chain = TruncatedChain(k_max=k_max, matrix=np.zeros((n, n)))
    # each coin (arrival, queue-1 draw, queue-2 draw) lands heads with its probability
    coins = [((True, q), (False, 1.0 - q)) for q in (arrival_rate, p.p1, p.p2)]

    for level in range(k_max + 1):
        for phase in (Phase.NORMAL, Phase.BACKOFF):
            j = chain.index(level, phase)
            state = (
                SystemState(level, 0, phase)
                if tracked_q1
                else SystemState(0, level, phase)
            )
            for (arr, w_a), (d1, w_1), (d2, w_2) in product(*coins):
                weight = w_a * w_1 * w_2
                if weight == 0.0:
                    continue
                arrivals = (arr, False) if tracked_q1 else (False, arr)
                nxt, _ = advance_slot(
                    state,
                    ProtocolKind.FEEDBACK_PRIORITY,
                    mode,
                    arrivals,
                    (d1, d2),
                )
                nxt_level = nxt.q1_len if tracked_q1 else nxt.q2_len
                # clamp at the cap, phase preserved
                i = chain.index(min(nxt_level, k_max), nxt.phase)
                chain.matrix[i, j] += weight

    return chain


def reference_stationary(chain: TruncatedChain) -> np.ndarray:
    """``oracle.stationary`` with T - I formed in a Fortran-ordered copy of T.

    The same system, normalisation row and residual check; solving in the
    kernel's own storage must return the same vector, bit for bit.
    """
    t = chain.matrix
    n = t.shape[0]
    a = np.array(t, order="F")
    a[np.diag_indices(n)] -= 1.0
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(t @ x - x)))
    if residual > 1e-12 or not np.isfinite(residual):
        raise SingularSystemError(
            f"stationary residual {residual} exceeds 1e-12; chain ill conditioned"
        )
    return x
