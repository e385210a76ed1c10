"""Readers for the emitted reports, a QBD matrix builder, a reference
rate-matrix solver, a verdict shortcut and a reference simulator, used only
by tests.

The parsers invert :mod:`aloha_priority.reports` so tests can assert on
emitted values; ``assemble`` lays the QBD blocks out as a truncated
block-tridiagonal matrix for comparison with the enumerated oracle kernel;
``stack_blocks`` stacks the blocks of separate points into one QbdBlocks;
``reference_fixed_point`` solves one point at a time with 2x2 arithmetic and
counts its steps, and ``reference_rate_matrix`` keeps its R;
``product_premise_operands`` and ``product_mismatches`` test that a 2x2
product gives the same bits through a stacked ``matmul``, a 2-D
``np.ndarray.dot``, a 2-D ``np.dot`` and a 2-D ``@``;
``reference_region_rows`` and ``reference_qbd_grid`` walk the ``region`` and
``verify --suite qbd`` grids one point at a time with plain floats;
``conventional_region_contains`` is the conventional random-access region at
fixed p, which the priority region must enclose; and
``reference_spectral_radius`` takes one matrix's radius with a numpy
scalar's ``** 0.5``; ``ulps_from`` steps a bound a few ulps either way;
``reference_levels`` lays a matrix-geometric law out one level at a time,
one 2x2 product per level, and ``reference_ds1_law`` lays the DS1 law out from
its powers of rho;
``reference_envelope_at`` maximises the region clauses over a full meshgrid;
``classify_stability`` runs the simulator's drift verdict on a bare trajectory;
``reference_trajectory`` replays a run with one ``advance_slot`` call per slot,
and ``reference_summarize`` summarises a run from per-slot masks;
``reference_chain`` builds the oracle's dense kernel with one ``advance_slot``
call per level, phase and coin combination; ``reference_stationary`` solves the
oracle's stationary system from a dense kernel.
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
    SATURATED,
    AccessProbabilities,
    DominanceMode,
    Phase,
    ProtocolKind,
    SlotOutcome,
    SystemState,
    advance_slot,
)
from aloha_priority.qbd import (
    _TOL,
    QbdBlocks,
    qbd_blocks,
    rate_matrix_closed_form,
    spectral_radius_closed_form,
)
from aloha_priority.simulate import (
    _N_BATCHES,
    SimulationConfig,
    SimulationMetrics,
    Trajectory,
    _slopes,
    _verdict,
)
from aloha_priority.stability import (
    ds1_mu2, ds1_pi0, ds1_rho, ds2_l2_limit, ds2_mu1, ds3_mu1, ds3_mu2
)


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
    return _verdict(lengths, _slopes(lengths, lengths)[0], total)


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


def stack_blocks(points: list[QbdBlocks]) -> QbdBlocks:
    """The blocks of many points as one QbdBlocks of (n, 2, 2) arrays."""
    return QbdBlocks(
        b=np.stack([x.b for x in points]),
        a0=np.stack([x.a0 for x in points]),
        a1=np.stack([x.a1 for x in points]),
        a2=np.stack([x.a2 for x in points]),
    )


def _reference_verdict(p1: float, p2: float, l1: float, l2: float) -> tuple[bool, str]:
    """The union-region verdict at one point in plain-float branches:
    (stable, binding), the binding "" where stable.

    DS1 tests l1 < mu1'' and then l2 < ds1_mu2; DS2 tests l2 < mu2'' and
    then l1 < ds2_mu1, which it never reaches at p1 = 1.
    """
    if not l1 < ds3_mu1(p1, p2):
        ds1 = "l1"
    elif not l2 < ds1_mu2(p2, l1):
        ds1 = "l2"
    else:
        return True, ""
    if not l2 < ds3_mu2(p1, p2):
        ds2 = "l2"
    elif not l1 < ds2_mu1(p1, l2):
        ds2 = "l1"
    else:
        return True, ""
    return False, f"ds1.{ds1},ds2.{ds2}"


def reference_region_rows(p: AccessProbabilities, rates: list[float]) -> list[list[Any]]:
    """The rows of ``region`` as one verdict per (l1, l2) pair of the rate
    grid, l1 outer: [l1, l2, stable, binding].  The command, which tests the
    whole grid in one call, must give the same rows."""
    return [
        [l1, l2, *_reference_verdict(p.p1, p.p2, l1, l2)] for l1 in rates for l2 in rates
    ]


def conventional_region_contains(p1, p2, l1, l2):
    """The stability region of conventional random access at fixed p, for p1
    and p2 in (0, 1): the union of {l1 < p1(1 - p2), l2 < p2(1 - l1/(1 - p2))}
    and {l2 < p2(1 - p1), l1 < p1(1 - l2/(1 - p1))} (Tsybakov & Mikhailov
    1979; Rao & Ephremides 1988).  Takes arrays."""
    first = (l1 < p1 * (1.0 - p2)) & (l2 < p2 * (1.0 - l1 / (1.0 - p2)))
    second = (l2 < p2 * (1.0 - p1)) & (l1 < p1 * (1.0 - l2 / (1.0 - p1)))
    return first | second


def reference_spectral_radius(r: np.ndarray) -> np.float64:
    """sp of one 2x2 matrix by the trace/det quadratic, the root taken as the
    numpy scalar's ``** 0.5``; ``qbd.spectral_radius`` must match it on
    every slice of a stack."""
    tr = r[0, 0] + r[1, 1]
    det = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
    root = (tr * tr - 4.0 * det) ** 0.5
    return max(abs(tr + root), abs(tr - root)) / 2.0


def ulps_from(x: float, k: int) -> float:
    """The float k ulps above a positive x, or -k ulps below it for k < 0."""
    return float((np.float64(x).view(np.int64) + k).view(np.float64))


def reference_levels(pi0: float, r: np.ndarray, k_max: int) -> np.ndarray:
    """``stability.stationary_levels`` as a list of levels: v_0 = (pi0, 0)
    and v_{k+1} = R v_k, one 2x2 product per level; the two laws must match
    it bit for bit."""
    rows = [np.array([pi0, 0.0])]
    for _ in range(k_max):
        rows.append(r @ rows[-1])
    return np.array(rows)


def reference_ds1_law(p: AccessProbabilities, l1: float, k_max: int) -> np.ndarray:
    """Rows (pi0 rho^k, eps1 rho^(k - 1)) for k = 0..k_max with
    eps1 = l1 p2 / (1 - l1 p2) pi0, each level's two Python floats computed
    on their own from a power of rho, with 0 in the reserved phase at level 0:
    the DS1 law's closed form, which shares no product with the recurrence."""
    rho, pi0 = ds1_rho(p, l1), ds1_pi0(p, l1)
    eps1 = l1 * p.p2 / (1.0 - l1 * p.p2) * pi0
    rows = []
    for k in range(k_max + 1):
        eps = 0.0 if k == 0 else eps1 * rho ** (k - 1)
        rows.append((pi0 * rho**k, eps))
    return np.array(rows)


def reference_qbd_grid() -> list[dict[str, Any]]:
    """``verify.suite_qbd``'s grid of (p1, p2, l2) = (i, j, k) / 20 as a loop
    over its points, each closed form called with plain floats.

    One dict per point not within 1e-9 of the queue-2 bound, in (i, j, k)
    order: p1, p2, l2, whether l2 lies below the bound, the blocks, the
    closed-form R, its ``reference_spectral_radius`` and, at stable points,
    ``spectral_radius_closed_form``.
    """
    points = []
    n = 20
    for i in range(1, n):
        for j in range(1, n + 1):
            p = AccessProbabilities(i / n, j / n)
            bound = ds3_mu2(p.p1, p.p2)
            for k in range(1, n):
                l2 = k / n
                if abs(l2 - bound) <= 1e-9:
                    continue
                r = rate_matrix_closed_form(p, l2)
                stable = l2 < bound
                points.append({
                    "p1": p.p1, "p2": p.p2, "l2": l2, "stable": stable,
                    "blocks": qbd_blocks(p, l2), "r": r, "sp": reference_spectral_radius(r),
                    "sp_closed": spectral_radius_closed_form(p, l2) if stable else None,
                })
    return points


def reference_fixed_point(
    blocks: QbdBlocks, products: list | None = None
) -> tuple[np.ndarray, int]:
    """``qbd.solve_rate_matrix`` for one point, as a loop over 2x2 matrices,
    with the number of steps it took.

    The same fixed point, stopping rule and inverse; the stacked solver must
    match it slice for slice, bit for bit, and must stop after as many steps.
    A ``products`` list gets the (left, right) operands of every 2x2 product
    the loop takes.
    """
    m = np.eye(2) - blocks.a1
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= 1e-14:
        raise SingularBlockError(f"I - A1 is singular (det = {det})")
    m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    a0, a2 = blocks.a0, blocks.a2
    r = np.zeros((2, 2))
    for step in range(1, 10**6 + 1):
        square = r @ r
        inner = a2 + a0 @ square
        r_next = m @ inner
        if products is not None:
            products += [(r, r), (a0, square), (m, inner)]
        delta = np.max(np.abs(r_next - r))
        r = r_next
        if delta < _TOL:
            return r, step
    raise NoConvergenceError(f"rate-matrix iteration did not reach tol={_TOL}")


def reference_rate_matrix(blocks: QbdBlocks) -> np.ndarray:
    """The R of ``reference_fixed_point``."""
    return reference_fixed_point(blocks)[0]


# (p1, p2, l2) where the fixed point runs long: sp(R) near 0.99 (3363 steps)
# and 0.999 (24941 steps)
NEAR_CRITICAL = [(0.254, 0.75, 0.4671135153068128), (0.609, 0.762, 0.20332898945309924)]


def product_premise_operands(pairs: int = 20_000, seed: int = 19) -> tuple[np.ndarray, np.ndarray]:
    """Left and right 2x2 operands, shape (n, 2, 2): ``pairs`` random
    nonnegative pairs, a quarter of their entries 0 and the rest spread over
    seven decades, then every product the fixed point takes at the
    ``NEAR_CRITICAL`` points (M, A0, A2 + A0 R^2 and each iterate R)."""
    rng = np.random.default_rng(seed)
    shape = (pairs, 2, 2)
    drawn = []
    for _ in range(2):
        x = rng.random(shape) * 10.0 ** rng.uniform(-6.0, 1.0, shape)
        x[rng.random(shape) < 0.25] = 0.0
        drawn.append(x)
    products: list = []
    for p1, p2, l2 in NEAR_CRITICAL:
        reference_fixed_point(qbd_blocks(AccessProbabilities(p1, p2), l2), products)
    left, right = (np.array([pair[i] for pair in products]) for i in range(2))
    return np.concatenate([drawn[0], left]), np.concatenate([drawn[1], right])


def product_mismatches(left: np.ndarray, right: np.ndarray) -> int:
    """How many products left[i] right[i] are not the same bits four ways:
    slice i of one stacked ``np.matmul``, ``np.ndarray.dot`` of the
    C-contiguous 2-D slices into an ``out`` buffer (a lone point's step in
    ``qbd.solve_rate_matrix``), ``np.dot`` the same way, and a 2-D ``@``
    (``reference_fixed_point``)."""
    stacked = np.matmul(left, right)
    method, function = np.empty((2, 2)), np.empty((2, 2))
    mismatches = 0
    for a, b, c in zip(left, right, stacked):
        np.ndarray.dot(a, b, method)
        np.dot(a, b, function)
        mismatches += not (
            method.tobytes() == c.tobytes() == function.tobytes() == (a @ b).tobytes()
        )
    return mismatches


def reference_envelope_at(l1: float, p1_grid: np.ndarray, p2_grid: np.ndarray):
    """``sweep.envelope_at`` on a full meshgrid of the two p-grids.

    Every clause is evaluated at every (p1, p2) pair; the broadcasting sweep
    must return the same (value, p1, p2), ties included.
    """
    pp1, pp2 = np.meshgrid(p1_grid, p2_grid, indexing="ij")

    value_a = ds1_mu2(pp2, l1)
    value_a = np.where((l1 < ds3_mu1(pp1, pp2)) & (value_a > 0.0), value_a, -np.inf)

    with np.errstate(divide="ignore", invalid="ignore"):
        bound_l1 = np.where(pp1 > 0.0, ds2_l2_limit(pp1, l1), -np.inf)
    value_b = np.minimum(ds3_mu2(pp1, pp2), bound_l1)
    value_b = np.where(value_b > 0.0, value_b, -np.inf)

    combined = np.maximum(value_a, value_b)
    flat = int(np.argmax(combined))
    i, j = divmod(flat, combined.shape[1])
    best = float(combined[i, j])
    if not np.isfinite(best):
        return 0.0, float(p1_grid[0]), float(p2_grid[0])
    return best, float(p1_grid[i]), float(p2_grid[j])


def reference_trajectory(config: SimulationConfig) -> dict[str, np.ndarray]:
    """``simulate.run_trajectory`` as one ``advance_slot`` call per slot.

    The same four coin streams, the same dtypes; the table-driven simulator
    must match it array for array, by name: each slot's key, built from the
    state before the slot and its four coins as ``slot_table`` lays keys
    out, the end-of-slot lengths, and the slot's start phase, outcome and
    busy flags.
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
    keys = np.empty(n, dtype=np.int8)
    phase_start = np.empty(n, dtype=np.int8)
    outcome = np.empty(n, dtype=np.int8)

    state = SystemState(0, 0, Phase.NORMAL)
    kind, mode = config.kind, config.mode
    for t in range(n):
        phase_start[t] = int(state.phase)
        keys[t] = (
            int(state.phase) << 6 | (state.q1_len > 0) << 5 | (state.q2_len > 0) << 4
            | acc2[t] << 3 | acc1[t] << 2 | arr2[t] << 1 | arr1[t]
        )
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
    return {
        "keys": keys, "q1": q1, "q2": q2, "phase_start": phase_start, "outcome": outcome,
        "busy1": busy1, "busy2": busy2,
    }


def _reference_batch_rate(values: np.ndarray, base: np.ndarray) -> tuple[float, float]:
    """Overall rate of ``values`` per base slot and its batch SE."""
    m = values.shape[0] // _N_BATCHES
    total_base = int(base.sum())
    rate = float(values.sum() / total_base) if total_base else float("nan")
    if m == 0:
        return rate, float("nan")
    v = values[: _N_BATCHES * m].reshape(_N_BATCHES, m).sum(axis=1)
    b = base[: _N_BATCHES * m].reshape(_N_BATCHES, m).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = v / b
    ratios = ratios[np.isfinite(ratios)]
    if ratios.shape[0] < 2:
        return rate, float("nan")
    return rate, float(ratios.std(ddof=1) / ratios.shape[0] ** 0.5)


def reference_summarize(trajectory: Trajectory, config: SimulationConfig) -> SimulationMetrics:
    """``simulate.summarize`` from per-slot masks of the trajectory's
    outcomes, busy flags and phases, each batch summed on its own; the
    histogram ``summarize`` must give the same metrics, bit for bit."""
    w = config.warmup
    q1 = trajectory.q1[w:]
    q2 = trajectory.q2[w:]
    drift1, drift2 = _slopes(q1, q2)
    out = trajectory.outcome[w:]
    busy1 = trajectory.busy1[w:]
    busy2 = trajectory.busy2[w:]

    success1 = (out == int(SlotOutcome.SUCCESS_Q1)) | (
        out == int(SlotOutcome.PRIORITY_RETRANSMISSION)
    )
    success2 = out == int(SlotOutcome.SUCCESS_Q2)
    forced1, forced2 = SATURATED[config.mode]
    every = np.ones(out.shape[0], dtype=bool)

    mu1, se1 = _reference_batch_rate(success1, every if forced1 else busy1)
    mu2, se2 = _reference_batch_rate(success2, every if forced2 else busy2)
    occ, occ_se = _reference_batch_rate(trajectory.phase_start[w:], every)

    return SimulationMetrics(
        delivered=(int(success1.sum()), int(success2.sum())),
        busy_slots=(int(busy1.sum()), int(busy2.sum())),
        mu=(mu1, mu2),
        mu_stderr=(se1, se2),
        backoff_occupancy=occ,
        occupancy_stderr=occ_se,
        mean_len=(float(q1.mean()), float(q2.mean())),
        final_len=(int(q1[-1]), int(q2[-1])),
        drift=(drift1, drift2),
        verdict=(
            _verdict(q1, drift1, config.horizon),
            _verdict(q2, drift2, config.horizon),
        ),
    )


def reference_chain(
    mode: DominanceMode, p: AccessProbabilities, arrival_rate: float, k_max: int
) -> np.ndarray:
    """``oracle.build_chain(...).matrix`` as one ``advance_slot`` call per
    level, phase and coin combination, into a C-ordered matrix.

    Every level is enumerated on its own, so nothing assumes that levels
    above 0 behave alike; the kernel the blocks lay out must match it entry
    for entry, bit for bit.
    """
    tracked_q1 = mode is DominanceMode.DS1
    n = 2 * (k_max + 1)
    t = np.zeros((n, n))
    # each coin (arrival, queue-1 draw, queue-2 draw) lands heads with its probability
    coins = [((True, q), (False, 1.0 - q)) for q in (arrival_rate, p.p1, p.p2)]

    for level in range(k_max + 1):
        for phase in (Phase.NORMAL, Phase.BACKOFF):
            j = 2 * level + int(phase)
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
                i = 2 * min(nxt_level, k_max) + int(nxt.phase)
                t[i, j] += weight

    return t


def reference_stationary(t: np.ndarray) -> np.ndarray:
    """``oracle.stationary`` from the dense kernel T alone: T - I formed in a
    Fortran-ordered copy of T, and the residual taken densely.

    The same system and normalisation row, and the same (k_max + 1, 2)
    levels returned; the oracle, which lays its blocks out as that system
    and takes the residual level by level, must return them bit for bit.
    """
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
    return x.reshape(-1, 2)
