"""The three benchmark workloads: inputs made from the seed, operations, checks.

Each workload is a list of operations.  One pass runs every operation once,
in order, and checks its output; an operation fails if it raises, if its
output differs from the golden output, or if a check exceeds its threshold.
Operations go through the entry points users call: ``cli.main`` for CLI
commands and the library functions otherwise.  Modules are always reached
through their attributes (``qbd.solve_rate_matrix``, never a name imported
from the module), so the traced run can wrap them at the module boundary.

Why these workloads:

* ``sim-mixed``: CLI ``simulate`` runs, about 2.2M slots in all, covering
  priority x {none, ds1, ds2, ds3} and conventional x {none, ds1}, one
  overload point where both queues grow without bound and one 1M-slot run
  whose per-slot arrays set the peak memory.  It exercises the slot kernel,
  ``summarize`` and memory, and never touches ``qbd`` or ``oracle``.
* ``analytic-grid``: ``verify --suite qbd``, ``verify --suite containment``,
  ``sweep`` at p-step 0.01 and 0.005, ``region`` at lambda-step 0.01 and
  ``boundary`` for all three schemes, plus a near-critical ``R`` ladder with
  sp(R) = 0.94, 0.99 and 0.999 at points drawn from the seed.  It exercises
  the ``R`` solver, the region clauses and report emission; it simulates
  nothing.
* ``oracle-scale``: ``oracle.build_chain`` plus ``oracle.stationary`` plus
  total variation against the closed form, DS1 and DS2, at k_max in
  {200, 400, 800, 1600} with rho up to 0.95 and rho^k_max <= 1e-10.  It
  enumerates a few thousand states through ``advance_slot`` instead of
  millions of slots, and its dense working set grows from about 1 MB to about
  80 MB, past the last-level cache.

The critical witness (p1, p2, l2) = (0.5, 0.5, 0.2), where sp(R) = 1, is in
no workload: ``solve_rate_matrix`` spends seconds there to reach its
iteration cap and raises.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from aloha_priority import cli, model, oracle, qbd, simulate, stability, verify

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = ("sim-mixed", "analytic-grid", "oracle-scale")

# sim-mixed: (kind, mode, p1, p2, l1, l2, slots)
SIM_RUNS = (
    # stable, inside the region; the 1M-slot horizon makes the per-slot
    # arrays dominate peak memory
    ("priority", "none", 0.5, 0.5, 0.2, 0.2, 1_000_000),
    ("priority", "ds1", 0.5, 0.5, 0.2, 0.5, 200_000),
    ("priority", "ds2", 0.5, 0.5, 0.5, 0.1, 200_000),
    ("priority", "ds3", 0.7, 0.3, 0.5, 0.5, 200_000),
    ("conventional", "none", 0.5, 0.5, 0.15, 0.15, 200_000),
    ("conventional", "ds1", 0.5, 0.5, 0.15, 0.5, 200_000),
    # overload: l1 + l2 > 1, so the total backlog grows at l1 + l2 - 1
    ("priority", "none", 1.0, 0.01, 0.995, 0.5, 200_000),
)
# standard-error multiple for the closed-form law checks at seeds other than
# DEFAULT_SEED.  The acceptance suite uses 3 at its one fixed seed and 4 for
# the DS3 rates.  At 3, the five checks of a run would fail a correct program
# about once in 75 runs (normal tails; the largest |z| over seeds 1-60 was
# 2.55), too often for a benchmark run at many seeds, so every check uses the
# suite's wider multiple.
SE_MULTIPLE = 4.0
DRIFT_TOLERANCE = 0.02  # acceptance criterion 6
# reference-kernel check: trajectory prefix compared bit for bit per kind x mode
PREFIX_SLOTS = 20_000
PREFIX_P = (0.6, 0.4)
PREFIX_L = (0.25, 0.3)

ANALYTIC_CLI = (
    ("verify", "--suite", "qbd"),
    ("verify", "--suite", "containment"),
    ("sweep", "--p-step", "0.01"),
    ("sweep", "--p-step", "0.005"),
    ("region", "--p1", "0.5", "--p2", "0.5", "--lambda-step", "0.01"),
    ("boundary", "--scheme", "priority"),
    ("boundary", "--scheme", "ra"),
    ("boundary", "--scheme", "td"),
)
LADDER_SP = (0.94, 0.99, 0.999)
SOLVER_TOLERANCE = 1e-8  # verify qbd: solver vs closed form
BALANCE_TOLERANCE = 1e-10  # verify qbd: R-balance residual

ORACLE_K_MAX = (200, 400, 800, 1600)
# rho range per k_max; every upper end keeps rho^k_max <= 1e-10
ORACLE_RHO = {200: (0.6, 0.85), 400: (0.85, 0.92), 800: (0.92, 0.95), 1600: (0.94, 0.95)}
ORACLE_TAIL = 1e-10
TV_TOLERANCE = 1e-8  # verify ds1/qbd: oracle vs closed form

CRITICAL_WITNESS = (0.5, 0.5, 0.2)


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], None]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _within(what: str, value: float, target: float, tolerance: float) -> None:
    gap = abs(value - target)
    _require(gap <= tolerance, f"{what}: |{value!r} - {target!r}| = {gap!r} > {tolerance!r}")


def call_cli(argv: list[str]) -> str:
    """Run one CLI command in-process; return its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    _require(code == 0, f"exit code {code}")
    return buf.getvalue()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_op(argv: list[str], golden: dict[str, str]) -> Op:
    label = " ".join(argv)
    expected = golden[label]

    def run() -> None:
        _require(digest(call_cli(argv)) == expected, "output differs from golden")

    return Op(label, run)


# ---------------------------------------------------------------- sim-mixed


def sim_argv(run: tuple, seed: int) -> list[str]:
    kind, mode, p1, p2, l1, l2, slots = run
    return [
        "simulate", "--kind", kind, "--mode", mode,
        "--p1", str(p1), "--p2", str(p2), "--l1", str(l1), "--l2", str(l2),
        "--slots", str(slots), "--seed", str(seed),
    ]


def _parse_report(text: str) -> dict[str, str]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["field", "value"], "not a field/value report")
    return {key: value for key, value in rows[1:]}


def _check_sim_law(run: tuple, report: dict[str, str]) -> None:
    """Closed-form law of one simulate run, for seeds without golden bytes."""
    kind, mode, p1, p2, l1, l2, slots = run
    _require(int(report["slots"]) == slots, "slot count")
    values = {k: float(v) for k, v in report.items() if not k.startswith(("kind", "mode", "verdict"))}
    _require(all(math.isfinite(v) for v in values.values()), "non-finite field")
    p = model.AccessProbabilities(p1, p2)
    if l1 + l2 > 1.0:
        _within("overload drift", values["drift_q1"] + values["drift_q2"], l1 + l2 - 1.0, DRIFT_TOLERANCE)
    elif kind == "priority" and mode == "ds1":
        _within("ds1 mu2", values["mu_q2"], stability.ds1_service_rate_q2(p, l1),
                SE_MULTIPLE * values["mu_stderr_q2"])
    elif kind == "priority" and mode == "ds2":
        _within("ds2 mu1", values["mu_q1"], qbd.ds2_service_rate_q1(p, l2),
                SE_MULTIPLE * values["mu_stderr_q1"])
    elif kind == "priority" and mode == "ds3":
        ss = stability.ds3_steady_state(p)
        _within("ds3 occupancy", values["backoff_occupancy"], ss.pi_reserved,
                SE_MULTIPLE * values["occupancy_stderr"])
        _within("ds3 mu1", values["mu_q1"], ss.mu1, SE_MULTIPLE * values["mu_stderr_q1"])
        _within("ds3 mu2", values["mu_q2"], ss.mu2, SE_MULTIPLE * values["mu_stderr_q2"])
    elif mode == "none":
        verdicts = (report["verdict_q1"], report["verdict_q2"])
        _require(verdicts == ("stable", "stable"), f"verdicts {verdicts} inside the region")


def _sim_op(run: tuple, seed: int, golden: dict[str, str]) -> Op:
    argv = sim_argv(run, seed)
    if seed == simulate.DEFAULT_SEED:
        return _golden_op(argv, golden)

    def check() -> None:
        _check_sim_law(run, _parse_report(call_cli(argv)))

    return Op(" ".join(argv), check)


def reference_trajectory(config) -> dict[str, np.ndarray]:
    """The slot dynamics replayed here, one ``advance_slot`` call per slot.

    Draws the four coin streams exactly as the simulator documents them:
    queue-1 arrivals, queue-2 arrivals, queue-1 access, queue-2 access, each
    a ``default_rng`` over one child of ``SeedSequence(seed).spawn(4)``.
    """
    n = config.horizon
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(config.seed).spawn(4)]
    arr1 = (streams[0].random(n) < config.l.l1).tolist()
    arr2 = (streams[1].random(n) < config.l.l2).tolist()
    acc1 = (streams[2].random(n) < config.p.p1).tolist()
    acc2 = (streams[3].random(n) < config.p.p2).tolist()
    fixed = advance_slot_fixed_args(config.kind, config.mode, config.p)
    q1 = np.empty(n, dtype=np.int64)
    q2 = np.empty(n, dtype=np.int64)
    phase_start = np.empty(n, dtype=np.int64)
    outcome = np.empty(n, dtype=np.int64)
    state = model.SystemState(0, 0, model.Phase.NORMAL)
    for t in range(n):
        phase_start[t] = int(state.phase)
        state, out = model.advance_slot(state, *fixed, (arr1[t], arr2[t]), (acc1[t], acc2[t]))
        q1[t], q2[t], outcome[t] = state.q1_len, state.q2_len, int(out)
    return {"q1": q1, "q2": q2, "phase_start": phase_start, "outcome": outcome}


def advance_slot_fixed_args(kind, mode, p) -> tuple:
    """Arguments of ``advance_slot`` between the state and the coins.

    ``p`` only rides along (the coins already encode it), so it is passed
    only while the signature still has it.
    """
    takes_p = "p" in inspect.signature(model.advance_slot).parameters
    return (kind, mode, p) if takes_p else (kind, mode)


def _reference_kernel_op(kind, mode, seed: int) -> Op:
    config = simulate.SimulationConfig(
        kind=kind, mode=mode, p=model.AccessProbabilities(*PREFIX_P),
        l=model.ArrivalRates(*PREFIX_L), horizon=PREFIX_SLOTS, seed=seed,
    )

    def run() -> None:
        traj = simulate.run_trajectory(config)
        for name, expected in reference_trajectory(config).items():
            got = getattr(traj, name)
            _require(got.shape == expected.shape and np.array_equal(got, expected),
                     f"{name} differs from the advance_slot reference")

    return Op(f"reference kernel {kind.value} {mode.value}", run)


# ------------------------------------------------------------ analytic-grid


def _bisect(f: Callable[[float], float], target: float, lo: float, hi: float) -> float:
    """x in (lo, hi) with f(x) = target, for f increasing on the interval."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ds2_rate(p, sp: float) -> float:
    """l2 at which the closed-form sp(R) equals ``sp`` (below the l2 bound)."""
    bound = p.p2 * (1.0 - p.p1) / (1.0 + p.p1 * p.p2)
    return _bisect(lambda l2: qbd.spectral_radius_closed_form(p, l2), sp, 1e-12, bound)


def _ds1_rate(p, rho: float) -> float:
    """l1 at which the DS1 traffic intensity equals ``rho``."""
    bound = p.p1 / (1.0 + p.p1 * p.p2)
    return _bisect(lambda l1: stability.ds1_rho(p, l1), rho, 1e-12, bound)


def _draw_p(rng: random.Random, lo1: float, hi1: float, lo2: float, hi2: float):
    return model.AccessProbabilities(round(rng.uniform(lo1, hi1), 3), round(rng.uniform(lo2, hi2), 3))


def ladder_points(seed: int) -> list[tuple[float, float, float, float]]:
    """(p1, p2, l2, sp) with the closed-form sp(R) at each ladder rung."""
    rng = random.Random(f"analytic-grid:{seed}")
    points = []
    for sp in LADDER_SP:
        p = _draw_p(rng, 0.1, 0.9, 0.2, 1.0)
        l2 = _ds2_rate(p, sp)
        if (p.p1, p.p2, l2) == CRITICAL_WITNESS:
            raise ValueError("ladder drew the critical witness")
        points.append((p.p1, p.p2, l2, sp))
    return points


def _ladder_op(p1: float, p2: float, l2: float, sp: float) -> Op:
    def run() -> None:
        p = model.AccessProbabilities(p1, p2)
        blocks = qbd.qbd_blocks(p, l2)
        solved = qbd.solve_rate_matrix(blocks)
        closed = qbd.rate_matrix_closed_form(p, l2)
        residual = blocks.a2 + (blocks.a1 - np.eye(2)) @ closed + blocks.a0 @ (closed @ closed)
        _require(float(np.max(np.abs(residual))) < BALANCE_TOLERANCE, "R-balance residual")
        _require(float(np.max(np.abs(solved - closed))) < SOLVER_TOLERANCE, "solver vs closed form")
        _within("sp(R)", qbd.spectral_radius(solved), sp, 1e-6)

    return Op(f"qbd ladder sp={sp} p=({p1},{p2}) l2={l2!r}", run)


# ------------------------------------------------------------- oracle-scale


def oracle_points(seed: int) -> list[tuple[str, float, float, float, int, float]]:
    """(mode, p1, p2, rate, k_max, rho) per k_max, one DS1 and one DS2 each."""
    rng = random.Random(f"oracle-scale:{seed}")
    points = []
    for k_max in ORACLE_K_MAX:
        lo, hi = ORACLE_RHO[k_max]
        for mode in ("ds1", "ds2"):
            rho = rng.uniform(lo, hi)
            if rho**k_max > ORACLE_TAIL:
                raise ValueError(f"rho^k_max above {ORACLE_TAIL} at k_max={k_max}")
            p = _draw_p(rng, 0.3, 0.9, 0.3, 0.9)
            rate = _ds1_rate(p, rho) if mode == "ds1" else _ds2_rate(p, rho)
            points.append((mode, p.p1, p.p2, rate, k_max, rho))
    return points


def _oracle_op(mode_name: str, p1: float, p2: float, rate: float, k_max: int, rho: float) -> Op:
    mode = model.DominanceMode(mode_name)
    p = model.AccessProbabilities(p1, p2)

    def run() -> None:
        chain = oracle.build_chain(mode, p, rate, k_max)
        pi = oracle.stationary(chain)
        if mode is model.DominanceMode.DS1:
            analytic = verify.ds1_analytic_vector(p, rate, k_max)
        else:
            analytic = verify.ds2_analytic_vector(p, rate, k_max)
        tv = oracle.total_variation(pi, analytic)
        _require(tv < TV_TOLERANCE, f"total variation {tv!r}")

    return Op(f"oracle {mode_name} k_max={k_max} rho={rho:.4f} p=({p1},{p2})", run)


# ----------------------------------------------------------------- assembly


def build(workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """(checks run once before timing, operations of one timed pass)."""
    golden = load_golden()
    if workload == "sim-mixed":
        once = [
            _reference_kernel_op(kind, mode, seed)
            for kind in model.ProtocolKind
            for mode in model.DominanceMode
        ]
        return once, [_sim_op(run, seed, golden) for run in SIM_RUNS]
    if workload == "analytic-grid":
        ops = [_golden_op(list(argv), golden) for argv in ANALYTIC_CLI]
        ops += [_ladder_op(*point) for point in ladder_points(seed)]
        return [], ops
    if workload == "oracle-scale":
        return [], [_oracle_op(*point) for point in oracle_points(seed)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def golden_commands() -> list[list[str]]:
    """Every CLI operation whose output is compared byte for byte."""
    commands = [list(argv) for argv in ANALYTIC_CLI]
    commands += [sim_argv(run, simulate.DEFAULT_SEED) for run in SIM_RUNS]
    return commands
