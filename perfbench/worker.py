"""Workload process: set up, run one workload's passes, report one JSON line.

Started by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``
and the BLAS pinned to one thread.  It prints ``ready`` once the package is
imported and every layer has been warmed by one small call, with the time
on the system-wide monotonic clock; the parent times process start to that
line as the set-up time.  Unless ``--setup-only``, it then runs the workload
as a closed loop: one caller issues one operation at a time and waits for
it.  Passes repeat while another one fits in ``--seconds``.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import enum
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing
import workloads
from aloha_priority import cli, model, oracle, qbd, reports, simulate, stability, verify

OUT_DIR = Path(__file__).resolve().parent / "out"
ADVANCE_SLOT_CALLS = 100_000
ADVANCE_SLOT_REPEATS = 5
MAX_FAILURE_LOGS = 20
CALIBRATION_STEPS = 20_000
CALIBRATION_SOLVE_N = 700


# ------------------------------------------------------------------ set-up


def warm() -> None:
    """One small call into each layer, so no pass pays first-call costs."""
    p = model.AccessProbabilities(0.5, 0.5)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["boundary", "--scheme", "td", "--step", "0.1"])
    simulate.run(simulate.SimulationConfig(
        kind=model.ProtocolKind.FEEDBACK_PRIORITY, mode=model.DominanceMode.NONE, p=p,
        l=model.ArrivalRates(0.2, 0.2), horizon=1_000, seed=simulate.DEFAULT_SEED,
    ))
    qbd.solve_rate_matrix(qbd.qbd_blocks(p, 0.1))
    qbd.rate_matrix_closed_form(p, 0.1)
    oracle.stationary(oracle.build_chain(model.DominanceMode.DS1, p, 0.2, 50))
    verify.oracle_tv(model.DominanceMode.DS2, p, 0.1, k_max=20)
    stability.union_region_contains(p, model.ArrivalRates(0.2, 0.2))
    sweep = sys.modules["aloha_priority.sweep"]
    sweep.envelope_at(0.2, np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
    reports.emit_table(["a"], [[0.5]], "csv")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict[str, object]:
    """BLAS library version and the thread count it runs with."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": config.get("name"), "version": config.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def machine() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


# ------------------------------------------------------------------ passes


class Counter:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_s: dict[str, list[float]] = {}

    def run(self, op: workloads.Op) -> float:
        """Run one operation, counting it; return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            op.run()
        except Exception as exc:  # every failure is counted, never fatal
            self.failed += 1
            if self.failed <= MAX_FAILURE_LOGS:
                detail = str(exc) if isinstance(exc, workloads.CheckFailed) else traceback.format_exc()
                print(f"FAILED {op.label}: {detail}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        self.op_s.setdefault(op.label, []).append(elapsed)
        return elapsed


# calibration work, the benchmark's own: the program never runs it
class _Flag(enum.Enum):
    OFF = 0
    ON = 1


class _Cell(NamedTuple):
    a: int
    b: int
    flag: _Flag


def _step(cell: _Cell, x: bool, y: bool) -> _Cell:
    a = cell.a + (1 if x else 0)
    b = cell.b + (1 if y else 0)
    if cell.flag is _Flag.ON and a > 0:
        return _Cell(a - 1, b, _Flag.OFF)
    if x and y:
        return _Cell(a, b, _Flag.ON)
    return _Cell(a, b - 1 if b > 0 else b, _Flag.OFF)


def _interpreter_loop() -> float:
    start = time.perf_counter()
    cell = _Cell(0, 0, _Flag.OFF)
    out = np.empty(CALIBRATION_STEPS, dtype=np.int64)
    for t in range(CALIBRATION_STEPS):
        cell = _step(cell, t % 3 == 0, t % 4 == 0)
        out[t] = cell.a
    return time.perf_counter() - start


class Calibration:
    """Times fixed work to read the machine's current speed.

    The machine's speed drifts by a fifth and more over seconds to minutes,
    so raw pass times spread widely between runs, and interpreted code and
    BLAS kernels drift differently.  One reading is the geometric mean of
    two timings, both the benchmark's own work: an interpreter-bound loop
    mixing what this program's Python does (calls, named tuples, enum
    tests, numpy item stores), and one LAPACK solve of a fixed dense system.
    """

    def __init__(self) -> None:
        n = CALIBRATION_SOLVE_N
        self._a = np.random.default_rng(0).random((n, n)) + n * np.eye(n)
        self._b = np.ones(n)

    def read(self) -> float:
        interpreter = _interpreter_loop()
        start = time.perf_counter()
        np.linalg.solve(self._a, self._b)
        return math.sqrt(interpreter * (time.perf_counter() - start))


def run_pass(ops, counter: Counter, calibration: Calibration,
             tracer: tracing.Tracer | None = None) -> tuple[float, float]:
    """Run every operation once; return the pass's wall time and its cost.

    The cost is each operation's wall time over the mean of the calibration
    readings just before and just after it, summed over the pass: the pass's
    time in calibration units.
    """
    span = tracer.span if tracer is not None else lambda name, **attrs: contextlib.nullcontext()
    wall = cost = 0.0
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(span("pass"))
        with span("calibration.read"):
            before = calibration.read()
        for op in ops:
            with span("op", label=op.label):
                elapsed = counter.run(op)
            with span("calibration.read"):
                after = calibration.read()
            wall += elapsed
            cost += elapsed / (0.5 * (before + after))
            before = after
    return wall, cost


def measure(ops, counter: Counter, seconds: float, tracer: tracing.Tracer | None):
    """(wall, cost) of each plain and each traced pass, while the next fits.

    Untraced, every pass is plain.  Traced, passes alternate plain and
    traced, at least one of each, so the difference of their medians is the
    tracing overhead.
    """
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    calibration = Calibration()
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        measured = run_pass(ops, counter, calibration, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(measured)
        done = time.perf_counter() - start
        enough = plain and (tracer is None or traced)
        if enough and done * (1 + 1 / (len(plain) + len(traced))) > seconds:
            return plain, traced


# ------------------------------------------------------------- layer probes


def time_advance_slot(tracer: tracing.Tracer) -> None:
    """``advance_slot`` on a fixed coin sequence, independent of the seed."""
    kind, mode = model.ProtocolKind.FEEDBACK_PRIORITY, model.DominanceMode.NONE
    p = model.AccessProbabilities(0.5, 0.5)
    coins = np.random.default_rng(simulate.DEFAULT_SEED).random((ADVANCE_SLOT_CALLS, 4)) < (0.3, 0.3, 0.5, 0.5)
    arrivals = [tuple(row) for row in coins[:, :2].tolist()]
    draws = [tuple(row) for row in coins[:, 2:].tolist()]
    fixed = workloads.advance_slot_fixed_args(kind, mode, p)
    advance = model.advance_slot
    for _ in range(ADVANCE_SLOT_REPEATS):
        state = model.SystemState(0, 0, model.Phase.NORMAL)
        with tracer.span("model.advance_slot", calls=ADVANCE_SLOT_CALLS):
            for a, d in zip(arrivals, draws):
                state, _ = advance(state, *fixed, a, d)


def probe_layers(tracer: tracing.Tracer) -> None:
    """Fixed small calls into each layer the workload's passes did not reach.

    Every per-layer metric is reported on every workload; a layer the
    workload does not call is measured here instead, on inputs independent
    of the seed.
    """
    p = model.AccessProbabilities(0.5, 0.5)
    with tracer.installed(), tracer.span("probe"):
        time_advance_slot(tracer)
        # the two suites also reach qbd, the oracle at k_max 200, the sweep
        # and the region clauses
        for suite in ("qbd", "containment"):
            if not tracer.has(f"verify.suite_{suite}"):
                verify.run_suite(suite)
        if not tracer.has("simulate.run_trajectory"):
            simulate.run(simulate.SimulationConfig(
                kind=model.ProtocolKind.FEEDBACK_PRIORITY, mode=model.DominanceMode.NONE, p=p,
                l=model.ArrivalRates(0.2, 0.2), horizon=100_000, seed=simulate.DEFAULT_SEED,
            ))
        for k_max in workloads.ORACLE_K_MAX:
            if not tracer.has("oracle.build_chain", k_max=k_max):
                oracle.stationary(oracle.build_chain(model.DominanceMode.DS1, p, 0.2, k_max))
        if not (tracer.has("reports.emit_table") or tracer.has("reports.emit_report")):
            reports.emit_table(["lambda1", "lambda2"], [[i / 100, 1 - i / 100] for i in range(101)], "csv")


# ------------------------------------------------------------------ metrics


def layer_metrics(records, n_passes: int, overhead_cal: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans: the workload's passes where they
    reach the layer, the probes otherwise.  Counts and per-pass totals are
    per traced pass."""

    def pick(*names, where=lambda r: True):
        for phase, per in (("pass", n_passes), ("probe", 1)):
            found = [r for r in records if r["name"] in names and r["phase"] == phase and where(r)]
            if found:
                return found, per
        raise LookupError(f"no span for {names}")

    def dur(r) -> float:
        return (r["end_ns"] - r["start_ns"]) * 1e-9

    def per_call_median(name, scale, where=lambda r: True) -> float:
        found, _ = pick(name, where=where)
        return statistics.median(dur(r) for r in found) * scale

    out: dict[str, tuple[float, str]] = {}
    found, _ = pick("model.advance_slot")
    out["model.advance_slot_ns"] = (statistics.median(dur(r) / r["calls"] for r in found) * 1e9, "ns")

    traj, per = pick("simulate.run_trajectory")
    slots = sum(r["slots"] for r in traj)
    out["simulate.run_trajectory_ns_per_slot"] = (sum(dur(r) for r in traj) / slots * 1e9, "ns")
    summ, _ = pick("simulate.summarize")
    out["simulate.summarize_ns_per_slot"] = (
        sum(dur(r) for r in summ) / sum(r["slots"] for r in summ) * 1e9, "ns")
    out["simulate.slots"] = (slots / per, "count")
    out["simulate.trajectory_bytes_per_slot"] = (sum(r["bytes"] for r in traj) / slots, "B")

    solves, per = pick("qbd.solve_rate_matrix")
    q50, q99 = np.percentile([dur(r) * 1e6 for r in solves], [50, 99])
    out["qbd.solve_rate_matrix_us_p50"] = (float(q50), "us")
    out["qbd.solve_rate_matrix_us_p99"] = (float(q99), "us")
    out["qbd.closed_form_us"] = (per_call_median("qbd.rate_matrix_closed_form", 1e6), "us")
    out["qbd.points"] = (len(solves) / per, "count")

    for k_max in workloads.ORACLE_K_MAX:
        at_k = lambda r, k=k_max: r.get("k_max") == k  # noqa: E731
        out[f"oracle.build_chain_ms.k{k_max}"] = (per_call_median("oracle.build_chain", 1e3, at_k), "ms")
        out[f"oracle.stationary_ms.k{k_max}"] = (per_call_median("oracle.stationary", 1e3, at_k), "ms")
    chains, per = pick("oracle.build_chain")
    out["oracle.states"] = (sum(r["states"] for r in chains) / per, "count")
    out["oracle.matrix_bytes"] = (max(r["states"] ** 2 * 8 for r in chains), "B")

    out["stability.union_region_contains_us"] = (
        per_call_median("stability.union_region_contains", 1e6), "us")
    out["sweep.envelope_at_us"] = (per_call_median("sweep.envelope_at", 1e6), "us")

    emitted, per = pick("reports.emit_table", "reports.emit_report")
    out["reports.emit_ms"] = (sum(dur(r) for r in emitted) / per * 1e3, "ms")
    out["reports.bytes"] = (sum(r["bytes"] for r in emitted) / per, "B")

    for suite in ("qbd", "containment"):
        out[f"verify.suite_s.{suite}"] = (per_call_median(f"verify.suite_{suite}", 1.0), "s")
    out["trace.overhead_cal"] = (overhead_cal, "cal")
    return out


# --------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    warm()
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    once, ops = workloads.build(args.workload, args.seed)
    counter = Counter()
    for op in once:  # untimed gates, such as the reference-kernel check
        counter.run(op)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = measure(ops, counter, args.seconds, tracer)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "pass_s": [wall for wall, _ in plain],
        "pass_cost": [cost for _, cost in plain],
        "op_s": counter.op_s,
        "wall_s": statistics.median(wall for wall, _ in plain),
        "wall_cal": statistics.median(cost for _, cost in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        overhead = statistics.median(c for _, c in traced) - statistics.median(c for _, c in plain)
        probe_layers(tracer)
        records = tracer.as_records()
        metrics = layer_metrics(records, len(traced), overhead)
        self_s = {layer: s / len(traced) for layer, s in tracing.self_times(records).items()}
        result.update(traced_pass_s=[wall for wall, _ in traced], self_s_per_pass=self_s,
                      per_layer={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "machine": result["machine"], "self_s_per_pass": self_s,
                                    "overhead_cal": overhead, "spans": records}))
        result["span_file"] = str(path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
