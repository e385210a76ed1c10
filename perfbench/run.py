"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload sim-mixed --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory, so nothing is installed.
Workloads and their rationale are in ``workloads.py`` and ``README.md``.

With ``--trace 0`` the end-to-end metrics are measured with tracing off:

* ``setup_s``: process start until the package is imported and every layer
  warmed by one small call; the median of ``SETUP_SAMPLES`` fresh processes.
* ``wall_cal``: median time of one full pass of the workload, every output
  checked, in units of fixed calibration work timed before and after each
  operation (see ``worker.Calibration``).  The raw wall time ``wall_s`` is
  printed and kept in the result file; it drifts with the machine's speed
  too much to carry a bound.
* ``peak_rss_mb``: memory high-water mark of the workload process.

Failed operations over attempted ones are the ``failed`` and ``attempted``
fields of the result; ``correct`` is true only when none failed.  With
``--trace 1`` a separate traced run reports the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("sim-mixed", "analytic-grid", "oracle-scale")  # as workloads.WORKLOADS; no numpy here
SETUP_SAMPLES = 7  # the workload process plus six set-up-only processes
DEADLINE_S = 170.0  # the whole run, set-up included
BLAS_THREADS = "1"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one BLAS thread: the closed loop has one caller, and a second thread
    # on a small shared machine mostly adds run-to-run spread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # compile from source every time, as a fresh checkout does, and write
    # nothing next to the sources
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class ChildFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run the worker; return its set-up seconds and its output lines.

    Set-up runs from just before the process is started to the ``ready``
    line, both read from the system-wide monotonic clock.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args} exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if not ready:
        raise ChildFailed(f"worker {args} never reported ready")
    return float(ready[0].split()[1]) - started, lines


def _print_metrics(metrics: dict[str, dict], result: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "aloha_priority" / "__init__.py").is_file():
        print(f"no package sources at {SRC}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(["--setup-only"], deadline)[0])
        setup, lines = spawn([
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ], deadline)
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 3
    setups.append(setup)
    worker = json.loads(lines[-1])

    if args.trace:
        metrics = worker["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_cal": {"value": worker["wall_cal"], "unit": "cal"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": worker["failed"] == 0 and worker["attempted"] >= 1,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups, "worker": worker}
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"result-{args.workload}{suffix}.json").write_text(json.dumps(detail, indent=2))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; machine {json.dumps(worker['machine'])}")
    _print_metrics(metrics, result)
    print(f"{'wall_s (raw, unbounded)':42s} {worker['wall_s']:.6g} s")
    if args.trace:
        for layer, seconds in sorted(worker["self_s_per_pass"].items(), key=lambda kv: -kv[1]):
            print(f"self time per traced pass  {layer:14s} {seconds:.6g} s")
        print(f"spans written to {worker['span_file']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
