"""Command-line surface.

Subcommands: boundary, region, sweep, simulate, analyze qbd, verify.
Exit codes: 0 success, 1 usage error (a parameter the model's types reject
as out of range, an unwritable --out path and a simulate --slots too large
to allocate included),
2 verification failure, 3 degenerate or unstable parameter rejection (or a
solver that cannot converge).  All output is deterministic given the same
flags and seed, with one qualification: the last digits of the oracle total
variation that ``verify --suite ds1`` and ``--suite qbd`` print come from a
dense LAPACK solve and can change with the BLAS thread count; the verdicts
do not.  The argument parser is built once per process, on the first
``main`` call, and every later call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import qbd, reports, simulate, verify
from .errors import AlohaError
from .model import AccessProbabilities, ArrivalRates, DominanceMode, ProtocolKind, require_rate
from .stability import priority_boundary, ra_boundary, td_boundary, union_region_contains
from .sweep import grid, sweep as run_sweep

_SCHEMES = {"priority": priority_boundary, "ra": ra_boundary, "td": td_boundary}
_KINDS = {
    "priority": ProtocolKind.FEEDBACK_PRIORITY,
    "conventional": ProtocolKind.CONVENTIONAL_RA,
}


def _step(text: str) -> float:
    value = float(text)
    try:
        grid(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"step {text} {exc}") from None
    return value


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and reused:
    parsing leaves it unchanged, and building it costs about 2 ms."""
    parser = argparse.ArgumentParser(
        prog="aloha-priority",
        description="stability analysis of two queues under slotted random "
        "access with collision-feedback priority",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    b = commands.add_parser("boundary", help="envelope curve of one scheme")
    b.add_argument("--scheme", choices=sorted(_SCHEMES), required=True)
    b.add_argument("--step", type=_step, default=0.005)
    _add_output_flags(b)
    b.set_defaults(func=cmd_boundary)

    r = commands.add_parser("region", help="stability verdicts on a rate grid at fixed p")
    r.add_argument("--p1", type=float, required=True)
    r.add_argument("--p2", type=float, required=True)
    r.add_argument("--lambda-step", type=_step, default=0.01)
    _add_output_flags(r)
    r.set_defaults(func=cmd_region)

    s = commands.add_parser("sweep", help="numeric envelope over the p-grid")
    s.add_argument("--p-step", type=_step, default=0.01)
    s.add_argument("--lambda-step", type=_step, default=0.005)
    _add_output_flags(s)
    s.set_defaults(func=cmd_sweep)

    sim = commands.add_parser("simulate", help="Monte Carlo slot simulation")
    sim.add_argument("--kind", choices=sorted(_KINDS), default="priority")
    sim.add_argument("--mode", choices=[m.value for m in DominanceMode], default="none")
    sim.add_argument("--p1", type=float, required=True)
    sim.add_argument("--p2", type=float, required=True)
    sim.add_argument("--l1", type=float, required=True)
    sim.add_argument("--l2", type=float, required=True)
    sim.add_argument("--slots", type=int, default=1_000_000)
    sim.add_argument("--seed", type=int, default=simulate.DEFAULT_SEED)
    sim.add_argument("--warmup", type=int, default=None)
    _add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    an = commands.add_parser("analyze", help="closed-form analysis reports")
    an_sub = an.add_subparsers(dest="analysis", required=True)
    aq = an_sub.add_parser("qbd", help="queue-2 chain under saturated queue 1")
    aq.add_argument("--p1", type=float, required=True)
    aq.add_argument("--p2", type=float, required=True)
    aq.add_argument("--l2", type=float, required=True)
    _add_output_flags(aq)
    aq.set_defaults(func=cmd_analyze_qbd)

    v = commands.add_parser("verify", help="run a cross-validation suite")
    v.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    _add_output_flags(v)
    v.set_defaults(func=cmd_verify)

    return parser


def cmd_boundary(args: argparse.Namespace) -> int:
    fn = _SCHEMES[args.scheme]
    rows = [[l1, fn(l1)] for l1 in grid(args.step).tolist()]
    _write(reports.emit_table(["lambda1", "lambda2"], rows, args.format), args.out)
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    p = AccessProbabilities(args.p1, args.p2)
    # one Python float per rate, which all of its rows share; float columns
    # would make two floats a row, 0.47 MB more at the peak of a 0.01 grid
    rates = grid(args.lambda_step)[1:-1].astype(object)
    l1, l2 = np.repeat(rates, len(rates)), np.tile(rates, len(rates))
    verdict = union_region_contains(p, ArrivalRates(l1.astype(float), l2.astype(float)))
    columns = (l1, l2, verdict.stable, verdict.binding)
    rows = list(zip(*(c.tolist() for c in columns)))
    _write(
        reports.emit_table(["lambda1", "lambda2", "stable", "binding"], rows, args.format),
        args.out,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    dataset = run_sweep(p_step=args.p_step, lambda_step=args.lambda_step)
    # every field is one column of the table
    columns = vars(dataset)
    rows = list(zip(*(c.tolist() for c in columns.values())))
    _write(reports.emit_table(list(columns), rows, args.format), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = simulate.SimulationConfig(
        kind=_KINDS[args.kind],
        mode=DominanceMode(args.mode),
        p=AccessProbabilities(args.p1, args.p2),
        l=ArrivalRates(args.l1, args.l2),
        horizon=args.slots,
        seed=args.seed,
        warmup=args.warmup,
    )
    metrics = simulate.run(config)
    inputs = ("kind", "mode", "p1", "p2", "l1", "l2", "slots", "warmup", "seed")
    # the warmup reported is the one run, which the config derives when unset
    report = {name: getattr(config if name == "warmup" else args, name) for name in inputs}
    for name, value in vars(metrics).items():
        if isinstance(value, tuple):
            report[f"{name}_q1"], report[f"{name}_q2"] = value
        else:
            report[name] = value
    _write(reports.emit_report(report, args.format), args.out)
    return 0


def cmd_analyze_qbd(args: argparse.Namespace) -> int:
    p = AccessProbabilities(args.p1, args.p2)
    require_rate("l2", args.l2)
    # the one DS2 guard: rejects points outside l2 < mu2'', points where
    # sp(R) rounds to 1 and points where pi0 rounds to 0 or below, before
    # the solver can stall on them
    pi0 = qbd.ds2_pi0(p, args.l2)
    blocks = qbd.qbd_blocks(p, args.l2)
    r = qbd.rate_matrix_closed_form(p, args.l2)
    solved = qbd.solve_rate_matrix(blocks)
    report = {"p1": args.p1, "p2": args.p2, "l2": args.l2}
    for name, matrix in {**vars(blocks), "r_closed": r, "r_solver": solved}.items():
        for (i, j), value in np.ndenumerate(matrix):
            report[f"{name}_{i}{j}"] = value
    report.update(
        {
            "r_balance_residual": qbd.balance_residual(blocks, r),
            "solver_max_delta": abs(solved - r).max(),
            "sp_closed_form": qbd.spectral_radius_closed_form(p, args.l2),
            "sp_eigen": qbd.spectral_radius(r),
            "pi0": pi0,
            "mu1_closed_form": qbd.ds2_service_rate_q1(p, args.l2),
            "mu1_series": qbd.ds2_service_rate_q1_series(p, args.l2),
        }
    )
    _write(reports.emit_report(report, args.format), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite)
    rows = [[c.name, c.value, c.threshold, c.passed] for c in results]
    _write(
        reports.emit_table(["check", "value", "threshold", "passed"], rows, args.format),
        args.out,
    )
    return 0 if all(c.passed for c in results) else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except AlohaError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # OSError: an --out path that cannot be written; MemoryError: a
        # --slots too large to allocate
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
