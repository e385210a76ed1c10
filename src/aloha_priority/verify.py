"""Self-contained verification suites behind the ``verify`` CLI command.

Each suite pits two independent routes to the same quantity against each
other: closed forms against the truncated-chain oracle, the rate-matrix
solver against its explicit form, simulation against stationary laws, grid
maximisation against the optimised envelope.  A suite returns plain check
rows so the CLI can render them and tests can assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle, qbd, simulate
from .model import AccessProbabilities, ArrivalRates, DominanceMode, ProtocolKind
from .simulate import DEFAULT_SEED
from .stability import (
    ds1_pi0, ds1_rate_matrix, ds1_stationary, ds3_mu2, ds3_steady_state, union_region_contains
)
from .sweep import compare_envelopes, grid, sweep as run_sweep


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


def _check(name: str, value: float, threshold: float, passed: bool | None = None) -> CheckResult:
    """One check row; unless told otherwise it passes when value < threshold."""
    if passed is None:
        passed = value < threshold
    return CheckResult(name, float(value), float(threshold), bool(passed))


# the benchmark calls the two closed-form laws by these names
ds1_analytic_vector = ds1_stationary
ds2_analytic_vector = qbd.ds2_stationary


def _mass(r: np.ndarray, pi0: float) -> float:
    """Entry total of the matrix-geometric law with v_0 = (pi0, 0) over every
    level, sum_k R^k v_0 = (I - R)^{-1} v_0; 1 for a stable law."""
    return float(np.ones(2) @ np.linalg.solve(np.eye(2) - r, np.array([pi0, 0.0])))


def oracle_tv(mode: DominanceMode, p: AccessProbabilities, rate: float, k_max: int = 200) -> float:
    """Total variation between the truncated oracle and the closed form."""
    chain = oracle.build_chain(mode, p, rate, k_max)
    pi = oracle.stationary(chain)
    law = ds1_stationary if mode is DominanceMode.DS1 else qbd.ds2_stationary
    return oracle.total_variation(pi, law(p, rate, k_max))


def local_balance_residual(p: AccessProbabilities, l1: float) -> float:
    """Stationarity residual of the DS1 closed form against the enumerated kernel.

    The kernel is truncated at level 30 and applied through its level blocks
    (``TruncatedChain.apply``).  Levels within two of that cap are skipped:
    their inflow is distorted by the clamp, while every lower level sees
    exactly the infinite chain's dynamics, so the closed form must satisfy
    those equations to floating-point accuracy.
    """
    k_max = 30
    chain = oracle.build_chain(DominanceMode.DS1, p, l1, k_max)
    analytic = ds1_stationary(p, l1, k_max)
    residual = chain.apply(analytic) - analytic
    return float(np.max(np.abs(residual[: k_max - 1])))


def suite_ds1() -> list[CheckResult]:
    points = [
        (AccessProbabilities(0.5, 0.5), 0.2),
        (AccessProbabilities(1.0, 1.0), 0.3),
        (AccessProbabilities(0.8, 0.6), 0.25),
        (AccessProbabilities(0.35, 0.9), 0.1),
    ]
    checks = []
    for p, l1 in points:
        tag = f"p=({p.p1},{p.p2}),l1={l1}"
        checks.append(
            _check(f"ds1 oracle tv {tag}", oracle_tv(DominanceMode.DS1, p, l1), 1e-8)
        )
        checks.append(
            _check(f"ds1 balance residual {tag}", local_balance_residual(p, l1), 1e-12)
        )
        mass = _mass(ds1_rate_matrix(p, l1), ds1_pi0(p, l1))
        checks.append(_check(f"ds1 total mass {tag}", abs(mass - 1.0), 1e-12))
    return checks


def suite_qbd() -> list[CheckResult]:
    """Closed-form R on the 0.05 grid of (p1, p2, l2), then three deep points.

    Points within 1e-9 of the queue-2 bound are skipped: the grid holds one
    exact boundary hit, (0.25, 0.8, 0.5), where sp(R) = 1 and the fixed point
    cannot reach solver tolerance.  Stability equivalence is checked in both
    directions; the balance, solver and radius checks need a stable point.
    Each closed form, the solver and the balance residual take the whole
    grid, or its 1450 stable points, in one call, and each point gets the
    doubles a call of its own would.
    """
    axis = grid(0.05)
    p1, p2, l2 = (a.ravel() for a in np.meshgrid(axis[1:-1], axis[1:], axis[1:-1], indexing="ij"))
    bound = ds3_mu2(p1, p2)
    kept = np.abs(l2 - bound) > 1e-9
    p1, p2, l2, bound = p1[kept], p2[kept], l2[kept], bound[kept]
    r = qbd.rate_matrix_closed_form(AccessProbabilities(p1, p2), l2)
    sp = qbd.spectral_radius(r)
    stable = l2 < bound
    equivalence_ok = bool(np.all((sp < 1.0) == stable))
    p = AccessProbabilities(p1[stable], p2[stable])
    closed = r[stable]
    sp_closed = qbd.spectral_radius_closed_form(p, l2[stable])
    max_sp = float(np.max(np.abs(sp[stable] - sp_closed)))
    stack = qbd.qbd_blocks(p, l2[stable])
    max_balance = qbd.balance_residual(stack, closed)
    solved = qbd.solve_rate_matrix(stack)
    max_solver = float(np.max(np.abs(solved - closed)))

    checks = [
        _check("qbd R-balance residual (0.05 grid)", max_balance, 1e-10),
        _check("qbd solver vs closed form (0.05 grid)", max_solver, 1e-8),
        _check("qbd sp vs closed-form sp (0.05 grid)", max_sp, 1e-10),
        _check("qbd stability equivalence", equivalence_ok, 1.0, equivalence_ok),
    ]

    for p1, p2, l2 in [(0.5, 0.5, 0.1), (0.3, 0.8, 0.2), (0.2, 0.9, 0.3)]:
        p = AccessProbabilities(p1, p2)
        tag = f"p=({p1},{p2}),l2={l2}"
        levels = qbd.ds2_stationary(p, l2, 60)
        pi_on, eps = levels[:, 0], levels[:, 1]
        lhs = (1.0 - l2) * (1.0 - p1) * p2 * pi_on[1:]
        rhs = l2 * (1.0 - p2 + p1 * p2) * pi_on[:-1] + l2 * eps[:-1]
        checks.append(
            _check(f"qbd level-cut balance {tag}", float(np.max(np.abs(lhs - rhs))), 1e-10)
        )
        total = _mass(qbd.rate_matrix_closed_form(p, l2), levels[0, 0])
        checks.append(_check(f"qbd normalization {tag}", abs(total - 1.0), 1e-10))
        checks.append(
            _check(f"qbd oracle tv {tag}", oracle_tv(DominanceMode.DS2, p, l2), 1e-8)
        )
        checks.append(
            _check(
                f"qbd mu1 series vs closed {tag}",
                abs(qbd.ds2_service_rate_q1(p, l2) - qbd.ds2_service_rate_q1_series(p, l2)),
                1e-10,
            )
        )
    return checks


def suite_ds3() -> list[CheckResult]:
    """Simulated DS3 laws against the closed forms, 200k slots at the default seed.

    The occupancy bound is 3 batch standard errors; the two rates get 4.
    """
    checks = []
    for p1, p2 in [(0.5, 0.5), (0.7, 0.3), (0.9, 0.8)]:
        p = AccessProbabilities(p1, p2)
        metrics = simulate.run(
            simulate.SimulationConfig(
                kind=ProtocolKind.FEEDBACK_PRIORITY,
                mode=DominanceMode.DS3,
                p=p,
                l=ArrivalRates(0.5, 0.5),  # arrivals are irrelevant when saturated
                horizon=200_000,
                seed=DEFAULT_SEED,
            )
        )
        ss = ds3_steady_state(p)
        tag = f"p=({p1},{p2})"
        for law, measured, closed, stderr, multiple in (
            ("reserved-phase occupancy", metrics.backoff_occupancy, ss.pi_reserved,
             metrics.occupancy_stderr, 3),
            ("mu1", metrics.mu[0], ss.mu1, metrics.mu_stderr[0], 4),
            ("mu2", metrics.mu[1], ss.mu2, metrics.mu_stderr[1], 4),
        ):
            checks.append(
                _check(
                    f"ds3 {law} vs closed form {tag} ({multiple} se)",
                    abs(measured - closed),
                    multiple * stderr,
                )
            )
    return checks


def suite_containment() -> list[CheckResult]:
    """The sweep's envelope against the closed form, then probed from inside.

    Each positive numeric envelope value, times (1 - 1e-9), is a rate l2 that
    the region predicate must call stable at that column's argmax p; a False
    would mean the sweep and the predicates disagree.  A zero envelope (the
    far right of the grid, where the p-grid is too coarse to certify
    anything) carries no probe.
    """
    dataset = run_sweep()
    cmp = compare_envelopes(dataset)
    above_ra = cmp.min_margin_closed_over_ra
    below_td = cmp.min_margin_td_over_closed
    columns = (dataset.lambda1, dataset.priority_numeric, dataset.argmax_p1, dataset.argmax_p2)
    l1, l2, p1, p2 = (c[dataset.priority_numeric > 0.0] for c in columns)
    probes = union_region_contains(
        AccessProbabilities(p1, p2), ArrivalRates(l1, l2 * (1.0 - 1e-9))
    )
    all_stable = bool(np.all(probes.stable))
    return [
        _check("containment numeric vs closed-form envelope", cmp.max_abs_deviation, 0.02),
        _check("containment closed-form envelope above ra", above_ra, 0.0, above_ra > 0.0),
        _check("containment closed-form envelope below td", below_td, 0.0, below_td > 0.0),
        _check(
            "containment knee near 1/3",
            abs(cmp.knee_lambda1 - 1.0 / 3.0),
            2.0 * dataset.lambda1[0] + 1e-12,
        ),
        _check("containment sweep samples all stable", all_stable, 1.0, all_stable),
    ]


SUITES = {
    "ds1": suite_ds1,
    "qbd": suite_qbd,
    "ds3": suite_ds3,
    "containment": suite_containment,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
