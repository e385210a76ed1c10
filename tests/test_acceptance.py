"""Acceptance gate: seven end-to-end criteria, one verdict line each.

Every criterion prints ``criterion N (<label>): PASS|FAIL`` so a plain test
log reads as a checklist; the assert carries the failing details.  Monte
Carlo criteria use the packaged default seed, making every verdict
deterministic and reproducible.
"""

import time

import numpy as np

from aloha_priority import verify
from aloha_priority.cli import main
from aloha_priority.model import (
    AccessProbabilities,
    ArrivalRates,
    DominanceMode,
    ProtocolKind,
)
from aloha_priority.qbd import (
    ds2_service_rate_q1,
    rate_matrix_closed_form,
    spectral_radius,
    spectral_radius_closed_form,
)
from aloha_priority.simulate import DEFAULT_SEED, SimulationConfig, run
from aloha_priority.stability import (
    ds1_rho,
    ds1_service_rate_q2,
    ds3_steady_state,
    optimal_p2,
    priority_boundary,
    ra_boundary,
    td_boundary,
)
from aloha_priority.sweep import sweep


def _verdict(number: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\ncriterion {number} ({label}): {status}")
    assert not failures, failures


def _simulate(mode, p, l, horizon=1_000_000):
    return run(
        SimulationConfig(
            kind=ProtocolKind.FEEDBACK_PRIORITY,
            mode=mode,
            p=AccessProbabilities(*p),
            l=ArrivalRates(*l),
            horizon=horizon,
            seed=DEFAULT_SEED,
        )
    )


def test_criterion_1_envelope_closed_form_and_sweep():
    started = time.perf_counter()
    failures = []

    expected = [
        (0.1, 0.8),
        (1.0 / 3.0, 1.0 - 2.0 * (1.0 / 3.0)),
        (0.5, 0.125),
    ]
    for l1, l2 in expected:
        got = priority_boundary(l1)
        if got != l2:
            failures.append(f"priority_boundary({l1}) = {got!r}, expected {l2!r}")

    dataset = sweep(p_step=0.01, lambda_step=0.005)
    window = (dataset.lambda1 >= 0.02 - 1e-12) & (dataset.lambda1 <= 0.98 + 1e-12)
    deviation = float(
        np.max(np.abs(dataset.priority_numeric[window] - dataset.priority_closed[window]))
    )
    if not deviation < 0.02:
        failures.append(f"sweep deviation {deviation} >= 0.02")

    elapsed = time.perf_counter() - started
    if not elapsed < 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")

    _verdict(1, "envelope closed form + numeric sweep", failures)


def test_criterion_2_qbd_closed_form_grid_and_boundary_witness():
    failures = [
        f"{check.name}: value {check.value} vs threshold {check.threshold}"
        for check in verify.suite_qbd()
        if not check.passed
    ]

    # exactly on the queue-2 stability bound the chain is critical
    witness = spectral_radius(
        rate_matrix_closed_form(AccessProbabilities(0.5, 0.5), 0.2)
    )
    if not abs(witness - 1.0) < 1e-9:
        failures.append(f"boundary witness sp(R) = {witness!r}, not 1 within 1e-9")
    witness_scalar = spectral_radius_closed_form(AccessProbabilities(0.5, 0.5), 0.2)
    if not abs(witness_scalar - 1.0) < 1e-9:
        failures.append(f"boundary witness scalar sp = {witness_scalar!r}")

    _verdict(2, "rate-matrix closed form on 0.05 grid + critical witness", failures)


def test_criterion_3_oracle_equivalence_ten_points():
    ds1_points = [
        ((0.5, 0.5), 0.2),
        ((1.0, 1.0), 0.3),
        ((0.8, 0.6), 0.25),
        ((0.35, 0.9), 0.1),
        ((0.6, 0.2), 0.3),
    ]
    ds2_points = [
        ((0.5, 0.5), 0.1),
        ((0.3, 0.8), 0.2),
        ((0.2, 0.9), 0.3),
        ((0.4, 0.6), 0.15),
        ((0.7, 0.9), 0.05),
    ]
    failures = []
    for p, l1 in ds1_points:
        prob = AccessProbabilities(*p)
        assert ds1_rho(prob, l1) <= 0.8  # point-selection precondition
        tv = verify.oracle_tv(DominanceMode.DS1, prob, l1, k_max=200)
        if not tv < 1e-8:
            failures.append(f"ds1 tv at p={p}, l1={l1}: {tv}")
    for p, l2 in ds2_points:
        prob = AccessProbabilities(*p)
        assert spectral_radius_closed_form(prob, l2) <= 0.8
        tv = verify.oracle_tv(DominanceMode.DS2, prob, l2, k_max=200)
        if not tv < 1e-8:
            failures.append(f"ds2 tv at p={p}, l2={l2}: {tv}")

    _verdict(3, "truncated-chain oracle within tv 1e-8 at 10 points", failures)


def test_criterion_4_service_rate_laws_three_se():
    failures = []

    for p, l1 in [
        ((0.5, 0.5), 0.2),
        ((0.8, 0.6), 0.25),
        ((0.35, 0.9), 0.1),
        ((1.0, 1.0), 0.3),
        ((0.6, 0.2), 0.3),
    ]:
        metrics = _simulate(DominanceMode.DS1, p, (l1, 0.5))
        analytic = ds1_service_rate_q2(AccessProbabilities(*p), l1)
        gap = abs(metrics.mu[1] - analytic)
        if not gap <= 3.0 * metrics.mu_stderr[1]:
            failures.append(f"ds1 mu2 at p={p}, l1={l1}: gap {gap}")

    for p, l2 in [
        ((0.5, 0.5), 0.1),
        ((0.3, 0.8), 0.2),
        ((0.2, 0.9), 0.3),
        ((0.4, 0.6), 0.15),
        ((0.7, 0.9), 0.05),
    ]:
        metrics = _simulate(DominanceMode.DS2, p, (0.5, l2))
        analytic = ds2_service_rate_q1(AccessProbabilities(*p), l2)
        gap = abs(metrics.mu[0] - analytic)
        if not gap <= 3.0 * metrics.mu_stderr[0]:
            failures.append(f"ds2 mu1 at p={p}, l2={l2}: gap {gap}")

    for p in [(0.5, 0.5), (0.7, 0.3), (0.9, 0.8), (0.35, 0.9), (0.6, 0.2)]:
        metrics = _simulate(DominanceMode.DS3, p, (0.5, 0.5))
        analytic = ds3_steady_state(AccessProbabilities(*p)).pi_reserved
        gap = abs(metrics.backoff_occupancy - analytic)
        if not gap <= 3.0 * metrics.occupancy_stderr:
            failures.append(f"ds3 occupancy at p={p}: gap {gap}")

    _verdict(4, "empirical service rates within 3 se at 5 points per law", failures)


def test_criterion_5_containment_beyond_plain_random_access():
    failures = []

    # five rates 0.02 above the plain random-access envelope yet inside the
    # feedback-priority region; simulated verdicts must come back stable
    for l1 in (0.05, 0.15, 0.25, 0.4, 0.5):
        l2 = ra_boundary(l1) + 0.02
        assert ra_boundary(l1) < l2 < priority_boundary(l1)  # point selection
        p2 = optimal_p2(l1)
        metrics = _simulate(DominanceMode.NONE, (1.0, p2), (l1, l2))
        if metrics.verdict != ("stable", "stable"):
            failures.append(f"l=({l1},{l2:.4f}), p2*={p2}: verdict {metrics.verdict}")

    grid = np.arange(201) / 200
    for l1 in grid:
        ra, pr, td = ra_boundary(float(l1)), priority_boundary(float(l1)), td_boundary(float(l1))
        if not ra <= pr <= td:
            failures.append(f"sandwich violated at l1={l1}: {ra}, {pr}, {td}")

    _verdict(5, "stable verdicts beyond ra envelope + ra <= priority <= td", failures)


def test_criterion_6_overload_drift_law():
    failures = []
    points = [
        (0.99, 0.30, (1.0, 0.0)),
        (0.99, 0.60, (1.0, 0.0)),
        (0.995, 0.50, (1.0, 0.01)),
    ]
    for l1, l2, p in points:
        assert l1 + l2 > 1.0  # point selection: strictly outside every region
        metrics = _simulate(DominanceMode.NONE, p, (l1, l2))
        total = metrics.drift[0] + metrics.drift[1]
        target = l1 + l2 - 1.0
        if not abs(total - target) <= 0.02:
            failures.append(
                f"l=({l1},{l2}), p={p}: total drift {total:.5f} vs {target:.5f}"
            )

    _verdict(6, "total backlog drift matches arrival excess within 0.02", failures)


def test_criterion_7_byte_identical_reports(tmp_path):
    failures = []
    base = [
        "simulate", "--mode", "ds1",
        "--p1", "0.5", "--p2", "0.5", "--l1", "0.2", "--l2", "0.5",
        "--slots", "200000",
    ]
    for fmt in ("csv", "json"):
        first = tmp_path / f"a.{fmt}"
        second = tmp_path / f"b.{fmt}"
        assert main(base + ["--format", fmt, "--out", str(first)]) == 0
        assert main(base + ["--format", fmt, "--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{fmt} reports differ between identical runs")

    _verdict(7, "repeated simulate runs byte-identical", failures)
