"""Grid sweep of the per-p stability regions and their numeric envelope.

For each arrival rate l1 on a grid, the largest l2 admitted by the union
region is maximised over a grid of access probabilities.  This grid
maximisation is an oracle for the closed-form envelope: it knows only the two
region clauses, not the optimiser, so agreement is evidence the optimisation
behind ``priority_boundary`` is right.

A caveat discovered while validating: near l1 -> 1 the true envelope margin
over the plain random-access curve shrinks like (1 - sqrt(l1))^3, faster than
the p-grid resolution loss of order l1 * p_step^2, so the NUMERIC envelope
dips below the RA curve for l1 around 0.97 and beyond at the default
p_step = 0.01.  The sandwich comparison therefore tests the closed-form
envelope (the actual containment claim) and reports the numeric-vs-RA margin
separately for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AccessProbabilities, ArrivalRates
from .stability import (
    ds1_mu2,
    ds2_l2_limit,
    ds3_mu1,
    ds3_mu2,
    priority_boundary,
    ra_boundary,
    td_boundary,
    union_region_contains,
)


@dataclass(frozen=True)
class RegionDataset:
    """Per-l1 envelope values of the four schemes, plus the argmax p.

    ``samples`` is a point cloud of rows (l1, l2, p1, p2, stable) probing
    each column's envelope from just inside with the recorded argmax p; the
    flags are produced by the region predicates, so a False would mean the
    sweep and the predicates disagree.  Rows with a zero envelope (the far
    right of the grid, where the p-grid is too coarse to certify anything)
    carry no probe and are excluded.
    """

    lambda_step: float
    lambda1: np.ndarray
    priority_numeric: np.ndarray
    priority_closed: np.ndarray
    ra: np.ndarray
    td: np.ndarray
    argmax_p1: np.ndarray
    argmax_p2: np.ndarray
    samples: np.ndarray


@dataclass(frozen=True)
class EnvelopeComparison:
    """Deviation and containment summary of a sweep dataset."""

    max_abs_deviation: float  # |numeric - closed form|, over the grid
    min_margin_closed_over_ra: float  # min of closed - ra
    min_margin_td_over_closed: float  # min of td - closed
    min_margin_numeric_over_ra: float  # informational; negative near l1 -> 1
    knee_lambda1: float  # second-difference spike of the numeric envelope


def grid(step: float) -> np.ndarray:
    """The points 0, 1/n, ..., 1 for n = 1 / step, each the double i / n.

    A step must lie in (0, 0.1], be no finer than 0.001 (a p-grid meshgrid of
    10^6 points) and divide 1 evenly; otherwise ValueError names the rule the
    step breaks.
    """
    if not 0.0 < step <= 0.1:
        raise ValueError("not in (0, 0.1]")
    if step < 0.001:
        raise ValueError("is finer than 0.001")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError("must divide 1 evenly")
    return np.arange(n + 1) / n


def envelope_at(l1: float, p1_grid: np.ndarray, p2_grid: np.ndarray):
    """Max admitted l2 over the p-grid at one l1, with the argmax pair.

    Queue-2-saturated clause (DS1): valid where l1 < mu1'', admits
    l2 < ds1_mu2.  Queue-1-saturated clause (DS2): admits l2 below both mu2''
    and the DS2 l1 condition solved for l2.  Ties resolve to the smallest
    (p1, p2) in lexicographic order.
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


def sweep(p_step: float = 0.01, lambda_step: float = 0.005) -> RegionDataset:
    """Envelope dataset over l1 in (0, 1) at the given grid resolutions."""
    p_grid = grid(p_step)
    lambda1 = grid(lambda_step)[1:-1]

    numeric = np.empty_like(lambda1)
    a_p1 = np.empty_like(lambda1)
    a_p2 = np.empty_like(lambda1)
    for idx, l1 in enumerate(lambda1):
        numeric[idx], a_p1[idx], a_p2[idx] = envelope_at(float(l1), p_grid, p_grid)

    closed = np.array([priority_boundary(float(l1)) for l1 in lambda1])
    ra = np.array([ra_boundary(float(l1)) for l1 in lambda1])
    td = np.array([td_boundary(float(l1)) for l1 in lambda1])

    rows = []
    for idx, l1 in enumerate(lambda1):
        if numeric[idx] <= 0.0:
            continue
        probe = numeric[idx] * (1.0 - 1e-9)
        verdict = union_region_contains(
            AccessProbabilities(a_p1[idx], a_p2[idx]),
            ArrivalRates(float(l1), probe),
        )
        rows.append((float(l1), probe, a_p1[idx], a_p2[idx], float(verdict.stable)))
    samples = np.array(rows) if rows else np.empty((0, 5))

    return RegionDataset(
        lambda_step=lambda_step,
        lambda1=lambda1,
        priority_numeric=numeric,
        priority_closed=closed,
        ra=ra,
        td=td,
        argmax_p1=a_p1,
        argmax_p2=a_p2,
        samples=samples,
    )


def compare_envelopes(dataset: RegionDataset) -> EnvelopeComparison:
    """Deviation of the numeric envelope from the closed form, and the sandwich.

    The knee locator looks for the largest second difference of the numeric
    envelope, which sits where the piecewise form switches from linear to
    curved (within a couple of grid cells of l1 = 1/3).
    """
    numeric = dataset.priority_numeric
    closed = dataset.priority_closed
    second = numeric[2:] - 2.0 * numeric[1:-1] + numeric[:-2]
    knee = float(dataset.lambda1[1 + int(np.argmax(np.abs(second)))])
    return EnvelopeComparison(
        max_abs_deviation=float(np.max(np.abs(numeric - closed))),
        min_margin_closed_over_ra=float(np.min(closed - dataset.ra)),
        min_margin_td_over_closed=float(np.min(dataset.td - closed)),
        min_margin_numeric_over_ra=float(np.min(numeric - dataset.ra)),
        knee_lambda1=knee,
    )
