"""Grid sweep of the per-p stability regions and their numeric envelope.

For each arrival rate l1 on a grid, the largest l2 admitted by the union
region is maximised over a grid of access probabilities.  This grid
maximisation is an oracle for the closed-form envelope: it knows only the two
region clauses, not the optimiser, so agreement is evidence the optimisation
behind ``priority_boundary`` is right.

The whole l1 grid goes through one ``envelope_at`` call.  mu1'' and mu2''
do not depend on l1, so the (p1, p2) plane is evaluated once and reduced to
its column maxima of mu1'' and row maxima of mu2''; each l1 then costs only
work along one grid.  ``envelope_at`` states the identities that keep this
exact and how it breaks ties.

A caveat discovered while validating: near l1 -> 1 the true envelope margin
over the plain random-access curve shrinks like (1 - sqrt(l1))^3, faster than
the p-grid resolution loss of order l1 * p_step^2, so the NUMERIC envelope
dips below the RA curve for l1 around 0.97 and beyond at the default
p_step = 0.01.  The sandwich comparison therefore tests the closed-form
envelope (the actual containment claim), not the numeric one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stability import (
    ds1_mu2,
    ds2_l2_limit,
    ds3_mu1,
    ds3_mu2,
    priority_boundary,
    ra_boundary,
    td_boundary,
)


@dataclass(frozen=True)
class RegionDataset:
    """Per-l1 envelope values of the four schemes, plus the argmax p."""

    lambda1: np.ndarray
    priority_numeric: np.ndarray
    priority_closed: np.ndarray
    ra: np.ndarray
    td: np.ndarray
    argmax_p1: np.ndarray
    argmax_p2: np.ndarray


@dataclass(frozen=True)
class EnvelopeComparison:
    """Deviation and containment summary of a sweep dataset."""

    max_abs_deviation: float  # |numeric - closed form|, over the grid
    min_margin_closed_over_ra: float  # min of closed - ra
    min_margin_td_over_closed: float  # min of td - closed
    knee_lambda1: float  # second-difference spike of the numeric envelope


def grid(step: float) -> np.ndarray:
    """The points 0, 1/n, ..., 1 for n = 1 / step, each the double i / n.

    A step must lie in (0, 0.1], be no finer than 0.001 (a p-grid plane of
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


def _positive(value):
    """``value`` where it is positive, else -inf: a clause admitting no l2."""
    return np.where(value > 0.0, value, -np.inf)


def envelope_at(l1: float | np.ndarray, p1_grid: np.ndarray, p2_grid: np.ndarray):
    """Max admitted l2 over the p-grid at each l1, with the argmax pair.

    Queue-2-saturated clause (DS1, "A"): valid where l1 < mu1'', admits
    l2 < ds1_mu2.  Queue-1-saturated clause (DS2, "B"): admits l2 below both
    mu2'' and the DS2 l1 condition solved for l2.  A clause admitting no
    positive l2 counts as -inf, and where no cell certifies anything the
    result is (0, p1_grid[0], p2_grid[0]).

    ``l1`` is a float, giving a tuple of floats, or a 1-D array, giving three
    arrays of its length.  mu1'' and mu2'' do not depend on l1, so the plane
    is evaluated once and each l1 costs only work along one grid.  Three
    identities keep that exact: some row i has l1 < mu1''[i, j] exactly when
    l1 < max_i mu1''[i, j]; the row maximum of min(mu2''[i, :], b_i) is
    min(max_j mu2''[i, j], b_i); and the mask "positive, else -inf" is
    monotone, so it commutes with max.

    Ties resolve to the first cell in C order, as ``np.argmax`` over the
    plane would: the first A cell scans mu1'' on the columns whose A value
    equals the maximum, the first B cell scans the first row whose B maximum
    equals it, and the earlier of the two wins.
    """
    lambdas = np.atleast_1d(np.asarray(l1, dtype=float))[:, None]
    p1s = np.asarray(p1_grid, dtype=float)
    p2s = np.asarray(p2_grid, dtype=float)
    mu1 = ds3_mu1(p1s[:, None], p2s[None, :])
    mu2 = ds3_mu2(p1s[:, None], p2s[None, :])

    # (l1, p2): the A value of each column where some row makes it valid
    value_a = ds1_mu2(p2s[None, :], lambdas)
    value_a = np.where(lambdas < mu1.max(axis=0), _positive(value_a), -np.inf)
    # (l1, p1): the DS2 bound of each row, then its best B value
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_l1 = np.where(p1s > 0.0, ds2_l2_limit(p1s[None, :], lambdas), -np.inf)
    row_b = _positive(np.minimum(mu2.max(axis=1), bound_l1))

    best = np.maximum(value_a.max(axis=1), row_b.max(axis=1))
    found = np.isfinite(best)
    at_p1 = np.zeros(len(best), dtype=int)
    at_p2 = np.zeros(len(best), dtype=int)
    for k in np.flatnonzero(found):
        cells = []
        columns = np.flatnonzero(value_a[k] == best[k])
        if len(columns):
            i, jj = divmod(int(np.argmax(lambdas[k] < mu1[:, columns])), len(columns))
            cells.append((i, int(columns[jj])))
        i0 = int(np.argmax(row_b[k] == best[k]))
        if row_b[k, i0] == best[k]:
            row = _positive(np.minimum(mu2[i0], bound_l1[k, i0]))
            cells.append((i0, int(np.argmax(row == best[k]))))
        at_p1[k], at_p2[k] = min(cells)

    values = np.where(found, best, 0.0)
    if np.ndim(l1) == 0:
        return float(values[0]), float(p1s[at_p1[0]]), float(p2s[at_p2[0]])
    return values, p1s[at_p1], p2s[at_p2]


def sweep(p_step: float = 0.01, lambda_step: float = 0.005) -> RegionDataset:
    """Envelope dataset over l1 in (0, 1) at the given grid resolutions."""
    p_grid = grid(p_step)
    lambda1 = grid(lambda_step)[1:-1]

    numeric, a_p1, a_p2 = envelope_at(lambda1, p_grid, p_grid)

    closed = np.array([priority_boundary(float(l1)) for l1 in lambda1])
    ra = np.array([ra_boundary(float(l1)) for l1 in lambda1])
    td = np.array([td_boundary(float(l1)) for l1 in lambda1])

    return RegionDataset(
        lambda1=lambda1,
        priority_numeric=numeric,
        priority_closed=closed,
        ra=ra,
        td=td,
        argmax_p1=a_p1,
        argmax_p2=a_p2,
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
        knee_lambda1=knee,
    )
