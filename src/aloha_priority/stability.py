"""Closed-form stability analysis for the feedback-priority protocol.

Everything here is an explicit formula; the heavy matrix-analytic machinery
for the second dominant system lives in :mod:`aloha_priority.qbd`.

Dominant system 1 (DS1) saturates queue 2.  Queue 1 then evolves as a birth
and death chain augmented with a reserved-slot flag; its traffic intensity is

    rho = l1 (1 - p1 + l1 p1 p2) / (p1 (1 - l1) (1 - l1 p2))

and when rho < 1 the stationary law is geometric with ratio rho on the
normal-phase levels, with a proportional reserved-phase component.  Queue 2's
saturated service rate comes out as mu2 = p2 (1 - l1 - l1 p2).

Dominant system 3 (DS3) saturates both queues, giving a two-state chain over
the phase alone and the saturated rates

    mu1'' = p1 / (1 + p1 p2),      mu2'' = p2 (1 - p1) / (1 + p1 p2).

The fixed-p stability region is the union of the two dominant-system regions
(``union_region_contains``); maximising its upper boundary over p yields the
protocol envelope ``priority_boundary``,

    l2 = 1 - 2 l1            for l1 <= 1/3,
    l2 = (1 - l1)^2 / (4 l1)  for l1 >  1/3,

attained at p1 = 1, p2 = min(1, (1 - l1) / (2 l1)).  For context,
``ra_boundary`` is the classical random-access envelope (1 - sqrt(l1))^2 and
``td_boundary`` the time-division outer bound 1 - l1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameterError, UnstableParameterError
from .model import AccessProbabilities, ArrivalRates


@dataclass(frozen=True)
class RegionVerdict:
    """Outcome of a membership test against a stability region.

    ``binding`` names the first violated constraint when unstable, None when
    stable.  A point exactly on a boundary counts as unstable (the strict
    inequality fails there).  For arrays of points ``stable`` is a bool array
    and ``binding`` a str array, "" where stable.
    """

    stable: bool
    binding: str | None = None


@dataclass(frozen=True)
class Ds1SteadyState:
    """Parameters of the geometric queue-1 law under saturated queue 2.

    ``ds1_stationary`` lays the law out by level: pi0 rho^k is the
    probability of k packets with the channel in normal phase, and
    eps1 rho^(k - 1) that of k >= 1 packets in a reserved slot.
    """

    rho: float
    pi0: float
    eps1: float

    def total_mass(self) -> float:
        """Total of the law over both phases and all levels; 1 for a valid steady state."""
        return (self.pi0 + self.eps1) / (1.0 - self.rho)


@dataclass(frozen=True)
class Ds3SteadyState:
    """Stationary phase occupancy and service rates with both queues saturated."""

    pi_reserved: float
    mu1: float
    mu2: float


# The four saturated service rates that bound the dominant-system regions,
# and the DS2 queue-1 clause solved for l2.  Plain arithmetic, so each takes
# floats or numpy arrays alike; the callers own the degenerate-point guards.


def ds3_mu1(p1, p2):
    """mu1'' = p1 / (1 + p1 p2): queue 1's rate with both queues saturated."""
    return p1 / (1.0 + p1 * p2)


def ds3_mu2(p1, p2):
    """mu2'' = p2 (1 - p1) / (1 + p1 p2): queue 2's rate with both saturated."""
    return p2 * (1.0 - p1) / (1.0 + p1 * p2)


def ds1_mu2(p2, l1):
    """Saturated queue 2's rate in DS1 while queue 1 is stable: p2 (1 - l1 - l1 p2)."""
    return p2 * (1.0 - l1 - l1 * p2)


def ds2_mu1(p1, l2):
    """Saturated queue 1's rate in DS2 while queue 2 is stable.

    p1 (1 - p1 - l2 p1) / (1 - p1); undefined at p1 = 1.
    """
    return p1 * (1.0 - p1 - l2 * p1) / (1.0 - p1)


def ds2_l2_limit(p1, l1):
    """The DS2 clause l1 < ds2_mu1(p1, l2) solved for l2: (1 - p1)(p1 - l1) / p1^2.

    Valid for 0 < p1 < 1, where it is the strict upper bound on l2; undefined
    at p1 = 0.
    """
    return (1.0 - p1) * (p1 - l1) / (p1 * p1)


def divisor(value: float, expression: str) -> float:
    """``value``, or DegenerateParameterError where it is 0 (underflow included)
    at any entry: a closed form is undefined exactly where something it
    divides by is 0."""
    if np.any(value == 0.0):
        raise DegenerateParameterError(f"closed form divides by {expression} = 0")
    return value


def ds1_rho(p: AccessProbabilities, l1: float) -> float:
    """Traffic intensity of queue 1 when queue 2 is saturated."""
    num = l1 * (1.0 - p.p1 + l1 * p.p1 * p.p2)
    den = p.p1 * (1.0 - l1) * (1.0 - l1 * p.p2)
    return num / divisor(den, "p1 (1 - l1)(1 - l1 p2)")


def ds1_steady_state(p: AccessProbabilities, l1: float) -> Ds1SteadyState:
    """Stationary distribution of the queue-1 chain in dominant system 1.

    Exists iff l1 < mu1'' (``ds3_mu1``), which is rho < 1 and pi0 > 0.  The
    guard is ``qbd.ds2_pi0``'s three-part rule: it raises
    UnstableParameterError unless the region clause, rho < 1 and pi0 > 0 all
    hold in floating point, since within a few ulps of mu1'' each can hold
    where another fails.  Where rho exists, so do pi0 and eps1: they divide
    by factors of rho's divisor.
    """
    rho = ds1_rho(p, l1)
    pi0 = (p.p1 - l1 * (1.0 + p.p1 * p.p2)) / (p.p1 * (1.0 - l1))
    if l1 >= ds3_mu1(p.p1, p.p2) or rho >= 1.0 or pi0 <= 0.0:
        raise UnstableParameterError(f"queue 1 unstable under saturated queue 2: rho = {rho}")
    eps1 = l1 * p.p2 / (1.0 - l1 * p.p2) * pi0
    return Ds1SteadyState(rho=rho, pi0=pi0, eps1=eps1)


def ds1_stationary(p: AccessProbabilities, l1: float, k_max: int) -> np.ndarray:
    """Geometric DS1 law up to level k_max, in ``qbd.ds2_stationary``'s layout.

    Row k of the (k_max + 1, 2) array is (pi_k, eps_k) = (pi0 rho^k,
    eps1 rho^(k - 1)), level k's mass in the normal and the reserved phase.
    eps_0 = 0: a reserved slot follows a collision, which requires queue 1
    nonempty, and the retransmission that empties it also ends the phase.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    ss = ds1_steady_state(p, l1)
    rho = ss.rho
    return np.array(
        [(ss.pi0 * rho**k, ss.eps1 * rho ** (k - 1) if k else 0.0) for k in range(k_max + 1)]
    )


def ds1_service_rate_q2(p: AccessProbabilities, l1: float) -> float:
    """Long-run success rate of saturated queue 2, valid while queue 1 is stable."""
    ds1_steady_state(p, l1)  # raises outside the stability region
    return ds1_mu2(p.p2, l1)


def ds3_steady_state(p: AccessProbabilities) -> Ds3SteadyState:
    """Two-state phase chain with both queues saturated.

    Collisions happen with probability p1 p2 in a normal slot and every
    reserved slot returns to normal, so the reserved-phase occupancy is
    p1 p2 / (1 + p1 p2).
    """
    return Ds3SteadyState(
        pi_reserved=p.p1 * p.p2 / (1.0 + p.p1 * p.p2),
        mu1=ds3_mu1(p.p1, p.p2),
        mu2=ds3_mu2(p.p1, p.p2),
    )


# The region clauses, elementwise over arrays of points.  Each test returns
# whether both of a dominant system's clauses hold and, where one fails, the
# label of the first that does in the order that system tests them.


def _both(first, first_label: str, second, second_label: str):
    return first & second, np.where(first, second_label, first_label)


def _ds1_test(p: AccessProbabilities, l: ArrivalRates):
    """DS1: l1 < mu1'', then l2 < ds1_mu2."""
    return _both(l.l1 < ds3_mu1(p.p1, p.p2), "l1", l.l2 < ds1_mu2(p.p2, l.l1), "l2")


def _ds2_test(p: AccessProbabilities, l: ArrivalRates):
    """DS2: l2 < mu2'', then l1 < ds2_mu1.

    Where p1 = 1 the first clause fails (mu2'' = 0), so ds2_mu1's division
    by 1 - p1 = 0 never decides a verdict; it runs on numpy floats, which
    give inf or nan there in place of a ZeroDivisionError.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        l1_clause = l.l1 < ds2_mu1(np.asarray(p.p1, dtype=float), l.l2)
    return _both(l.l2 < ds3_mu2(p.p1, p.p2), "l2", l1_clause, "l1")


def _verdict(stable, binding) -> RegionVerdict:
    """A plain bool and str-or-None for one point; arrays for many."""
    if np.ndim(stable) == 0:
        return RegionVerdict(stable=bool(stable), binding=None if stable else str(binding))
    return RegionVerdict(stable=stable, binding=np.where(stable, "", binding))


def ds1_region_contains(p: AccessProbabilities, l: ArrivalRates) -> RegionVerdict:
    """Stability region certified by dominant system 1.

    (l1, l2) is inside iff l1 < p1 / (1 + p1 p2) and l2 < p2 (1 - l1 - l1 p2).
    """
    return _verdict(*_ds1_test(p, l))


def ds2_region_contains(p: AccessProbabilities, l: ArrivalRates) -> RegionVerdict:
    """Stability region certified by dominant system 2.

    (l1, l2) is inside iff l2 < p2 (1 - p1) / (1 + p1 p2) and
    l1 < p1 (1 - p1 - l2 p1) / (1 - p1); the first clause is tested first,
    and it can never hold at p1 = 1.
    """
    return _verdict(*_ds2_test(p, l))


def union_region_contains(p: AccessProbabilities, l: ArrivalRates) -> RegionVerdict:
    """Stability region at fixed p: the union of the two dominant-system regions.

    When both certificates fail, ``binding`` concatenates their individual
    binding constraints.  With arrays in ``p`` or ``l`` every point of their
    broadcast is tested in one call.
    """
    (ds1, ds1_binding), (ds2, ds2_binding) = _ds1_test(p, l), _ds2_test(p, l)
    return _verdict(ds1 | ds2, "ds1." + ds1_binding + ",ds2." + ds2_binding)


def _require_unit_rate(l1: float) -> None:
    """The envelopes are defined for l1 in [0, 1] only."""
    if not 0.0 <= l1 <= 1.0:
        raise ValueError(f"l1 must lie in [0, 1], got {l1!r}")


def priority_boundary(l1: float) -> float:
    """Upper boundary of the feedback-priority stability region, optimised over p.

    Piecewise: 1 - 2 l1 up to l1 = 1/3 (where the optimal p2 saturates at 1),
    then (1 - l1)^2 / (4 l1).  The two branches join with matching value and
    slope.  Defined on [0, 1] by continuity.
    """
    _require_unit_rate(l1)
    if l1 <= 1.0 / 3.0:
        return 1.0 - 2.0 * l1
    return (1.0 - l1) ** 2 / (4.0 * l1)


def optimal_p2(l1: float) -> float:
    """Queue-2 access probability attaining the envelope (with p1 = 1)."""
    _require_unit_rate(l1)
    return min(1.0, (1.0 - l1) / divisor(2.0 * l1, "2 l1"))


def ra_boundary(l1: float) -> float:
    """Envelope of conventional random access without feedback priority."""
    _require_unit_rate(l1)
    return (1.0 - l1**0.5) ** 2


def td_boundary(l1: float) -> float:
    """Time-division outer bound: the two rates share the channel perfectly."""
    _require_unit_rate(l1)
    return 1.0 - l1
