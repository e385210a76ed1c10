"""Exact certificates for the closed forms.

Sympy symbols go through the package's own functions, so each identity is
proved for the code as written, not sampled at floating-point points.  The
functions build their expressions with float literals (``1.0 - l2``), so
every result is passed through ``nsimplify`` before ``simplify`` decides
whether it is identically zero.
"""

import operator
from itertools import product
from types import SimpleNamespace

import numpy as np
import sympy

from aloha_priority import qbd
from aloha_priority.model import DominanceMode, Phase, ProtocolKind, slot_table
from aloha_priority.stability import (
    ds1_mu2,
    ds1_rho,
    ds1_stationary,
    ds2_l2_limit,
    ds2_mu1,
    ds3_mu1,
    ds3_mu2,
    optimal_p2,
    priority_boundary,
    ra_boundary,
    td_boundary,
)

P1, P2, L1, L2, X = sympy.symbols("p1 p2 l1 l2 x")
# qbd only reads p.p1 and p.p2, and AccessProbabilities would reject symbols
SYMBOLIC_P = SimpleNamespace(p1=P1, p2=P2)

# the two sides of the envelope's knee as images of u >= 0 and w > 0:
# l1 = 1 / (3 + u) sweeps (0, 1/3] and l1 = (1 + w) / (3 + w) sweeps (1/3, 1)
_U = sympy.Symbol("u", nonnegative=True)
_W = sympy.Symbol("w", positive=True)
BELOW_KNEE = {L1: 1 / (3 + _U)}
ABOVE_KNEE = {L1: (1 + _W) / (3 + _W)}
# s = sqrt(l1) on each side, as images of w > 0 over a range that holds the
# side: s = 2 / (3 + w) sweeps (0, 2/3), past 1/sqrt(3) as 1/3 < 4/9, and
# s = 1 / (1 + w) sweeps (0, 1)
_S = sympy.Symbol("s", positive=True)
S_BELOW_KNEE = {_S: 2 / (3 + _W)}
S_ABOVE_KNEE = {_S: 1 / (1 + _W)}


def _is_zero(expr) -> bool:
    return sympy.simplify(sympy.nsimplify(expr)) == 0


def _on(expr, domain):
    """``expr`` over a domain's symbols, factored so that sympy can read its sign."""
    return sympy.factor(sympy.simplify(sympy.nsimplify(expr).subs(domain)))


def test_closed_form_rate_matrix_solves_the_quadratic():
    blocks = qbd.qbd_blocks(SYMBOLIC_P, L2)
    r = qbd.rate_matrix_closed_form(SYMBOLIC_P, L2)
    residual = blocks.a2 + (blocks.a1 - np.eye(2)) @ r + blocks.a0 @ (r @ r)
    assert all(_is_zero(entry) for entry in residual.ravel())


def test_closed_form_spectral_radius_is_an_eigenvalue_of_r():
    r = sympy.Matrix(qbd.rate_matrix_closed_form(SYMBOLIC_P, L2).tolist()).applyfunc(
        sympy.nsimplify
    )
    characteristic = r.charpoly(X).as_expr()
    sp = sympy.nsimplify(qbd.spectral_radius_closed_form(SYMBOLIC_P, L2))
    assert _is_zero(characteristic.subs(X, sp))


def test_closed_form_spectral_radius_is_the_larger_root():
    # sp(R) = (tr + sqrt(disc)) / 2 with disc = tr^2 - 4 det of the closed-form
    # R: the rational part of spectral_radius_closed_form is tr / 2, its one
    # square root squares to disc / 4 and carries a nonnegative coefficient
    r = sympy.Matrix(qbd.rate_matrix_closed_form(SYMBOLIC_P, L2).tolist()).applyfunc(
        sympy.nsimplify
    )
    tr, disc = r.trace(), r.trace() ** 2 - 4 * r.det()
    sp = sympy.nsimplify(qbd.spectral_radius_closed_form(SYMBOLIC_P, L2))
    (root,) = [a for a in sp.atoms(sympy.Pow) if a.exp == sympy.Rational(1, 2)]
    linear = sp.subs(root, X)
    coefficient = sympy.diff(linear, X)
    assert _is_zero(sympy.diff(coefficient, X))
    assert _is_zero(linear.subs(X, 0) - tr / 2)
    assert _is_zero(coefficient**2 * root.base - disc / 4)

    # the closed form's domain p1 in [0, 1), p2 in (0, 1], l2 in (0, 1), which
    # holds the stable region, as the image of u, v >= 0 and w > 0
    u, v = sympy.symbols("u v", nonnegative=True)
    w = sympy.Symbol("w", positive=True)
    domain = {P1: u / (1 + u), P2: 1 / (1 + v), L2: w / (1 + w)}
    for expr in (coefficient, disc):
        assert sympy.factor(sympy.simplify(expr.subs(domain))).is_nonnegative


def test_ds2_clause_inverts():
    assert _is_zero(ds2_mu1(P1, ds2_l2_limit(P1, L1)) - L1)


def test_ds1_stability_guard_is_the_region_l1_clause():
    # (1 - rho) times rho's divisor is (mu1'' - l1)(1 + p1 p2), so wherever
    # that divisor is positive, ds1_steady_state's rho < 1 and
    # ds1_region_contains' l1 < mu1'' are one condition
    gap = (1 - ds1_rho(SYMBOLIC_P, L1)) * P1 * (1 - L1) * (1 - L1 * P2)
    assert _is_zero(gap - (P1 - L1 * (1 + P1 * P2)))
    assert _is_zero(gap - (ds3_mu1(P1, P2) - L1) * (1 + P1 * P2))


def _envelope_branch(below_knee: bool, fn=priority_boundary):
    """``priority_boundary`` or ``optimal_p2`` as an expression in l1 on one
    side of l1 = 1/3.

    l1 is an ``_InRange`` (below) that answers the range check as lying in
    [0, 1], ``divisor``'s zero test as False, and each branch test as told:
    ``l1 <= 1/3`` holds below the knee, and ``optimal_p2``'s
    ``min(1, (1 - l1) / (2 l1))`` takes its second argument only above it
    (``test_optimal_p2_branch_test_is_the_knee``).  The function then
    returns that branch's formula.
    """

    class OneSided(_InRange):
        def __ge__(self, other):  # 0 <= l1
            return True

        def __le__(self, other):  # l1 <= 1 and l1 <= 1/3
            return other == 1.0 or below_knee

        def __lt__(self, other):  # (1 - l1) / (2 l1) < 1
            return not below_knee

    return sympy.nsimplify(_expr(fn(OneSided(L1))))


def test_envelope_branches_meet_at_one_third_in_value_and_slope():
    left, right = _envelope_branch(True), _envelope_branch(False)
    assert left != right  # the symbol really reached both branches
    knee = sympy.Rational(1, 3)
    assert _is_zero((left - right).subs(L1, knee))
    assert _is_zero(sympy.diff(left - right, L1).subs(L1, knee))


def test_optimal_p2_branch_test_is_the_knee():
    # _envelope_branch answers optimal_p2's min(1, (1 - l1) / (2 l1)) by
    # side; (1 - l1) / (2 l1) - 1 = (1 - 3 l1) / (2 l1) bears it out
    vertex = _envelope_branch(False, optimal_p2)
    assert _is_zero(vertex - (1 - L1) / (2 * L1))
    assert _on(vertex - 1, BELOW_KNEE).is_nonnegative
    assert _on(1 - vertex, ABOVE_KNEE).is_positive
    assert _envelope_branch(True, optimal_p2) == 1


def test_ds1_region_peaks_at_the_envelope():
    # ds3_mu1 grows with p1, so p1 = 1 is the loosest DS1 l1 clause; and
    # ds1_mu2 does not read p1, so DS1's best l2 bound is max over p2 of ds1_mu2
    assert _is_zero(sympy.diff(ds3_mu1(P1, P2), P1) - 1 / (1 + P1 * P2) ** 2)
    bound = ds1_mu2(P2, L1)
    assert P1 not in bound.free_symbols
    # ds1_mu2 is concave in p2, so a zero slope inside (0, 1), or a
    # nonnegative slope at p2 = 1, marks its maximum on (0, 1]
    slope = sympy.diff(bound, P2)
    assert _is_zero(slope - (1 - L1 - 2 * L1 * P2))
    assert _is_zero(sympy.diff(slope, P2) + 2 * L1)
    for below, domain in ((True, BELOW_KNEE), (False, ABOVE_KNEE)):
        p2_star = _envelope_branch(below, optimal_p2)
        if below:
            assert _on(slope.subs(P2, 1), domain).is_nonnegative  # 1 - 3 l1
        else:
            assert _is_zero(slope.subs(P2, p2_star))
            assert _on(p2_star, domain).is_positive
        # the maximum is the envelope, and DS1's l1 clause holds at (1, p2*)
        assert _is_zero(bound.subs(P2, p2_star) - _envelope_branch(below))
        assert _on(ds3_mu1(1, p2_star) - L1, domain).is_positive


def test_ds2_region_reaches_the_envelope_and_no_higher():
    # DS2's l1 clause is l2 < ds2_l2_limit (test_ds2_clause_inverts; ds2_mu1
    # falls with l2).  ds3_mu2 grows with p2 and ds2_l2_limit does not read
    # p2, so at each p1 the DS2 bound min(ds3_mu2, ds2_l2_limit) is at most
    # min(f, h), with f = ds3_mu2(p1, 1) and h = ds2_l2_limit(p1, l1), and
    # equals it at p2 = 1
    assert _is_zero(sympy.diff(ds3_mu2(P1, P2), P2) - (1 - P1) / (1 + P1 * P2) ** 2)
    f, h = ds3_mu2(P1, 1), ds2_l2_limit(P1, L1)
    assert P2 not in h.free_symbols
    # f falls with p1; h rises up to the peak 2 l1 / (1 + l1) and falls after
    assert _is_zero(sympy.diff(f, P1) + 2 / (1 + P1) ** 2)
    peak = 2 * L1 / (1 + L1)
    assert _is_zero(sympy.diff(h, P1) - (1 + L1) * (peak - P1) / P1**3)
    # f and h cross at p1 = l1 / (1 - l1), both equal to 1 - 2 l1 there
    cross = L1 / (1 - L1)
    below, above = _envelope_branch(True), _envelope_branch(False)
    assert _is_zero(f.subs(P1, cross) - below)
    assert _is_zero(h.subs(P1, cross) - below)
    # h's peak is the upper branch, and at the peak f - h has the sign of 3 l1 - 1
    assert _is_zero(h.subs(P1, peak) - above)
    gap = (f - h).subs(P1, peak)
    assert _is_zero(gap - (1 - L1) * (1 + L1) * (3 * L1 - 1) / (4 * L1 * (3 * L1 + 1)))
    # above the knee min(f, h) <= h <= h(peak), and f >= h at the peak: the
    # maximum is the upper branch, at p1 = peak in (0, 1)
    assert _on(gap, ABOVE_KNEE).is_positive
    assert _on(1 - peak, ABOVE_KNEE).is_positive
    # below the knee f < h at the peak, so the crossing lies left of it,
    # where h still rises: h <= 1 - 2 l1 left of the crossing and f <= 1 - 2 l1
    # right of it; the maximum is the lower branch, at p1 = cross in (0, 1)
    assert _on(-gap, BELOW_KNEE).is_nonnegative
    assert _on(peak - cross, BELOW_KNEE).is_nonnegative
    assert _on(cross, BELOW_KNEE).is_positive
    assert _on(1 - cross, BELOW_KNEE).is_positive


def test_union_region_grid_maxima_meet_the_envelope():
    # the certificates above, sampled: on a p-grid no point of either region
    # bounds l2 above the envelope, DS2 alone comes within the grid's reach
    # of it (slopes at most 2 times half the p1 step at the lower branch's
    # kink), and DS1 reaches it at p = (1, optimal_p2)
    p1 = np.linspace(0.0, 1.0, 2001)[1:, None]
    p2 = np.linspace(0.0, 1.0, 501)[None, 1:]
    for l1 in np.arange(1, 10) / 10:
        envelope = priority_boundary(l1)
        ds1 = np.where(l1 < ds3_mu1(p1, p2), ds1_mu2(p2, l1), 0.0).max()
        ds2 = np.minimum(ds3_mu2(p1, p2), ds2_l2_limit(p1, l1)).max()
        assert max(ds1, ds2) <= envelope + 1e-12, l1
        assert ds2 >= envelope - 1e-3, l1
        best = optimal_p2(l1)
        assert l1 < ds3_mu1(1.0, best)
        assert abs(ds1_mu2(best, l1) - envelope) < 1e-15, l1


def test_priority_envelope_lies_strictly_between_ra_and_td():
    # the paper's headline containment: on each side of the knee the
    # feedback-priority envelope lies strictly above conventional random
    # access and strictly below time division.  ra_boundary reads sqrt(l1),
    # so its gap is factored in s with l1 = s**2
    assert sympy.Rational(1, 3) < sympy.Rational(2, 3) ** 2
    sides = (
        (True, _S * (2 - 3 * _S), L1, S_BELOW_KNEE, BELOW_KNEE),
        (
            False,
            (1 - _S) ** 3 * (1 + 3 * _S) / (4 * _S**2),
            (1 - L1) * (5 * L1 - 1) / (4 * L1),
            S_ABOVE_KNEE,
            ABOVE_KNEE,
        ),
    )
    for below, over_ra, under_td, s_domain, domain in sides:
        priority = _envelope_branch(below)
        ra = _envelope_branch(below, ra_boundary)
        td = _envelope_branch(below, td_boundary)
        assert _is_zero((priority - ra).subs(L1, _S**2) - over_ra)
        assert _is_zero(td - priority - under_td)
        assert _on(over_ra, s_domain).is_positive
        assert _on(under_td, domain).is_positive


class _InRange:
    """A sympy expression that answers every comparison with False.

    ``ds1_stationary`` reaches ``ds1_steady_state``, which guards its inputs
    with four comparisons: ``ds1_rho``'s ``den == 0.0``, through
    ``stability.divisor``, and its own ``l1 >= mu1''``, ``rho >= 1`` and
    ``pi0 <= 0``.  A symbol cannot decide any of them; answered False, they
    let the function return the stable law, its arithmetic kept symbolic.
    Arithmetic keeps the operand's class, so a subclass that answers
    otherwise (``_envelope_branch``) keeps its answers through a whole
    formula.
    """

    def __init__(self, expr):
        self.expr = expr

    def __eq__(self, other):
        return False

    __ge__ = __le__ = __eq__


def _expr(value):
    return value.expr if isinstance(value, _InRange) else value


def _lift(op):
    def forward(self, other):
        return type(self)(op(self.expr, _expr(other)))

    def reverse(self, other):
        return type(self)(op(other, self.expr))

    return forward, reverse


for _name in ("add", "sub", "mul", "truediv", "pow"):
    _forward, _reverse = _lift(getattr(operator, _name))
    setattr(_InRange, f"__{_name}__", _forward)
    setattr(_InRange, f"__r{_name}__", _reverse)


def test_ds1_geometric_law_balances_the_tabulated_kernel():
    # the rows of the array ds1_stationary returns, at levels 0..4
    p = SimpleNamespace(p1=_InRange(P1), p2=_InRange(P2))
    law = ds1_stationary(p, _InRange(L1), 4)
    mass = {(k, phase): _expr(law[k, phase]) for k in range(5) for phase in Phase}

    # one slot of the DS1 kernel from the slot table, with symbolic coin
    # weights: the tracked queue 1's buffer is nonempty above level 0, and
    # queue 2's buffer and arrival coin stay 0
    table = slot_table(ProtocolKind.FEEDBACK_PRIORITY, DominanceMode.DS1)
    coins = [((1, q), (0, 1 - q)) for q in (L1, P1, P2)]
    inflow = dict.fromkeys(mass, 0)
    for (level, phase), m in mass.items():
        for (a1, w_a), (d1, w_1), (d2, w_2) in product(*coins):
            key = phase << 6 | min(level, 1) << 5 | d2 << 3 | d1 << 2 | a1
            dq1, _, next_phase, _ = table[key]
            target = (level + dq1, Phase(next_phase))
            if target in inflow:
                inflow[target] += w_a * w_1 * w_2 * m

    # levels 0..3 receive from levels 0..4 only, so their balance is complete
    for k in range(4):
        for phase in Phase:
            assert _is_zero(inflow[k, phase] - mass[k, phase]), (k, phase)
