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
    ds1_rho,
    ds1_steady_state,
    ds2_l2_limit,
    ds2_mu1,
    ds3_mu1,
    priority_boundary,
)

P1, P2, L1, L2, X = sympy.symbols("p1 p2 l1 l2 x")
# qbd only reads p.p1 and p.p2, and AccessProbabilities would reject symbols
SYMBOLIC_P = SimpleNamespace(p1=P1, p2=P2)


def _is_zero(expr) -> bool:
    return sympy.simplify(sympy.nsimplify(expr)) == 0


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


def _envelope_branch(below_knee: bool):
    """``priority_boundary`` as an expression in l1 on one side of l1 = 1/3.

    The symbol answers the range check as lying in [0, 1] and the branch
    test as told, so the function returns that branch's formula.
    """

    class OneSided(sympy.Symbol):
        def __ge__(self, other):  # 0 <= l1
            return True

        def __le__(self, other):  # l1 <= 1 and l1 <= 1/3
            return other == 1.0 or below_knee

    side = OneSided("l1")
    return sympy.nsimplify(priority_boundary(side).subs(side, L1))


def test_envelope_branches_meet_at_one_third_in_value_and_slope():
    left, right = _envelope_branch(True), _envelope_branch(False)
    assert left != right  # the symbol really reached both branches
    knee = sympy.Rational(1, 3)
    assert _is_zero((left - right).subs(L1, knee))
    assert _is_zero(sympy.diff(left - right, L1).subs(L1, knee))


class _InRange:
    """A sympy expression that answers every comparison with False.

    ``ds1_steady_state`` guards its inputs with two comparisons: ``ds1_rho``'s
    ``den == 0.0``, through ``stability.divisor``, and its own ``rho >= 1``.
    A symbol cannot decide either; answered False, they let the function
    return the stable law, its arithmetic kept symbolic.
    """

    def __init__(self, expr):
        self.expr = expr

    def __eq__(self, other):
        return False

    __ge__ = __eq__


def _expr(value):
    return value.expr if isinstance(value, _InRange) else value


def _lift(op):
    def forward(self, other):
        return _InRange(op(self.expr, _expr(other)))

    def reverse(self, other):
        return _InRange(op(other, self.expr))

    return forward, reverse


for _name in ("add", "sub", "mul", "truediv", "pow"):
    _forward, _reverse = _lift(getattr(operator, _name))
    setattr(_InRange, f"__{_name}__", _forward)
    setattr(_InRange, f"__r{_name}__", _reverse)


def test_ds1_geometric_law_balances_the_tabulated_kernel():
    # the law as ds1_steady_state computes it, at levels 0..4
    p = SimpleNamespace(p1=_InRange(P1), p2=_InRange(P2))
    law = ds1_steady_state(p, _InRange(L1))
    mass = {}
    for k in range(5):
        mass[k, Phase.NORMAL] = _expr(law.pi(k))
        mass[k, Phase.BACKOFF] = _expr(law.eps(k))

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
