"""Exact certificates for the closed forms.

Sympy symbols go through the package's own functions, so each identity is
proved for the code as written, not sampled at floating-point points.  The
functions build their expressions with float literals (``1.0 - l2``), so
every result is passed through ``nsimplify`` before ``simplify`` decides
whether it is identically zero.
"""

from types import SimpleNamespace

import numpy as np
import sympy

from aloha_priority import qbd
from aloha_priority.stability import ds2_l2_limit, ds2_mu1, priority_boundary

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


def test_ds2_clause_inverts():
    assert _is_zero(ds2_mu1(P1, ds2_l2_limit(P1, L1)) - L1)


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
