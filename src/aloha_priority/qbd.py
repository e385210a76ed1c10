"""Quasi-birth-death analysis of queue 2 under a saturated queue 1 (DS2).

With queue 1 saturated, queue 2's length k together with the channel phase
(ON = normal slot, OFF = reserved slot after a collision) forms a QBD chain
whose transition matrix has the block-tridiagonal layout

        | B   A0          |
        | A2  A1  A0      |
    T = |     A2  A1  A0  |
        |         ..  ..  |

Orientation convention, used consistently for every matrix in this module:
COLUMN stochastic.  Entry M[i, j] is the probability of moving FROM phase j
(at the source level) TO phase i (at the destination level), so interior
columns of the assembled matrix sum to 1 and stationary vectors are column
vectors with v_{k+1} = R v_k.  Phase index 0 is ON, index 1 is OFF.

The minimal nonnegative rate matrix R solves

    A2 + (A1 - I) R + A0 R^2 = 0,

equivalently R = (I - A1)^{-1} (A2 + A0 R^2), and the fixed-point iteration
from R = 0 increases monotonically to it.  For this chain R also has an
explicit elementwise form, and its spectral radius an explicit scalar form;
the solver, the closed form, and the two radius routes are all exposed so
they can be played against each other.

The closed forms and the solver work on stacks, one point per 2x2 slice:
``qbd_blocks`` and ``rate_matrix_closed_form`` take arrays of p1, p2 and l2
and return shape (..., 2, 2), and ``spectral_radius`` and the solver take
that shape.  A single point is a stack of one.  Each slice of a closed form
is bit for bit what a call with plain floats returns: the elementwise
arithmetic is the same IEEE operations in the same order, and a root or a
square of an array goes through ``np.float_power``, the libm ``pow`` that a
float's ``**`` calls (numpy's own power and sqrt loops differ from it in the
last bit at some inputs).  The solver, too, gives each slice the R a lone
solve of that point returns; ``solve_rate_matrix`` says why, and how its
steps run in batches.

Level 0 has no reserved-phase state in practice: OFF follows a collision,
which needs queue 2 nonempty, and the resolving slot serves queue 1.  The
block B therefore only populates the ON column; the (unreachable) 0-OFF
column of the assembled matrix is deficient and carries no stationary mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrumError,
    NoConvergenceError,
    SingularBlockError,
    UnstableParameterError,
)
from .model import AccessProbabilities
from .stability import divisor, ds2_mu1, ds3_mu2, stationary_levels

# the fixed point stops once no entry of R moves by this much in one step,
# and gives up on a slice still moving after _MAX_ITER steps
_TOL = 1e-12
_MAX_ITER = 10**6
# a batch runs at most _BATCH_STEPS steps and holds about _BATCH_SLICES
# iterates, so a large stack runs short batches
_BATCH_STEPS = 256
_BATCH_SLICES = 8192


@dataclass(frozen=True)
class QbdBlocks:
    """The four 2x2 blocks of the queue-2 chain, column-stochastic orientation.

    b: level 0 to itself; a2: up one level; a1: same level; a0: down one.
    """

    b: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


def _matrix(m00, m01, m10, m11) -> np.ndarray:
    """The 2x2 matrices [[m00, m01], [m10, m11]] of broadcast entries, shape (..., 2, 2)."""
    entries = np.broadcast_arrays(m00, m01, m10, m11)
    return np.stack(entries, axis=-1).reshape(*entries[0].shape, 2, 2)


def _pow(x, exponent: float):
    """x ** exponent; on an array through ``np.float_power``, which gives the
    doubles a float's ``**`` gives.  Anything else, sympy included, keeps ``**``."""
    return np.float_power(x, exponent) if isinstance(x, np.ndarray) else x**exponent


def qbd_blocks(p: AccessProbabilities, l2: float) -> QbdBlocks:
    """Transition blocks of the queue-2 chain for given access probabilities.

    Derived from the slot dynamics with queue 1 saturated: an ON slot sees a
    queue-1 transmission with probability p1, a queue-2 transmission (when
    nonempty) with probability p2, and an arrival with probability l2 before
    either; an OFF slot serves queue 1 surely and only the arrival coin acts.
    Arrays of p1, p2 and l2 give blocks of shape (..., 2, 2).
    """
    p1, p2 = p.p1, p.p2
    return QbdBlocks(
        b=_matrix((1.0 - l2) + l2 * (1.0 - p1) * p2, 0.0, 0.0, 0.0),
        a0=_matrix((1.0 - l2) * (1.0 - p1) * p2, 0.0, 0.0, 0.0),
        a1=_matrix(
            l2 * p2 * (1.0 - p1) + (1.0 - l2) * (1.0 - p2), 1.0 - l2, (1.0 - l2) * p1 * p2, 0.0
        ),
        a2=_matrix(l2 * (1.0 - p2), l2, l2 * p1 * p2, 0.0),
    )


def _inv2(m: np.ndarray, what: str) -> np.ndarray:
    """Inverse of every 2x2 slice of m, shape (..., 2, 2), by its adjugate."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    singular = np.abs(det) <= 1e-14
    if np.any(singular):
        first = np.ravel(det)[np.argmax(singular)]
        raise SingularBlockError(f"{what} is singular (det = {first})")
    adjugate = np.stack(
        [m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1
    ).reshape(m.shape)
    return adjugate / det[..., None, None]


def _batch(
    m: np.ndarray, a0: np.ndarray, a2: np.ndarray, r: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``steps`` fixed-point steps from R = r on every slice of the stack.

    Returns which slices settled (some step moved no entry by _TOL), each
    settled slice's iterate at its first such step, and every slice's last
    iterate.  The iterates share one buffer, written in place.
    """
    iterates = np.empty((steps + 1, *r.shape))
    iterates[0] = r
    square = np.empty_like(r)
    inner = np.empty_like(r)
    if len(r) == 1:
        # a lone slice steps on 2-D views through ndarray.dot, the same
        # product as a stacked slice's (see solve_rate_matrix)
        product, views = np.ndarray.dot, list(iterates[:, 0])
        m, a0, a2, square, inner = m[0], a0[0], a2[0], square[0], inner[0]
    else:
        product, views = np.matmul, list(iterates)
    add = np.add
    for prev, nxt in zip(views, views[1:]):
        product(prev, prev, square)
        product(a0, square, inner)
        add(a2, inner, inner)
        product(m, inner, nxt)
    change = np.diff(iterates, axis=0)
    # each slice's largest |change| as elementwise maxima of its four
    # entries, which is exact, keeps NaN and costs far less than a reduction
    # over the two 2-wide axes
    entry = np.abs(change, out=change).reshape(steps, -1, 4)
    top = np.maximum(entry[..., 0], entry[..., 1])
    bottom = np.maximum(entry[..., 2], entry[..., 3])
    settled = np.maximum(top, bottom) < _TOL
    done = settled.any(axis=0)
    first = settled.argmax(axis=0)[done] + 1
    return done, iterates[first, np.flatnonzero(done)], iterates[-1].copy()


def solve_rate_matrix(blocks: QbdBlocks) -> np.ndarray:
    """Minimal nonnegative solution of A2 + (A1 - I) R + A0 R^2 = 0.

    Plain fixed-point iteration R <- (I - A1)^{-1} (A2 + A0 R^2) starting
    from R = 0.  The iterates increase entrywise and converge linearly at
    rate sp(R); near the stability boundary that is slow but dependable,
    and the closed form is available as a cross-check.

    The block arrays have shape (..., 2, 2) and R comes back in that shape.
    Every slice stops on its own at the first step that moves no entry by
    _TOL, so a slice's R does not depend on its neighbours.  The steps run
    in batches: each batch writes its iterates into one buffer, takes every
    step's change at once, stores each slice's first iterate under _TOL and
    drops the solved slices from the stack.  Every batch, stacked or lone,
    has one rule: 256 steps, or fewer where the stack would hold more than
    about 8192 iterates or where _MAX_ITER is nearer, so the 1450-point grid
    runs 5 steps a batch until points drop out.  Once one slice is left, its
    steps run on 2-D views
    through ``np.ndarray.dot``, the method form of ``np.dot``, which skips
    ``np.dot``'s ``__array_function__`` dispatch, a third of the cost of a
    2x2 product.  A slice meets the same products and elementwise arithmetic
    in every batch as in a lone solve: numpy runs every 2x2 slice of a
    stacked ``matmul`` through the same ``cblas_dgemm`` call as a lone 2x2
    ``matmul``, and ``ndarray.dot`` on two C-contiguous 2x2 operands makes
    that call too (``TestProductPremise``).  So a slice's R is bit for bit
    the same, stacked or alone.  A batch takes each slice's largest change as
    elementwise maxima of its four entries: the exact maximum, NaN included,
    without numpy's slower reduction over 2x2 slices.  No slice takes more
    than _MAX_ITER = 10**6 steps; raises NoConvergenceError if any is still
    moving after them.
    """
    shape = blocks.a1.shape
    m = _inv2(np.eye(2) - blocks.a1, "I - A1").reshape(-1, 2, 2)
    a0 = blocks.a0.reshape(-1, 2, 2)
    a2 = blocks.a2.reshape(-1, 2, 2)
    solved = np.empty_like(m)
    active = np.arange(len(m))
    r = np.zeros_like(m)
    taken = 0
    while active.size and taken < _MAX_ITER:
        steps = min(_BATCH_STEPS, max(1, _BATCH_SLICES // active.size), _MAX_ITER - taken)
        done, settled, r = _batch(m, a0, a2, r, steps)
        taken += steps
        if done.any():
            solved[active[done]] = settled
            moving = ~done
            active, m, a0, a2, r = active[moving], m[moving], a0[moving], a2[moving], r[moving]
    if active.size:
        raise NoConvergenceError(
            f"rate-matrix iteration did not reach tol={_TOL} in {_MAX_ITER} steps"
            f" at {active.size} of {len(solved)} points"
        )
    return solved.reshape(shape)


def balance_residual(blocks: QbdBlocks, r: np.ndarray) -> float:
    """Largest entry of |A2 + (A1 - I) R + A0 R^2| over every slice of a stack;
    0 for an exact rate matrix."""
    residual = blocks.a2 + (blocks.a1 - np.eye(2)) @ r + blocks.a0 @ (r @ r)
    return float(np.max(np.abs(residual)))


def _down_rate(p: AccessProbabilities, l2: float) -> float:
    """(1 - l2)(1 - p1) p2, A0's entry, which every DS2 closed form divides by."""
    return divisor((1.0 - l2) * (1.0 - p.p1) * p.p2, "(1 - l2)(1 - p1) p2")


def rate_matrix_closed_form(p: AccessProbabilities, l2: float) -> np.ndarray:
    """Explicit elementwise R, shape (..., 2, 2) for arrays of p1, p2 and l2;
    undefined where ``_down_rate`` is 0 at any point."""
    p1, p2 = p.p1, p.p2
    d = _down_rate(p, l2)
    r_off = l2 * p1 / (1.0 - p1)
    return _matrix(l2 * (1.0 - p2 + p1 * p2) / d, l2 / d, r_off, r_off)


def spectral_radius(r: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue modulus of each 2x2 slice of r via the trace/det quadratic.

    For a nonnegative R the discriminant (r00 - r11)^2 + 4 r01 r10 is
    nonnegative, so both eigenvalues are real and no complex arithmetic is
    needed; a negative one raises ComplexSpectrumError.  Shape (..., 2, 2)
    gives an array of shape (...); one 2x2 matrix gives a float.
    """
    tr = r[..., 0, 0] + r[..., 1, 1]
    det = r[..., 0, 0] * r[..., 1, 1] - r[..., 0, 1] * r[..., 1, 0]
    disc = tr * tr - 4.0 * det
    negative = disc < 0.0
    if np.any(negative):
        first = np.ravel(disc)[np.argmax(negative)]
        raise ComplexSpectrumError(
            f"complex eigenvalues (discriminant {first}); not a nonnegative matrix"
        )
    root = _pow(disc, 0.5)
    return np.maximum(abs(tr + root), abs(tr - root)) / 2.0


def spectral_radius_closed_form(p: AccessProbabilities, l2: float) -> float | np.ndarray:
    """Explicit scalar form of sp(R), elementwise over arrays of p1, p2 and l2;
    same degeneracies as the closed-form R."""
    p1, p2 = p.p1, p.p2
    disc = (
        1.0
        - 2.0 * p2
        + _pow(p2, 2)
        + 4.0 * p1 * p2
        - 2.0 * l2 * p1 * p2
        - 2.0 * l2 * p1 * _pow(p2, 2)
        + _pow(l2, 2) * _pow(p1, 2) * _pow(p2, 2)
    )
    num = l2 * (1.0 - p2 - l2 * p1 * p2 + 2.0 * p1 * p2 + _pow(disc, 0.5))
    return num / (2.0 * _down_rate(p, l2))


def ds2_pi0(p: AccessProbabilities, l2: float) -> float:
    """Stationary probability of an empty queue 2 in phase ON.

    Exists iff l2 < mu2'' (``stability.ds3_mu2``), which is sp(R) < 1 and
    pi0 > 0.  This is the guard of every DS2 law, and
    ``stability.ds1_pi0`` keeps the same three-part rule: it raises
    UnstableParameterError unless the region clause, the decay ratio below 1
    and a positive empty probability all hold in floating point, since a few
    ulps below mu2'' the closed-form sp(R) can round to 1, where the fixed
    point would stall, and pi0 can round to 0 or below.  Raises
    DegenerateParameterError first where ``_down_rate`` is 0 (p1 = 1 or
    p2 = 0 included, where that bound is identically zero).
    """
    p1, p2 = p.p1, p.p2
    pi0 = (p2 - l2 - p1 * p2 - l2 * p1 * p2) / _down_rate(p, l2)
    # sp(R) last: far past mu2'' the closed-form R can overflow
    if l2 >= ds3_mu2(p1, p2) or pi0 <= 0.0 or (
        spectral_radius(rate_matrix_closed_form(p, l2)) >= 1.0
    ):
        raise UnstableParameterError(f"queue 2 unstable under saturated queue 1 at l2 = {l2}")
    return pi0


def ds2_stationary(p: AccessProbabilities, l2: float, k_max: int) -> np.ndarray:
    """DS2's law up to level k_max, ``stability.stationary_levels`` of
    ``ds2_pi0`` and the closed-form R: v_k = R^k v_0 with v_0 = (pi_0, 0)."""
    return stationary_levels(ds2_pi0(p, l2), rate_matrix_closed_form(p, l2), k_max)


def ds2_service_rate_q1(p: AccessProbabilities, l2: float) -> float:
    """Saturated queue-1 success rate, closed form ``stability.ds2_mu1``.

    Valid while queue 2 is stable in this dominant system.
    """
    ds2_pi0(p, l2)  # raises outside the stability region, p1 = 1 included
    return ds2_mu1(p.p1, l2)


def ds2_service_rate_q1_series(p: AccessProbabilities, l2: float) -> float:
    """Same rate accumulated from the stationary law instead of the closed form.

    Success happens in an ON slot with no queue-2 interference, weight
    p1 (1 - p2) against nonempty levels and p1 (1 - l2 p2) against level 0
    (an arrival may contend immediately), plus every OFF slot:

        mu1 = p1 (1 - l2 p2) pi_0 + sum_{k>=1} [p1 (1 - p2) pi_k + eps_k].
    """
    pi0, r = ds2_pi0(p, l2), rate_matrix_closed_form(p, l2)
    tail = _inv2(np.eye(2) - r, "I - R") @ np.array([pi0, 0.0]) - np.array([pi0, 0.0])
    weights = np.array([p.p1 * (1.0 - p.p2), 1.0])
    return p.p1 * (1.0 - l2 * p.p2) * pi0 + float(weights @ tail)
