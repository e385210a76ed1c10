"""Truncated-chain oracle for the two dominant single-queue systems.

The closed forms in :mod:`aloha_priority.stability` and
:mod:`aloha_priority.qbd` are verified against a route that shares no algebra
with them: tabulate every coin combination through
:func:`aloha_priority.model.advance_slot` (by way of
:func:`aloha_priority.model.slot_table`) to obtain the exact one-slot kernel
of the dominant system's single tracked queue, truncate at a level cap, and
solve the stationary linear system densely.  Nothing here transcribes a
transition probability; every entry is the weighted sum of slot outcomes.

A slot moves the tracked level by at most one and sees it only through
whether it is 0, so the kernel is block-tridiagonal in the level, with 2 x 2
phase blocks, and levels 1 .. k_max - 1 all share the same three blocks.
``TruncatedChain`` stores just those: a down, same and up block for level 0,
for the interior levels and for the cap.  ``TestSlotTable`` checks that
homogeneity on buffers of several lengths, and ``TestChainEquality`` checks
the dense kernel the blocks lay out, bit for bit, against one
``advance_slot`` call per level.

A law on the chain's states is laid out as levels: row k of a
``(k_max + 1, 2)`` array holds level k's mass in the normal and the reserved
phase, the layout of :func:`aloha_priority.qbd.ds2_stationary`.
``stationary`` returns that shape, and ``TruncatedChain.apply`` is the one
product of the kernel with such a law; only the dense solve reads the n x n
``matrix``.

Truncation closes the chain by clamping the destination level at the cap
(phase preserved), so columns still sum to 1.  With a geometric tail of ratio
rho the truncation error at the cap K is of order rho^K; K = 200 at
rho <= 0.8 puts it far below every tolerance used in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import SingularSystemError
from .model import (
    AccessProbabilities,
    DominanceMode,
    Phase,
    ProtocolKind,
    require_rate,
    slot_table,
)


@dataclass(frozen=True)
class TruncatedChain:
    """Finite chain over states (level, phase), 0 <= level <= k_max.

    ``blocks[c, s, a, b]`` is the probability that a state of phase b in
    level class c (0: level 0, 1: levels 1 .. k_max - 1, 2: the cap k_max)
    moves s - 1 levels (s = 0 down, 1 same, 2 up) into phase a.  Level 0's
    down block and the cap's up block are zero.  ``apply`` takes the kernel's
    product with a law of shape (k_max + 1, 2) from these blocks alone.
    """

    k_max: int
    blocks: np.ndarray = field(repr=False)

    def _by_level(self) -> np.ndarray:
        """Each level's (down, same, up) blocks, shape (k_max + 1, 3, 2, 2)."""
        return self.blocks[np.repeat([0, 1, 2], (1, self.k_max - 1, 1))]

    def apply(self, levels: np.ndarray) -> np.ndarray:
        """T v for a law v of shape (k_max + 1, 2), returned in that shape.

        Row k of the result is what levels k - 1, k and k + 1 send to level
        k in one slot; nothing n x n is formed.
        """
        # moved[s, k] is what level k sends s - 1 levels away
        moved = np.einsum("ksab,kb->ska", self._by_level(), levels)
        moved[1, :-1] += moved[0, 1:]
        moved[1, 1:] += moved[2, :-1]
        return moved[1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense kernel, laid out anew on every read.

        Column stochastic: entry [2k + a, 2m + b] is P((m, b) -> (k, a)),
        matching the orientation used by the QBD blocks, so the flattened
        rows of a law are its state vector.  In the package only
        ``stationary``'s dense solve reads it.  Fortran order is the layout
        ``numpy.linalg.solve`` copies its input into for LAPACK.
        """
        n_levels = self.k_max + 1
        t = np.zeros((2 * n_levels, 2 * n_levels), order="F")
        # view[m, b, k, a] is t[2k + a, 2m + b]
        view = t.T.reshape(n_levels, 2, n_levels, 2)
        blocks = self._by_level()
        for step in (-1, 0, 1):
            at = np.arange(max(0, -step), n_levels - max(0, step))
            view[at, :, at + step, :] = blocks[at, step + 1].transpose(0, 2, 1)
        return t


def build_chain(
    mode: DominanceMode,
    p: AccessProbabilities,
    arrival_rate: float,
    k_max: int,
) -> TruncatedChain:
    """Exact one-slot kernel of the tracked queue in DS1 or DS2.

    DS1 tracks queue 1 (queue 2 saturated, arrival_rate = l1); DS2 tracks
    queue 2 (queue 1 saturated, arrival_rate = l2).  The untracked queue's
    buffer stays at 0 and its arrival coin at False; saturation makes its
    contention independent of that buffer.

    The kernel is tabulated from ``advance_slot`` through ``slot_table``:
    each level class takes one table entry per phase and coin combination,
    and adds its weight to the block of the entry's step and next phase.
    Combinations come in the same order for every entry, so each one is the
    same floating-point sum as a level-by-level enumeration
    (``TestChainEquality``; ``TestSlotTable`` checks the homogeneity).
    """
    if mode not in (DominanceMode.DS1, DominanceMode.DS2):
        raise ValueError("oracle supports the single-queue systems DS1 and DS2")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    require_rate("arrival_rate", arrival_rate)

    blocks = np.zeros((3, 3, 2, 2))
    table = slot_table(ProtocolKind.FEEDBACK_PRIORITY, mode)
    # the tracked queue's bits in a slot key (buffer nonempty, arrival coin)
    # and the place of its length change in a table entry
    nz_bit, arr_bit, change = (5, 0, 0) if mode is DominanceMode.DS1 else (4, 1, 1)
    # each coin (arrival, queue-1 draw, queue-2 draw) lands heads with its probability
    coins = [((1, q), (0, 1.0 - q)) for q in (arrival_rate, p.p1, p.p2)]

    for phase in Phase:
        for (arr, w_a), (d1, w_1), (d2, w_2) in product(*coins):
            weight = w_a * w_1 * w_2
            for cls in range(3):
                key = phase << 6 | min(cls, 1) << nz_bit | d2 << 3 | d1 << 2 | arr << arr_bit
                entry = table[key]
                # clamp at the cap, phase preserved
                step = min(entry[change], 0) if cls == 2 else entry[change]
                blocks[cls, step + 1, entry[2], phase] += weight
    return TruncatedChain(k_max=k_max, blocks=blocks)


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Stationary law of the truncated chain by dense linear solve.

    Returns levels: row k of the (k_max + 1, 2) array is level k's mass in
    the normal and the reserved phase.  Solves (T - I) x = 0 with the last
    equation replaced by normalisation, formed in the fresh array
    ``chain.matrix`` returns, so the chain is not touched.  The residual
    ||T x - x|| < 1e-12 is then checked with ``chain.apply``.  States that
    are merely transient (an empty-queue reserved slot can be entered from
    nowhere) simply come out with probability 0.
    """
    a = chain.matrix
    n = a.shape[0]
    a[np.diag_indices(n)] -= 1.0
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary solve failed: {exc}") from exc
    levels = x.reshape(-1, 2)
    residual = float(np.max(np.abs(chain.apply(levels) - levels)))
    if residual > 1e-12 or not np.isfinite(residual):
        raise SingularSystemError(
            f"stationary residual {residual} exceeds 1e-12; chain ill conditioned"
        )
    return levels


def total_variation(x: np.ndarray, y: np.ndarray) -> float:
    """Total variation distance between two laws of the same shape."""
    return 0.5 * float(np.sum(np.abs(x - y)))
