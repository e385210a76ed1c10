"""Truncated-chain oracle for the two dominant single-queue systems.

The closed forms in :mod:`aloha_priority.stability` and
:mod:`aloha_priority.qbd` are verified against a route that shares no algebra
with them: tabulate every coin combination through
:func:`aloha_priority.model.advance_slot` (by way of
:func:`aloha_priority.model.slot_table`) to obtain the exact one-slot kernel
of the dominant system's single tracked queue, truncate at a level cap, and
solve the stationary linear system densely.  Nothing here transcribes a
transition probability; every entry is the weighted sum of slot outcomes.

A slot sees the tracked level only through whether it is 0, so levels >= 1
are homogeneous: one table entry per phase and coin combination serves all
of them.  ``TestSlotTable`` checks that homogeneity on buffers of several
lengths, and ``TestChainEquality`` checks the kernel, bit for bit, against
one ``advance_slot`` call per level.

Truncation closes the chain by clamping the destination level at the cap
(phase preserved), so columns still sum to 1.  With a geometric tail of ratio
rho the truncation error at the cap K is of order rho^K; K = 200 at
rho <= 0.8 puts it far below every tolerance used in the tests.

The kernel matrix is stored in Fortran order, because ``numpy.linalg.solve``
passes LAPACK a column-major copy of its input; from C order that copy is a
slow transposed one.  ``stationary`` forms its linear system in the kernel's
own storage and restores the kernel exactly afterwards, so a solve peaks at
two n x n arrays, the kernel and that copy (82 MB each at k_max = 1600).
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

    ``matrix`` is column stochastic: matrix[i, j] = P(state j -> state i),
    matching the orientation used by the QBD blocks.
    """

    k_max: int
    matrix: np.ndarray = field(repr=False)

    def index(self, level, phase: Phase):
        """Position of (level, phase): level-major, normal phase first.

        ``level`` may be an integer array, which gives an array of positions.
        """
        if np.min(level) < 0 or np.max(level) > self.k_max:
            raise ValueError(f"level {level} outside [0, {self.k_max}]")
        return 2 * level + int(phase)


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

    The kernel is tabulated from ``advance_slot`` through ``slot_table``.
    Levels >= 1 are homogeneous, so level 0 and the levels above it each
    take one table entry per phase and coin combination, and one scatter
    adds every level at once.  Combinations come in the same order at every
    column, so each entry is the same floating-point sum as a level-by-level
    enumeration (``TestChainEquality``; ``TestSlotTable`` checks the
    homogeneity).  The matrix is stored in Fortran order, the layout
    ``numpy.linalg.solve`` copies its input into before calling LAPACK.
    """
    if mode not in (DominanceMode.DS1, DominanceMode.DS2):
        raise ValueError("oracle supports the single-queue systems DS1 and DS2")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    require_rate("arrival_rate", arrival_rate)

    n = 2 * (k_max + 1)
    chain = TruncatedChain(k_max=k_max, matrix=np.zeros((n, n), order="F"))
    table = slot_table(ProtocolKind.FEEDBACK_PRIORITY, mode)
    # the tracked queue's bits in a slot key (buffer nonempty, arrival coin)
    # and the place of its length change in a table entry
    nz_bit, arr_bit, change = (5, 0, 0) if mode is DominanceMode.DS1 else (4, 1, 1)
    # each coin (arrival, queue-1 draw, queue-2 draw) lands heads with its probability
    coins = [((1, q), (0, 1.0 - q)) for q in (arrival_rate, p.p1, p.p2)]
    levels = np.arange(k_max + 1)

    rows, cols, weights = [], [], []
    for phase in Phase:
        for (arr, w_a), (d1, w_1), (d2, w_2) in product(*coins):
            weight = w_a * w_1 * w_2
            if weight == 0.0:
                continue
            for nonempty, at in ((0, levels[:1]), (1, levels[1:])):
                key = phase << 6 | nonempty << nz_bit | d2 << 3 | d1 << 2 | arr << arr_bit
                entry = table[key]
                # clamp at the cap, phase preserved
                nxt = np.minimum(at + entry[change], k_max)
                rows.append(chain.index(nxt, Phase(entry[2])))
                cols.append(chain.index(at, phase))
                weights.append(np.full(at.shape, weight))

    np.add.at(
        chain.matrix,
        (np.concatenate(rows), np.concatenate(cols)),
        np.concatenate(weights),
    )
    return chain


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Stationary vector of the truncated chain by dense linear solve.

    Solves (T - I) x = 0 with one equation replaced by normalisation, then
    checks the residual ||T x - x|| < 1e-12.  States that are merely
    transient (an empty-queue reserved slot can be entered from nowhere)
    simply come out with probability 0.

    The system is formed in ``chain.matrix`` itself: its diagonal and last
    row are saved, the diagonal lowered by 1 and the last row set to 1 in
    place, and after the solve both are copied back from the saved values
    (adding 1 back would not restore a small t exactly), so the kernel comes
    back bit for bit, on error too.  The solve then holds two n x n arrays,
    the kernel and the column-major copy ``numpy.linalg.solve`` hands LAPACK;
    the system it sees is the same in either memory order.  The matrix must
    therefore be writable; ``build_chain``'s always is.
    """
    t = chain.matrix
    n = t.shape[0]
    diag = np.diag_indices(n)
    saved_diag = t[diag]
    saved_last = t[-1, :].copy()
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        t[diag] -= 1.0
        t[-1, :] = 1.0
        x = np.linalg.solve(t, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary solve failed: {exc}") from exc
    finally:
        t[diag] = saved_diag
        t[-1, :] = saved_last
    residual = float(np.max(np.abs(t @ x - x)))
    if residual > 1e-12 or not np.isfinite(residual):
        raise SingularSystemError(
            f"stationary residual {residual} exceeds 1e-12; chain ill conditioned"
        )
    return x


def total_variation(x: np.ndarray, y: np.ndarray) -> float:
    """Total variation distance between two vectors on the same state list."""
    return 0.5 * float(np.sum(np.abs(x - y)))
