"""Truncated-chain oracle for the two dominant single-queue systems.

The closed forms in :mod:`aloha_priority.stability` and
:mod:`aloha_priority.qbd` are verified against a route that shares no algebra
with them: enumerate every coin combination through
:func:`aloha_priority.model.advance_slot` to obtain the exact one-slot kernel
of the dominant system's single tracked queue, truncate at a level cap, and
solve the stationary linear system densely.  Nothing here transcribes a
transition probability; every entry is the weighted sum of slot outcomes.

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
    SystemState,
    advance_slot,
)

# (level, phase) state order: level-major, ON/normal phase first
PHASES = (Phase.NORMAL, Phase.BACKOFF)


@dataclass(frozen=True)
class TruncatedChain:
    """Finite chain over states (level, phase), 0 <= level <= k_max.

    ``matrix`` is column stochastic: matrix[i, j] = P(state j -> state i),
    matching the orientation used by the QBD blocks.
    """

    k_max: int
    matrix: np.ndarray = field(repr=False)

    def index(self, level: int, phase: Phase) -> int:
        if not 0 <= level <= self.k_max:
            raise ValueError(f"level {level} outside [0, {self.k_max}]")
        return 2 * level + (1 if phase is Phase.BACKOFF else 0)


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
    """
    if mode not in (DominanceMode.DS1, DominanceMode.DS2):
        raise ValueError("oracle supports the single-queue systems DS1 and DS2")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if not 0.0 < arrival_rate < 1.0:
        raise ValueError("arrival_rate must lie in (0, 1)")

    tracked_q1 = mode is DominanceMode.DS1
    n = 2 * (k_max + 1)
    chain = TruncatedChain(k_max=k_max, matrix=np.zeros((n, n)))
    # each coin (arrival, queue-1 draw, queue-2 draw) lands heads with its probability
    coins = [((True, q), (False, 1.0 - q)) for q in (arrival_rate, p.p1, p.p2)]

    for level in range(k_max + 1):
        for phase in PHASES:
            j = chain.index(level, phase)
            state = (
                SystemState(level, 0, phase)
                if tracked_q1
                else SystemState(0, level, phase)
            )
            for (arr, w_a), (d1, w_1), (d2, w_2) in product(*coins):
                weight = w_a * w_1 * w_2
                if weight == 0.0:
                    continue
                arrivals = (arr, False) if tracked_q1 else (False, arr)
                nxt, _ = advance_slot(
                    state,
                    ProtocolKind.FEEDBACK_PRIORITY,
                    mode,
                    arrivals,
                    (d1, d2),
                )
                nxt_level = nxt.q1_len if tracked_q1 else nxt.q2_len
                # clamp at the cap, phase preserved
                i = chain.index(min(nxt_level, k_max), nxt.phase)
                chain.matrix[i, j] += weight

    return chain


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Stationary vector of the truncated chain by dense linear solve.

    Solves (T - I) x = 0 with one equation replaced by normalisation, then
    checks the residual ||T x - x|| < 1e-12.  States that are merely
    transient (an empty-queue reserved slot can be entered from nowhere)
    simply come out with probability 0.
    """
    t = chain.matrix
    n = t.shape[0]
    a = t - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(t @ x - x)))
    if residual > 1e-12 or not np.isfinite(residual):
        raise SingularSystemError(
            f"stationary residual {residual} exceeds 1e-12; chain ill conditioned"
        )
    return x


def total_variation(x: np.ndarray, y: np.ndarray) -> float:
    """Total variation distance between two vectors on the same state list."""
    return 0.5 * float(np.sum(np.abs(x - y)))
