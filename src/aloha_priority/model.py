"""Slot-level model of two queues sharing a collision channel.

Two stations hold packets in infinite FIFO buffers.  Time is slotted.  At the
start of each slot a packet may arrive at each queue (Bernoulli, independent
across slots and queues); an arrival is eligible for transmission in the slot
it arrives.  A slot delivers a packet when exactly one station transmits.  Two
simultaneous transmissions collide and deliver nothing.

Two protocol variants are modelled:

* ``CONVENTIONAL_RA``: every slot, station i transmits with probability p_i
  whenever it has a packet.  Collisions carry no consequence beyond the lost
  slot.
* ``FEEDBACK_PRIORITY``: same as above, except that the slot immediately after
  a collision is reserved.  Station 1 retransmits with probability 1 and
  station 2 stays silent, so the reserved slot always resolves in station 1's
  favour.  Afterwards both stations return to random access.

Dominance modes saturate one or both queues for analysis purposes: a saturated
station contends in every slot (subject to the same protocol rules), and when
its real buffer is empty a success carries a dummy packet that removes
nothing.  A dominant system's queue lengths are, slot for slot under shared
coin draws, at least those of the original system, which is what makes its
stability region a certified inner bound.

The single transition function ``advance_slot`` takes the per-slot coin draws
as arguments.  A slot's effect depends on the queue lengths only through
whether each buffer is empty at the start of the slot, so ``slot_table``
tabulates ``advance_slot`` once per slot key, and the Monte Carlo simulator
and the truncated-chain oracle both read that one table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ProtocolKind(enum.Enum):
    FEEDBACK_PRIORITY = "feedback_priority"
    CONVENTIONAL_RA = "conventional_ra"


class DominanceMode(enum.Enum):
    NONE = "none"
    DS1 = "ds1"  # queue 2 saturated (sends dummies when empty)
    DS2 = "ds2"  # queue 1 saturated
    DS3 = "ds3"  # both saturated


# which queues contend as saturated (sending dummies when empty), per mode
SATURATED = {
    DominanceMode.NONE: (False, False),
    DominanceMode.DS1: (False, True),
    DominanceMode.DS2: (True, False),
    DominanceMode.DS3: (True, True),
}


class Phase(enum.IntEnum):
    NORMAL = 0
    BACKOFF = 1


class SlotOutcome(enum.IntEnum):
    IDLE = 0
    SUCCESS_Q1 = 1
    SUCCESS_Q2 = 2
    COLLISION = 3
    PRIORITY_RETRANSMISSION = 4


class SystemState(NamedTuple):
    q1_len: int
    q2_len: int
    phase: Phase


@dataclass(frozen=True)
class AccessProbabilities:
    """Per-slot transmission probabilities (p1, p2), each in [0, 1].

    Either field may be a numpy array, every entry of which must lie in
    range: the closed forms evaluate a whole grid of points in one call.
    """

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, value in (("p1", self.p1), ("p2", self.p2)):
            if not np.all((0.0 <= value) & (value <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def require_rate(name: str, value: float) -> None:
    """The one arrival-rate rule: ValueError unless 0 < value < 1 (nan fails),
    at every entry of an array."""
    if not np.all((0.0 < value) & (value < 1.0)):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class ArrivalRates:
    """Bernoulli arrival rates (l1, l2), each strictly inside (0, 1).

    Boundary values are excluded on purpose: the analytic expressions divide
    by (1 - l) terms, and a rate of 0 or 1 is not a queueing system worth a
    verdict.  Grid code that wants the endpoints works with raw floats.  As
    in ``AccessProbabilities``, a field may be an array of rates.
    """

    l1: float
    l2: float

    def __post_init__(self) -> None:
        require_rate("l1", self.l1)
        require_rate("l2", self.l2)


def advance_slot(
    state: SystemState,
    kind: ProtocolKind,
    mode: DominanceMode,
    arrivals: tuple[bool, bool],
    access_draws: tuple[bool, bool],
) -> tuple[SystemState, SlotOutcome]:
    """Advance the two-queue system by one slot.

    ``arrivals`` and ``access_draws`` are pre-drawn Bernoulli coins: the
    caller draws arrivals[i] with rate l_i and access_draws[i] with
    probability p_i.  Passing the coins instead of the probabilities keeps
    this function pure, which lets the chain oracle enumerate all coin
    combinations with their exact weights.

    Order of events inside a slot: arrivals first (an arrival may contend in
    the same slot), then the access decision, then at most one departure.
    A saturated queue contends even when empty; a success with an empty real
    buffer is a dummy success and removes nothing.  In a reserved slot
    (phase BACKOFF under FEEDBACK_PRIORITY) queue 1 transmits with
    probability 1, its draw ignored, and queue 2 never contends.
    """
    q1 = state.q1_len + (1 if arrivals[0] else 0)
    q2 = state.q2_len + (1 if arrivals[1] else 0)

    priority = kind is ProtocolKind.FEEDBACK_PRIORITY
    reserved = priority and state.phase is Phase.BACKOFF
    forced1, forced2 = SATURATED[mode]

    has1 = forced1 or q1 > 0
    has2 = forced2 or q2 > 0

    if reserved:
        tx1 = has1
        tx2 = False
    else:
        tx1 = has1 and access_draws[0]
        tx2 = has2 and access_draws[1]

    if tx1 and tx2:
        outcome = SlotOutcome.COLLISION
        phase = Phase.BACKOFF if priority else Phase.NORMAL
    elif tx1:
        outcome = (
            SlotOutcome.PRIORITY_RETRANSMISSION if reserved else SlotOutcome.SUCCESS_Q1
        )
        if q1 > 0:
            q1 -= 1
        phase = Phase.NORMAL
    elif tx2:
        outcome = SlotOutcome.SUCCESS_Q2
        if q2 > 0:
            q2 -= 1
        phase = Phase.NORMAL
    else:
        outcome = SlotOutcome.IDLE
        phase = Phase.NORMAL

    return SystemState(q1, q2, phase), outcome


def slot_table(
    kind: ProtocolKind, mode: DominanceMode
) -> list[tuple[int, int, int, int]]:
    """(change of q1, change of q2, next phase, outcome) for each slot key.

    There are 128 keys

        phase << 6 | nz1 << 5 | nz2 << 4 | d2 << 3 | d1 << 2 | a2 << 1 | a1

    (phase at the start of the slot, buffer i nonempty, access coin d_i,
    arrival coin a_i).  Entry ``key`` is ``advance_slot`` applied to buffers
    of length nz1 and nz2 in the key's phase, with the key's arrival and
    access coins; any nonempty length in place of 1 gives the same changes.
    """
    table = []
    for key in range(128):
        state = SystemState(key >> 5 & 1, key >> 4 & 1, Phase(key >> 6))
        arrivals = (bool(key & 1), bool(key & 2))
        draws = (bool(key & 4), bool(key & 8))
        after, outcome = advance_slot(state, kind, mode, arrivals, draws)
        dq1, dq2 = after.q1_len - state.q1_len, after.q2_len - state.q2_len
        table.append((dq1, dq2, int(after.phase), int(outcome)))
    return table
