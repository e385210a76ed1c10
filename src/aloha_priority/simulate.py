"""Slot-by-slot Monte Carlo simulation of the two-queue system.

A run drives the slot dynamics of :func:`aloha_priority.model.advance_slot`
with pre-drawn coins from four independent generator streams (queue-1
arrivals, queue-2 arrivals, queue-1 access, queue-2 access), all spawned
deterministically from the config seed.  Separate streams mean that two
configs differing only in the dominance mode consume identical coin
sequences, which makes the pathwise dominance of the saturated systems
directly observable in tests: slot for slot, a dominant system's queues are
at least as long as the original's.

A slot's effect depends on the queue lengths only through whether each
buffer is empty at the start of the slot, so the run does not call
``advance_slot`` once per slot.  It takes three slots per step of its loop,
reading the block's effect (change of each length, next phase) from a
composed table with one byte per block state and 12-bit word of the three
slots' coins.  The block state is the phase and each length capped at 3: a
block moves a length by at most 3, so the cap fixes every buffer-empty bit
inside it.  The table is three lookups in the 128-entry
:func:`aloha_priority.model.slot_table`, keyed by the start phase, which
buffers are nonempty and the slot's four coins.

The blocks' states come from two passes over that table.  Speculative lanes
cut the blocks into chunks and step every chunk at once in numpy, one lane
per chunk, all from one start state.  The splice then walks the chunks in
order with the true state and steps a block exactly only until its state
byte is proven equal to its lane's: from then on the lane's bytes are copied
up to the lane's next block where a queue whose true length differs from
the lane's is below 3 in either, and the true lengths are the lane's plus
the offsets.  If the splice still steps many blocks, the chunks left get a
new pass from the true state.  Each block's three slot keys are then read
off three key tables that the composed table's build computes on the way,
indexed by the low 9, 13 and 17 bits of the block's entry in that table.
The run keeps one per-slot record besides the two lengths: the slot key,
one int8 per slot, of which the phases, outcomes and busy flags are each
one lookup.

Every reported statistic is computed over the post-warmup window.  Standard
errors come from batch means (100 batches) rather than the naive iid formula
because successive slots are strongly correlated.  Every count comes from a
histogram of the window's slot keys per batch (and one for the slots past
the last batch), weighed by a 0/1 table per key.  A configuration's tables
are built on its first run in a process and shared by every later one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SATURATED,
    AccessProbabilities,
    ArrivalRates,
    DominanceMode,
    ProtocolKind,
    SlotOutcome,
    slot_table,
)

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"

# default seed for CLI runs and packaged verification checks
DEFAULT_SEED = 24301

_N_BATCHES = 100

# Drift verdict limits.  Stable needs a flat trajectory and a final length
# that is small relative to the run length; unstable needs clear positive
# drift.  Anything in between, or a window shorter than _MIN_SAMPLES, stays
# inconclusive.
_MIN_SAMPLES = 10_000
_STABLE_SLOPE = 1e-3
_UNSTABLE_SLOPE = 5e-3
_FINAL_FRACTION = 0.01

# Slots per step of the slot loop; the layouts below hold only for 3.  A
# block's state is phase << 4 | min(q1, 3) << 2 | min(q2, 3) and its coin
# word holds slot j's four coins in bits 4j to 4j + 3.  The block table's
# byte at word << 5 | state packs (dq1 + 3) | (dq2 + 3) << 3 | next phase << 6,
# and _UNPACK maps a byte back to (dq1, dq2, next phase << 4).
_BLOCK = 3
_UNPACK = [((b & 7) - 3, (b >> 3 & 7) - 3, b >> 6 << 4) for b in range(256)]

# The speculative lanes (see _block_states).  A lane's lengths are int64, the
# type of the trajectory's own; a table byte keys their step in _DELTA and
# its next phase << 4 in _NEXT_PHASE.  A lane's capped lengths
# (min(q1, 3), min(q2, 3)), as a uint8 pair read as one uint16, key their
# state bits min(q1, 3) << 2 | min(q2, 3) in _CAPPED; _LOW maps a state byte
# to 1 where its q1 (q2) is below 3; a pass runs _FIRST_WINDOW chunks before
# the splice may start another.
_DELTA = np.array([b[:2] for b in _UNPACK], dtype=np.int64)
_NEXT_PHASE = np.array([b[2] for b in _UNPACK], dtype=np.uint8)
_PAIRS = np.array([(c1, c2) for c1 in range(4) for c2 in range(4)], dtype=np.uint8)
_CAPPED = np.zeros(1 << 10, dtype=np.uint8)
_CAPPED[_PAIRS.view(np.uint16).reshape(-1)] = _PAIRS[:, 0] << 2 | _PAIRS[:, 1]
_LOW = tuple(bytes((state >> shift & 3) < 3 for state in range(256)) for shift in (2, 0))
_FIRST_WINDOW = 4

# The slot-key bits that put a packet at queue 1 (queue 2) at access time:
# its buffer was nonempty or one arrived.
_BUSY_BITS = (0b100001, 0b010010)

# The columns of a configuration's count table: per slot key, whether the
# slot delivers a queue-1 (queue-2) packet, finds one at queue 1 (queue 2) at
# access time, counts toward queue 1's (queue 2's) rate base, starts in the
# reserved phase, and 1 for every slot.
_SUCCESS1, _SUCCESS2, _BUSY1, _BUSY2, _BASE1, _BASE2, _BACKOFF, _EVERY = range(8)

# _slopes' column scale, the root of the in-order sum of x**2, per window
# length; filled on the first window of each length.
_SCALES: dict[int, np.float64] = {}


@dataclass(frozen=True)
class SimulationConfig:
    kind: ProtocolKind
    mode: DominanceMode
    p: AccessProbabilities
    l: ArrivalRates
    horizon: int
    seed: int
    warmup: int | None = None

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 slots")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.warmup is None:
            # 1% of the horizon, at least 10^4 slots, but always leaving at
            # least half the run for measurement on short horizons
            resolved = min(max(self.horizon // 100, 10_000), self.horizon // 2)
            object.__setattr__(self, "warmup", resolved)
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("warmup must satisfy 0 <= warmup < horizon")


@dataclass(frozen=True)
class Trajectory:
    """Per-slot record of one run: end-of-slot lengths and each slot's key
    (see :func:`aloha_priority.model.slot_table`), with the run's slot table
    as a read-only (128, 4) int8 array."""

    q1: np.ndarray
    q2: np.ndarray
    keys: np.ndarray
    table: np.ndarray

    @property
    def phase_start(self) -> np.ndarray:
        return self.keys >> 6

    @property
    def outcome(self) -> np.ndarray:
        return self.table[:, 3][self.keys]

    @property
    def busy1(self) -> np.ndarray:
        return (self.keys & _BUSY_BITS[0]) != 0

    @property
    def busy2(self) -> np.ndarray:
        return (self.keys & _BUSY_BITS[1]) != 0


@dataclass(frozen=True)
class SimulationMetrics:
    """Post-warmup statistics of one run.

    ``delivered`` counts successful transmissions, including dummy successes
    of saturated queues; ``mu`` normalises by every post-warmup slot for a
    saturated queue and by busy slots (packet present at access time)
    otherwise.  ``drift`` is the least-squares slope of the end-of-slot queue
    length, in packets per slot.  Field names and order are those of the
    ``simulate`` report, a pair becoming ``<name>_q1`` and ``<name>_q2``.
    """

    delivered: tuple[int, int]
    busy_slots: tuple[int, int]
    mu: tuple[float, float]
    mu_stderr: tuple[float, float]
    backoff_occupancy: float
    occupancy_stderr: float
    mean_len: tuple[float, float]
    final_len: tuple[int, int]
    drift: tuple[float, float]
    verdict: tuple[str, str]


def _batch_rate(
    batches: np.ndarray, totals: np.ndarray, value: int, base: int
) -> tuple[float, float]:
    """Overall rate of count column ``value`` per ``base`` and its batch SE,
    from the per-batch counts and the window's totals."""
    total_base = totals[base]
    rate = float(totals[value] / total_base) if total_base else float("nan")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = batches[:, value] / batches[:, base]
    ratios = ratios[np.isfinite(ratios)]
    if ratios.shape[0] < 2:
        return rate, float("nan")
    return rate, float(ratios.std(ddof=1) / ratios.shape[0] ** 0.5)


def _slopes(q1: np.ndarray, q2: np.ndarray) -> tuple[float, float]:
    """Least-squares slopes of two equal-length queue-length trajectories,
    in packets per slot.

    Each is ``np.polyfit(x, q, 1)[0]`` to the bit: polyfit's scaled design
    matrix is built once for both windows and each queue takes polyfit's own
    ``lstsq`` call.  One two-column ``lstsq`` would round differently.

    The design is built in place in one Fortran-ordered ``(n, 2)`` array, the
    column layout ``lstsq`` copies into for LAPACK.  On the first window of a
    length, column 1 first holds the running sum of x²: polyfit's
    ``(lhs * lhs).sum(axis=0)`` adds the rows of its C-ordered design in
    order, so the norm is that sum's last element, not numpy's pairwise
    ``np.sum(x * x)``, which differs at n = 990000.  Its root is kept in
    ``_SCALES`` for later windows of that length.  Then column 1 takes
    polyfit's ``1 / sqrt(n)``.  ``lstsq`` casts the int windows itself, to
    the doubles polyfit's ``q + 0.0`` gives.
    """
    n = q1.shape[0]
    if n < 2:
        return float("nan"), float("nan")
    lhs = np.empty((n, 2), order="F")
    x, const = lhs[:, 0], lhs[:, 1]
    x[:] = np.arange(n)
    scale = _SCALES.get(n)
    if scale is None:
        np.multiply(x, x, out=const)
        np.cumsum(const, out=const)
        scale = _SCALES[n] = np.sqrt(const[-1])
    x /= scale
    const[:] = 1.0 / np.sqrt(n)
    rcond = n * np.finfo(np.float64).eps
    return tuple(
        float(np.linalg.lstsq(lhs, q, rcond)[0][0] / scale) for q in (q1, q2)
    )


def _verdict(lengths: np.ndarray, slope: float, total_slots: int) -> str:
    """Drift-based verdict on one queue's post-warmup length trajectory.

    ``slope`` is the trajectory's least-squares slope and ``total_slots`` the
    run length the final queue length is judged against.
    """
    if lengths.shape[0] < _MIN_SAMPLES:
        return INCONCLUSIVE
    if abs(slope) < _STABLE_SLOPE and lengths[-1] < _FINAL_FRACTION * total_slots:
        return STABLE
    if slope > _UNSTABLE_SLOPE:
        return UNSTABLE
    return INCONCLUSIVE


def _block_table(table: np.ndarray) -> tuple[bytes, list[np.ndarray]]:
    """The block table, 32 states by 4096 coin words, and the slot keys met
    on the way: three lookups in ``table``, ``slot_table`` as an int8 array,
    composed.

    A block's entry is word << 5 | state.  Slot j's key depends only on the
    state and the coins of slots 0 to j, so key table j holds it, as int8, at
    the low 9 + 4j bits of the entry: 512, 8192 and 131072 keys.  Inside a
    block the capped lengths move as the true ones do, so each stays positive
    exactly when the true one does.
    """
    states = np.arange(32, dtype=np.int8)
    # slot j's coins vary along an axis of their own, so slot j's lookups
    # cover only the blocks that differ up to it; its grid (slot j's coins,
    # ..., slot 0's, state) is the layout of the entry's low bits
    codes = [np.arange(16, dtype=np.int8).reshape(16, *[1] * (j + 1)) for j in range(_BLOCK)]
    delta1, delta2, next_phase = table[:, 0], table[:, 1], table[:, 2] * np.int8(64)
    phase = (states >> 4) * np.int8(64)
    c1, c2 = states >> 2 & 3, states & 3
    # a packed byte is a sum: each slot adds its share of both length fields,
    # the last slot also the next phase, and each length field its offset
    share = delta1 + delta2 * np.int8(8)
    packed = np.int8(3 + 3 * 8)
    keys = []
    for j in range(_BLOCK):
        if j:
            c1 = c1 + delta1[key]
            c2 = c2 + delta2[key]
            phase = next_phase[key]
        key = phase | (c1 > 0) * np.int8(32) | (c2 > 0) * np.int8(16) | codes[j]
        packed = packed + share[key]
        keys.append(key)
    packed += next_phase[key]
    return packed.tobytes(), keys


@functools.cache
def _tables(
    kind: ProtocolKind, mode: DominanceMode
) -> tuple[np.ndarray, bytes, list[np.ndarray], np.ndarray]:
    """A configuration's read-only tables, built on first use: ``slot_table``
    as a (128, 4) int8 array, the block table and key tables of
    :func:`_block_table`, and the (128, 8) int64 count table whose columns
    are the 0/1 weights of each slot key named by ``_SUCCESS1`` to
    ``_EVERY``."""
    table = np.array(slot_table(kind, mode), dtype=np.int8)
    block_table, key_tables = _block_table(table)
    keys = np.arange(128)
    outcome = table[:, 3]
    busy1, busy2 = ((keys & bits) != 0 for bits in _BUSY_BITS)
    forced1, forced2 = SATURATED[mode]
    counted = np.stack([
        (outcome == int(SlotOutcome.SUCCESS_Q1))
        | (outcome == int(SlotOutcome.PRIORITY_RETRANSMISSION)),
        outcome == int(SlotOutcome.SUCCESS_Q2),
        busy1,
        busy2,
        busy1 | forced1,
        busy2 | forced2,
        keys >> 6,
        np.ones(128, dtype=np.int64),
    ], axis=1)
    for array in (table, *key_tables, counted):
        array.flags.writeable = False
    return table, block_table, key_tables, counted


def _chunk_length(blocks: int) -> int:
    """Blocks per speculative chunk of a run of ``blocks`` blocks.

    A pass of the lanes costs a fixed numpy overhead per step, so about the
    chunk length, and the splice a few exact blocks per chunk; the two
    balance near the root of half the blocks.
    """
    return max(1, math.isqrt(blocks // 2))


def _lanes(words: np.ndarray, block_table: np.ndarray, start: tuple[int, int, int]):
    """Step every column of ``words`` (a chunk's blocks × lanes) at once,
    each lane from the state ``start``, (q1, q2, phase << 4).

    Returns each lane's state byte and (q1, q2) at the start of each of its
    blocks and after its last block: a (chunk + 1) × lanes uint8 array and a
    (chunk + 1) × lanes × 2 int64 array.
    """
    steps, width = words.shape
    states = np.empty((steps + 1, width), dtype=np.uint8)
    lengths = np.empty((steps + 1, width, 2), dtype=np.int64)
    lengths[0] = start[:2]
    phase = np.full(width, start[2], dtype=np.uint8)
    caps = np.empty((width, 2), dtype=np.uint8)
    cap_keys = caps.view(np.uint16).reshape(-1)
    for j in range(steps + 1):
        np.minimum(lengths[j], 3, out=caps, casting="unsafe")
        np.bitwise_or(_CAPPED.take(cap_keys), phase, out=states[j])
        if j < steps:
            byte = block_table.take(words[j] | states[j])
            np.add(lengths[j], _DELTA.take(byte, axis=0), out=lengths[j + 1])
            phase = _NEXT_PHASE.take(byte)
    return states, lengths


def _block_states(words: np.ndarray, block_table: bytes) -> bytearray:
    """Each block's start state from the empty state, one byte per block.

    ``words`` holds the blocks' shifted coin words.  Speculative lanes
    (:func:`_lanes`) step every chunk of blocks at once, all from one start
    state; the splice then walks the chunks in order with the true state and
    steps a block exactly only until it is proven to match its lane.  If the
    true and lane state bytes are equal at a block and the true lengths are
    the lane's plus offsets d1 and d2, the bytes stay equal up to the lane's
    next block where a queue with a nonzero offset is below 3 in the lane or
    in the truth: the same byte and coin word give the same table byte, so
    the offsets persist, and lengths of 3 and more all cap to 3.  The splice
    copies the lane's bytes up to there and takes the lane's lengths there
    plus the offsets.  When more than a third of the blocks spliced since a
    pass were stepped exactly, the remaining chunks get a new pass from the
    true state, after a window of chunks that doubles with each pass.
    """
    blocks = words.shape[0]
    chunk = _chunk_length(blocks)
    chunks = -(-blocks // chunk)
    lane_words = np.zeros(chunks * chunk, dtype=np.uint32)
    lane_words[:blocks] = words
    lane_words = np.ascontiguousarray(lane_words.reshape(chunks, chunk).T)
    lookup = np.frombuffer(block_table, dtype=np.uint8)
    words = memoryview(words)
    unpack = _UNPACK
    states = bytearray()
    append = states.append
    q1 = q2 = phase = 0
    first, window = 0, _FIRST_WINDOW
    while first < chunks:
        lane_states, lengths = _lanes(lane_words[:, first:], lookup, (q1, q2, phase))
        width = chunks - first
        # chunk-major, chunk + 1 bytes per lane
        lane_states = lane_states.T.tobytes()
        low = [lane_states.translate(table) for table in _LOW]
        flat = memoryview(lengths.reshape(-1))
        pass_start, copied = len(states), 0
        for lane in range(width):
            begin = (first + lane) * chunk
            end = min(chunk, blocks - begin)
            offset = lane * (chunk + 1)
            here = memoryview(lane_states)[offset : offset + chunk + 1]
            coins = words[begin : begin + end]
            i = 0
            while i < end:
                state = phase | (q1 if q1 < 3 else 3) << 2 | (q2 if q2 < 3 else 3)
                if state == here[i]:
                    at = 2 * (i * width + lane)
                    offsets = q1 - flat[at], q2 - flat[at + 1]
                    stop = end
                    for queue, d in enumerate(offsets):
                        if d > 0:
                            found = low[queue].find(1, offset + i, offset + stop) - offset
                        elif d < 0:
                            below = np.flatnonzero(lengths[i:stop, lane, queue] < 3 - d)
                            found = i + int(below[0]) if below.size else -1
                        else:
                            continue
                        if found >= 0:
                            stop = found
                    if stop == i:
                        # equal bytes with a nonzero offset prove a block only
                        # where the lane's byte agrees with its own lengths
                        raise RuntimeError(
                            f"lane {lane} state byte disagrees with its lengths"
                            f" at block {begin + i}"
                        )
                    states += here[i:stop]
                    copied += stop - i
                    at = 2 * (stop * width + lane)
                    q1 = flat[at] + offsets[0]
                    q2 = flat[at + 1] + offsets[1]
                    phase = here[stop] & 16
                    i = stop
                    continue
                append(state)
                dq1, dq2, phase = unpack[block_table[coins[i] | state]]
                q1 += dq1
                q2 += dq2
                i += 1
            spliced = len(states) - pass_start
            if window <= lane + 1 < width and spliced < 3 * (spliced - copied):
                first += lane + 1
                window *= 2
                break
        else:
            break
    return states


def run_trajectory(config: SimulationConfig) -> Trajectory:
    """Simulate the full horizon from an empty initial state."""
    n = config.horizon
    streams = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(config.seed).spawn(4)
    ]
    rates = (config.l.l1, config.l.l2, config.p.p1, config.p.p2)
    # the tail block is padded with zero codes; its padding slots are cut off
    codes = np.zeros(-(-n // _BLOCK) * _BLOCK, dtype=np.int8)
    draws = np.empty(n)
    for bit, (stream, rate) in enumerate(zip(streams, rates)):
        stream.random(out=draws)
        codes[:n] |= (draws < rate).view(np.int8) << bit
    del draws

    blocks = codes.reshape(-1, _BLOCK)
    # each block's coin word, shifted past the five bits of a block state
    words = np.zeros(blocks.shape[0], dtype=np.uint32)
    for j in range(_BLOCK):
        words |= blocks[:, j].astype(np.uint32) << 4 * j + 5
    table, block_table, key_tables, _ = _tables(config.kind, config.mode)
    # each block's entry in the composed tables; its slot keys overwrite its
    # coins in place
    words |= np.frombuffer(_block_states(words, block_table), np.uint8)
    for j, key_table in enumerate(key_tables):
        np.take(key_table, words & key_table.size - 1, out=blocks[:, j])
    del words

    keys = codes[:n]
    # the steps are read as int64 and summed in place, with no int8 copy or
    # cast buffer beside the sums
    q1 = table[:, 0].astype(np.int64)[keys]
    q2 = table[:, 1].astype(np.int64)[keys]
    return Trajectory(
        q1=np.cumsum(q1, out=q1), q2=np.cumsum(q2, out=q2), keys=keys, table=table
    )


def summarize(trajectory: Trajectory, config: SimulationConfig) -> SimulationMetrics:
    w = config.warmup
    q1 = trajectory.q1[w:]
    q2 = trajectory.q2[w:]
    drift1, drift2 = _slopes(q1, q2)
    keys = trajectory.keys[w:]
    # batch i holds slots m i to m (i + 1) - 1, none in a window of under 100
    # slots; the last row counts the slots past the last batch, which enter
    # the totals only
    m = keys.shape[0] // _N_BATCHES
    edges = [i * m for i in range(_N_BATCHES + 1)] + [keys.shape[0]]
    histograms = np.stack([
        np.bincount(keys[start:stop], minlength=128) for start, stop in zip(edges, edges[1:])
    ])
    counts = histograms @ _tables(config.kind, config.mode)[3]
    batches, totals = counts[:-1], counts.sum(axis=0)

    mu1, se1 = _batch_rate(batches, totals, _SUCCESS1, _BASE1)
    mu2, se2 = _batch_rate(batches, totals, _SUCCESS2, _BASE2)
    occ, occ_se = _batch_rate(batches, totals, _BACKOFF, _EVERY)

    return SimulationMetrics(
        delivered=(int(totals[_SUCCESS1]), int(totals[_SUCCESS2])),
        busy_slots=(int(totals[_BUSY1]), int(totals[_BUSY2])),
        mu=(mu1, mu2),
        mu_stderr=(se1, se2),
        backoff_occupancy=occ,
        occupancy_stderr=occ_se,
        mean_len=(float(q1.mean()), float(q2.mean())),
        final_len=(int(q1[-1]), int(q2[-1])),
        drift=(drift1, drift2),
        verdict=(
            _verdict(q1, drift1, config.horizon),
            _verdict(q2, drift2, config.horizon),
        ),
    )


def run(config: SimulationConfig) -> SimulationMetrics:
    """Simulate and summarise; deterministic in (config, seed)."""
    return summarize(run_trajectory(config), config)
