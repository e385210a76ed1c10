"""Monte Carlo runner: determinism, references, verdicts, dominance coupling,
the three-slot block table against ``slot_table``, and the table-driven kernel
against one ``advance_slot`` call per slot."""

import dataclasses
import signal
import tracemalloc

import numpy as np
import pytest
from helpers import classify_stability, reference_trajectory
from hypothesis import given, settings
from hypothesis import strategies as st

from aloha_priority import simulate
from aloha_priority.model import (
    AccessProbabilities,
    ArrivalRates,
    DominanceMode,
    Phase,
    ProtocolKind,
    SlotOutcome,
    SystemState,
    advance_slot,
    slot_table,
)
from aloha_priority.simulate import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    SimulationConfig,
    Trajectory,
    _block_table,
    _lanes,
    _slopes,
    run,
    run_trajectory,
)
from aloha_priority.stability import ds1_service_rate_q2

HALF = AccessProbabilities(0.5, 0.5)


def _config(**overrides):
    base = dict(
        kind=ProtocolKind.FEEDBACK_PRIORITY,
        mode=DominanceMode.NONE,
        p=HALF,
        l=ArrivalRates(0.1, 0.1),
        horizon=50_000,
        seed=31,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfig:
    def test_warmup_defaults(self):
        assert _config(horizon=1_000_000).warmup == 10_000
        assert _config(horizon=4_000_000).warmup == 40_000
        assert _config(horizon=4_000).warmup == 2_000
        assert _config(horizon=50_000, warmup=123).warmup == 123

    def test_rejected(self):
        with pytest.raises(ValueError):
            _config(horizon=1)
        with pytest.raises(ValueError):
            _config(seed=-1)
        with pytest.raises(ValueError):
            _config(warmup=50_000)
        with pytest.raises(ValueError):
            _config(warmup=-1)


class TestDeterminism:
    def test_identical_reruns(self):
        config = _config(mode=DominanceMode.DS1, l=ArrivalRates(0.1, 0.5))
        assert run(config) == run(config)

    def test_seed_changes_coins(self):
        a = run_trajectory(_config(seed=31))
        b = run_trajectory(_config(seed=32))
        assert not np.array_equal(a.q1, b.q1)


class TestReferencePoints:
    def test_both_saturated_full_access_alternation(self):
        # p = (1, 1) with both queues saturated collides every normal slot and
        # resolves every reserved slot, so the phase alternates exactly and
        # queue 1 delivers one packet per two slots
        config = _config(
            mode=DominanceMode.DS3,
            p=AccessProbabilities(1.0, 1.0),
            l=ArrivalRates(0.3, 0.3),
            horizon=10_000,
        )
        traj = run_trajectory(config)
        assert np.array_equal(traj.phase_start, np.arange(10_000) % 2)
        assert np.array_equal(
            traj.outcome[::2], np.full(5_000, int(SlotOutcome.COLLISION))
        )
        assert np.array_equal(
            traj.outcome[1::2],
            np.full(5_000, int(SlotOutcome.PRIORITY_RETRANSMISSION)),
        )
        # queue 2 never succeeds, so its recorded length never decreases
        assert np.all(np.diff(traj.q2) >= 0)

        metrics = run(config)
        assert metrics.backoff_occupancy == 0.5
        assert metrics.occupancy_stderr == 0.0
        assert metrics.mu == (0.5, 0.0)
        assert metrics.delivered == (2_500, 0)

    def test_saturated_q2_service_rate(self):
        # queue 2 saturated, queue 1 stable: empirical service rate of the
        # saturated queue against the closed form, fixed seed
        config = _config(
            mode=DominanceMode.DS1,
            l=ArrivalRates(0.2, 0.5),
            horizon=300_000,
        )
        metrics = run(config)
        analytic = ds1_service_rate_q2(HALF, 0.2)
        assert analytic == pytest.approx(0.35, rel=1e-15)
        assert abs(metrics.mu[1] - analytic) < max(
            0.005, 4.0 * metrics.mu_stderr[1]
        )
        assert metrics.verdict[0] == STABLE

    def test_unforced_rate_is_per_busy_slot(self):
        config = _config(horizon=100_000)
        metrics = run(config)
        assert metrics.mu[0] == pytest.approx(
            metrics.delivered[0] / metrics.busy_slots[0], rel=1e-12
        )
        assert metrics.mu[1] == pytest.approx(
            metrics.delivered[1] / metrics.busy_slots[1], rel=1e-12
        )

    def test_overload_verdicts(self):
        config = _config(l=ArrivalRates(0.9, 0.9), horizon=150_000)
        metrics = run(config)
        assert metrics.verdict == (UNSTABLE, UNSTABLE)
        # total backlog growth is at least the arrival excess over the
        # channel's one packet per slot
        assert metrics.drift[0] + metrics.drift[1] > 0.8 - 0.02


class TestClassifier:
    def test_clear_ramp_is_unstable(self):
        lengths = 0.1 * np.arange(20_000)
        verdict = classify_stability(lengths)
        assert verdict == UNSTABLE

    def test_bounded_noise_is_stable(self):
        lengths = np.random.default_rng(5).poisson(3.0, 20_000).astype(np.float64)
        assert classify_stability(lengths) == STABLE

    def test_short_window_is_inconclusive(self):
        assert classify_stability(np.arange(100.0)) == INCONCLUSIVE

    def test_flat_but_high_is_inconclusive(self):
        # no drift, yet the queue never came down: not stable, not unstable
        lengths = np.full(20_000, 5_000.0)
        verdict = classify_stability(lengths, total_slots=20_000)
        assert verdict == INCONCLUSIVE


def _window(kind: str, n: int, seed: int) -> np.ndarray:
    """An int64 length window of one shape: constant, zero, ramp or walk."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, int(rng.integers(1, 10**6)), dtype=np.int64)
    if kind == "zero":
        return np.zeros(n, dtype=np.int64)
    if kind == "ramp":
        return np.arange(n, dtype=np.int64) * int(rng.integers(-3, 4)) + int(rng.integers(0, 100))
    return np.abs(np.cumsum(rng.integers(-1, 2, n), dtype=np.int64))


_WINDOW_KIND = st.sampled_from(["constant", "zero", "ramp", "walk"])


class TestSlopes:
    """The drift of both queues, fitted on one shared design, against polyfit."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5000), _WINDOW_KIND, _WINDOW_KIND, st.integers(0, 2**32 - 1))
    def test_bits_match_polyfit(self, n, kind1, kind2, seed):
        q1, q2 = _window(kind1, n, seed), _window(kind2, n, seed + 1)
        x = np.arange(n, dtype=np.float64)
        expected = [float(np.polyfit(x, q, 1)[0]) for q in (q1, q2)]
        assert np.array(_slopes(q1, q2)).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n", [300_001, 990_000, 2_000_001])
    def test_bits_match_polyfit_on_long_windows(self, n):
        # below n = 5000 every partial sum of x**2 is exact; at the two larger
        # n, polyfit's in-order column norm and numpy's pairwise sum part
        q1, q2 = _window("walk", n, n), _window("ramp", n, n + 1)
        x = np.arange(n, dtype=np.float64)
        expected = [float(np.polyfit(x, q, 1)[0]) for q in (q1, q2)]
        assert np.array(_slopes(q1, q2)).tobytes() == np.array(expected).tobytes()
        if n >= 990_000:
            assert np.sum(x * x) != np.cumsum(x * x)[-1]

    def test_traced_peak_is_24_bytes_per_slot(self):
        # the design's 16 B/slot and one queue's cast window; no float arange,
        # squared design or x**2 temporary beside them
        n = 990_000
        q1, q2 = _window("walk", n, 5), _window("ramp", n, 6)
        tracemalloc.start()
        try:
            _slopes(q1, q2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n + 65_536

    def test_one_slot_window_has_no_slope(self):
        one = np.array([7], dtype=np.int64)
        assert all(np.isnan(_slopes(one, one)))


class TestDominanceCoupling:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_saturating_the_competitor_lengthens_the_tracked_queue(self, seed):
        # the four modes consume identical coin streams, so the saturation
        # coupling is visible slot for slot: dummy packets in the competitor
        # only add interference to the tracked queue.  (No such slotwise
        # ordering holds for a queue against its own saturated variant; a
        # dummy collision reserves a slot that can help that queue drain.)
        trajs = {
            mode: run_trajectory(
                _config(mode=mode, l=ArrivalRates(0.15, 0.1), seed=seed)
            )
            for mode in (DominanceMode.NONE, DominanceMode.DS1, DominanceMode.DS2)
        }
        assert np.all(trajs[DominanceMode.DS1].q1 >= trajs[DominanceMode.NONE].q1)
        assert np.all(trajs[DominanceMode.DS2].q2 >= trajs[DominanceMode.NONE].q2)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(ProtocolKind),
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
        l1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        l2=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        horizon=st.integers(2, 30_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dominance_holds_pathwise_for_random_configs(
        self, kind, p1, p2, l1, l2, horizon, seed
    ):
        def trajectory(mode):
            return run_trajectory(
                _config(
                    kind=kind,
                    mode=mode,
                    p=AccessProbabilities(p1, p2),
                    l=ArrivalRates(l1, l2),
                    horizon=horizon,
                    seed=seed,
                )
            )

        none = trajectory(DominanceMode.NONE)
        assert np.all(trajectory(DominanceMode.DS1).q1 >= none.q1)
        assert np.all(trajectory(DominanceMode.DS2).q2 >= none.q2)


def _assert_same_trajectory(got, expected):
    for field in dataclasses.fields(Trajectory):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert a.dtype == b.dtype, field.name
        assert np.array_equal(a, b), field.name


_UNIT = st.floats(0.0, 1.0)
_RATE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestKernelEquality:
    # the last two points drive a saturated queue with an empty buffer, where
    # a success is a dummy that removes nothing
    @pytest.mark.parametrize(
        "p, l",
        [((0.6, 0.4), (0.25, 0.3)), ((1.0, 0.01), (0.995, 0.5)), ((0.0, 1.0), (0.3, 0.3))],
    )
    @pytest.mark.parametrize("mode", list(DominanceMode))
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_matches_advance_slot_reference(self, kind, mode, p, l):
        config = _config(
            kind=kind,
            mode=mode,
            p=AccessProbabilities(*p),
            l=ArrivalRates(*l),
            horizon=20_000,
        )
        _assert_same_trajectory(run_trajectory(config), reference_trajectory(config))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(ProtocolKind),
        mode=st.sampled_from(DominanceMode),
        p1=_UNIT,
        p2=_UNIT,
        l1=_RATE,
        l2=_RATE,
        horizon=st.integers(2, 30_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_configs_match_reference(
        self, kind, mode, p1, p2, l1, l2, horizon, seed
    ):
        config = _config(
            kind=kind,
            mode=mode,
            p=AccessProbabilities(p1, p2),
            l=ArrivalRates(l1, l2),
            horizon=horizon,
            seed=seed,
        )
        _assert_same_trajectory(run_trajectory(config), reference_trajectory(config))


class TestBlockLoop:
    # every horizon mod 3, so the padded tail block is cut at each offset;
    # at the overload point the queues grow far past the block table's cap.
    # At the third point queue 2's buffer grows while queue 1 empties often,
    # so the splice jumps on a positive offset of queue 2; at the last, near
    # the conventional boundary, both queues wander far from empty and back,
    # so a pass started from a long queue meets negative offsets.  A chunk
    # length other than None replaces the derived one: chunk edges
    # 3 * 5 * k + {0, 1, 2, 3} for k = 1, 2, then 40 chunks, and one-block
    # chunks, where every block is a chunk edge.  20001 slots run 117 chunks
    # of the derived 57 blocks.
    @pytest.mark.parametrize(
        "horizon, chunk",
        [
            *((horizon, None) for horizon in (2, 3, 4, 5, 6, 7, 20_001)),
            *((15 * k + r, 5) for k in (1, 2) for r in range(4)),
            (15 * 40 + 1, 5),
            (601, 1),
        ],
    )
    @pytest.mark.parametrize(
        "p, l",
        [
            ((0.6, 0.4), (0.25, 0.3)),
            ((1.0, 0.01), (0.995, 0.5)),
            ((0.5, 0.5), (0.2, 0.5)),
            ((0.5, 0.5), (0.24, 0.25)),
        ],
    )
    @pytest.mark.parametrize("mode", list(DominanceMode))
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_tail_and_long_queues_match_reference(
        self, monkeypatch, kind, mode, p, l, horizon, chunk
    ):
        if chunk is not None:
            monkeypatch.setattr(simulate, "_chunk_length", lambda blocks: chunk)
        config = _config(
            kind=kind,
            mode=mode,
            p=AccessProbabilities(*p),
            l=ArrivalRates(*l),
            horizon=horizon,
        )
        got = run_trajectory(config)
        _assert_same_trajectory(got, reference_trajectory(config))
        if horizon > 20_000 and l[0] + l[1] > 1.0:
            assert got.q2.max() > 100

    def test_traced_peak_is_under_24_bytes_per_slot(self):
        # the trajectory's 20 B/slot, the key buffer and a bool temporary: no
        # int8 copy or cast buffer beside the int64 sums, no second key array
        config = _config(horizon=1_000_000)
        run_trajectory(_config(horizon=10))
        tracemalloc.start()
        try:
            run_trajectory(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * config.horizon


class TestLanes:
    # lanes that start from lengths past 2**15 and past 2**31, and from one
    # just below 2**15 that grows past it; three of the starts put the other
    # queue near empty, where the cap of 3 decides the table entry
    @pytest.mark.parametrize(
        "start",
        [(2**15 - 2, 1, 0), (2**15 + 3, 2, 16), (1, 2**31 + 7, 0), (2**31 - 1, 2**15, 16)],
    )
    @pytest.mark.parametrize("mode", [DominanceMode.NONE, DominanceMode.DS1])
    def test_long_starts_match_exact_block_steps(self, mode, start):
        table = np.array(slot_table(ProtocolKind.FEEDBACK_PRIORITY, mode), dtype=np.int8)
        block = np.frombuffer(_block_table(table)[0], dtype=np.uint8)
        rng = np.random.default_rng(start[0] ^ start[1])
        steps, width = 120, 6
        # the longer queue's arrival coin is set in every slot, so it never
        # shrinks; every other coin is random
        arrivals = 0x111 if start[0] > start[1] else 0x222
        words = (rng.integers(0, 4096, size=(steps, width)) | arrivals).astype(np.uint32) << 5
        states, lengths = _lanes(words, block, start)
        assert states.shape == (steps + 1, width) and lengths.shape == (steps + 1, width, 2)
        for lane in range(width):
            q1, q2, phase = start
            for j in range(steps + 1):
                state = phase | min(q1, 3) << 2 | min(q2, 3)
                assert (states[j, lane], *lengths[j, lane]) == (state, q1, q2)
                if j < steps:
                    byte = int(block[int(words[j, lane]) | state])
                    q1 += (byte & 7) - 3
                    q2 += (byte >> 3 & 7) - 3
                    phase = byte >> 6 << 4
        assert lengths.max() >= max(start[:2]) + 3

    def test_lane_byte_against_its_lengths_fails_fast(self, monkeypatch):
        """Lanes whose state bytes cap their lengths at 2, not 3, make the
        splice meet a block it can neither prove nor step past; it raises
        within seconds where it used to spin on that block."""
        lanes = simulate._lanes

        def capped_at_two(words, block_table, start):
            states, lengths = lanes(words, block_table, start)
            capped = np.minimum(lengths, 2).astype(np.uint8)
            return states & 16 | capped[..., 0] << 2 | capped[..., 1], lengths

        def timed_out(signum, frame):
            raise TimeoutError("the splice did not fail within 20 s")

        monkeypatch.setattr(simulate, "_lanes", capped_at_two)
        # queue 1 wanders far from empty, so lanes and truth differ in length
        config = _config(
            kind=ProtocolKind.CONVENTIONAL_RA, mode=DominanceMode.DS3,
            p=AccessProbabilities(0.294, 0.443), l=ArrivalRates(0.164, 0.038),
            horizon=200_000,
        )
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError, match=r"lane \d+ .* at block \d+"):
                run_trajectory(config)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _three_slots(table, phase, q1, q2, word):
    """Three ``slot_table`` steps from true lengths ``q1``, ``q2`` (arrays):
    the change of each length, the next phase and the three slots' keys."""
    start1, start2 = q1, q2
    keys = []
    for j in range(3):
        code = word >> 4 * j & 15
        key = phase << 6 | (q1 > 0) << 5 | (q2 > 0) << 4 | code
        keys.append(key)
        q1, q2, phase = q1 + table[key, 0], q2 + table[key, 1], table[key, 2]
    return q1 - start1, q2 - start2, phase, keys


class TestBlockTable:
    @pytest.mark.parametrize("mode", list(DominanceMode))
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_entries_are_three_slot_table_steps(self, kind, mode):
        # byte (word << 5 | state) packs (dq1 + 3) | (dq2 + 3) << 3 | phase << 6
        # for state phase << 4 | min(q1, 3) << 2 | min(q2, 3); every true
        # length 0-6 is walked, so lengths 4, 5 and 6 must read the entry of 3.
        # Key table j holds slot j's key at the low 9 + 4j bits of the entry.
        table = np.array(slot_table(kind, mode), dtype=np.int64)
        packed, key_tables = _block_table(table.astype(np.int8))
        block = np.frombuffer(packed, dtype=np.uint8)
        assert block.shape == (2 * 4 * 4 * 16**3,)
        phase, q1, q2, word = np.meshgrid(
            np.arange(2), np.arange(7), np.arange(7), np.arange(4096), indexing="ij"
        )
        dq1, dq2, after, keys = _three_slots(table, phase, q1, q2, word)
        state = phase << 4 | np.minimum(q1, 3) << 2 | np.minimum(q2, 3)
        index = word << 5 | state
        entry = block[index].astype(np.int64)
        assert np.array_equal(entry & 7, dq1 + 3)
        assert np.array_equal(entry >> 3 & 7, dq2 + 3)
        assert np.array_equal(entry >> 6, after)
        assert np.all(entry < 128)
        for j, key_table in enumerate(key_tables):
            assert (key_table.dtype, key_table.size) == (np.int8, 1 << 9 + 4 * j)
            assert np.array_equal(key_table.reshape(-1)[index & key_table.size - 1], keys[j])


class TestSlotTable:
    @pytest.mark.parametrize("mode", list(DominanceMode))
    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_only_buffer_emptiness_matters(self, kind, mode):
        # each key's entry is what advance_slot does to buffers of any
        # nonempty length in place of length 1
        table = slot_table(kind, mode)
        assert len(table) == 128
        for key, entry in enumerate(table):
            phase = Phase(key >> 6)
            arrivals = (bool(key & 1), bool(key & 2))
            draws = (bool(key & 4), bool(key & 8))
            for length in (1, 2, 7):
                q1 = length * (key >> 5 & 1)
                q2 = length * (key >> 4 & 1)
                after, outcome = advance_slot(
                    SystemState(q1, q2, phase), kind, mode, arrivals, draws
                )
                assert (
                    after.q1_len - q1,
                    after.q2_len - q2,
                    after.phase,
                    outcome,
                ) == entry, (key, length)
