"""Monte Carlo runner: determinism, references, verdicts, dominance coupling,
and the table-driven kernel against one ``advance_slot`` call per slot."""

import dataclasses

import numpy as np
import pytest
from helpers import classify_stability, reference_trajectory
from hypothesis import given, settings
from hypothesis import strategies as st

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
        horizon=st.integers(2, 3_000),
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
        horizon=st.integers(2, 3_000),
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
