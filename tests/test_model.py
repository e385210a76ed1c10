"""Slot-transition semantics: ordering, priority rule, dominance, totality."""

import numpy as np
import pytest

from aloha_priority.model import (
    AccessProbabilities,
    ArrivalRates,
    DominanceMode,
    Phase,
    ProtocolKind,
    SlotOutcome,
    SystemState,
    advance_slot,
)

FP = ProtocolKind.FEEDBACK_PRIORITY
RA = ProtocolKind.CONVENTIONAL_RA
NONE = DominanceMode.NONE


def step(state, kind=FP, mode=NONE, arrivals=(False, False), draws=(False, False)):
    return advance_slot(state, kind, mode, arrivals, draws)


class TestParameterTypes:
    def test_access_probability_bounds(self):
        AccessProbabilities(0.0, 1.0)
        with pytest.raises(ValueError):
            AccessProbabilities(-0.1, 0.5)
        with pytest.raises(ValueError):
            AccessProbabilities(0.5, 1.5)

    def test_arrival_rates_open_interval(self):
        ArrivalRates(0.01, 0.99)
        for bad in [(0.0, 0.5), (0.5, 1.0), (-0.2, 0.5)]:
            with pytest.raises(ValueError):
                ArrivalRates(*bad)


class TestSlotSemantics:
    def test_collision_enters_backoff_and_resolves_for_q1(self):
        state = SystemState(1, 1, Phase.NORMAL)
        state, outcome = step(state, draws=(True, True))
        assert outcome is SlotOutcome.COLLISION
        assert state == SystemState(1, 1, Phase.BACKOFF)
        # reserved slot: queue 1 delivers with probability 1, queue 2 silent
        state, outcome = step(state, draws=(False, True))
        assert outcome is SlotOutcome.PRIORITY_RETRANSMISSION
        assert state == SystemState(0, 1, Phase.NORMAL)

    def test_conventional_ra_ignores_collisions(self):
        state = SystemState(1, 1, Phase.NORMAL)
        state, outcome = step(state, kind=RA, draws=(True, True))
        assert outcome is SlotOutcome.COLLISION
        assert state.phase is Phase.NORMAL

    def test_arrival_contends_in_same_slot(self):
        state, outcome = step(
            SystemState(0, 0, Phase.NORMAL), arrivals=(True, False), draws=(True, False)
        )
        assert outcome is SlotOutcome.SUCCESS_Q1
        assert state.q1_len == 0

    def test_single_transmitter_succeeds(self):
        state, outcome = step(SystemState(0, 3, Phase.NORMAL), draws=(True, True))
        assert outcome is SlotOutcome.SUCCESS_Q2
        assert state.q2_len == 2

    def test_idle_slot(self):
        state, outcome = step(SystemState(2, 2, Phase.NORMAL), draws=(False, False))
        assert outcome is SlotOutcome.IDLE
        assert (state.q1_len, state.q2_len) == (2, 2)

    def test_dummy_success_removes_nothing(self):
        # DS1 saturates queue 2: empty buffer still transmits, wins the slot,
        # and the queue stays empty
        state, outcome = step(
            SystemState(0, 0, Phase.NORMAL), mode=DominanceMode.DS1, draws=(False, True)
        )
        assert outcome is SlotOutcome.SUCCESS_Q2
        assert state.q2_len == 0

    def test_ds3_forced_alternation(self):
        # both saturated, every access coin up (as at p=(1,1)): collision,
        # reserved success, collision, ...
        state = SystemState(0, 5, Phase.NORMAL)
        outcomes = []
        for _ in range(6):
            state, outcome = step(state, mode=DominanceMode.DS3, draws=(True, True))
            outcomes.append(outcome)
        assert outcomes == [
            SlotOutcome.COLLISION,
            SlotOutcome.PRIORITY_RETRANSMISSION,
        ] * 3
        assert state.q2_len == 5  # dummies and silenced slots leave it alone

    def test_reserved_slot_with_arrival_delivers_fresh_packet(self):
        state, outcome = step(
            SystemState(0, 1, Phase.BACKOFF), arrivals=(True, False), draws=(False, True)
        )
        assert outcome is SlotOutcome.PRIORITY_RETRANSMISSION
        assert state == SystemState(0, 1, Phase.NORMAL)

    def test_reserved_slot_without_packet_goes_idle(self):
        # not reachable from the empty start state, but the function is total
        state, outcome = step(SystemState(0, 4, Phase.BACKOFF), draws=(True, True))
        assert outcome is SlotOutcome.IDLE
        assert state == SystemState(0, 4, Phase.NORMAL)


class TestTrajectoryProperties:
    def _random_walk(self, kind, mode, seed, n=4000):
        rng = np.random.default_rng(seed)
        p = AccessProbabilities(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
        l1, l2 = rng.uniform(0.05, 0.9, size=2)
        state = SystemState(0, 0, Phase.NORMAL)
        seq = [state]
        outcomes = []
        for _ in range(n):
            state, outcome = advance_slot(
                state,
                kind,
                mode,
                (rng.random() < l1, rng.random() < l2),
                (rng.random() < p.p1, rng.random() < p.p2),
            )
            seq.append(state)
            outcomes.append(outcome)
        return seq, outcomes

    @pytest.mark.parametrize("mode", list(DominanceMode))
    @pytest.mark.parametrize("kind", [FP, RA])
    def test_queue_changes_at_most_one_per_slot(self, kind, mode):
        seq, _ = self._random_walk(kind, mode, seed=7)
        for before, after in zip(seq, seq[1:]):
            assert abs(after.q1_len - before.q1_len) <= 1
            assert abs(after.q2_len - before.q2_len) <= 1
            assert after.q1_len >= 0 and after.q2_len >= 0

    def test_no_two_consecutive_collisions_under_priority(self):
        _, outcomes = self._random_walk(FP, NONE, seed=11)
        for a, b in zip(outcomes, outcomes[1:]):
            if a is SlotOutcome.COLLISION:
                assert b is not SlotOutcome.COLLISION

    def test_priority_retransmission_only_after_collision(self):
        _, outcomes = self._random_walk(FP, DominanceMode.DS3, seed=13)
        for i, outcome in enumerate(outcomes):
            if outcome is SlotOutcome.PRIORITY_RETRANSMISSION:
                assert outcomes[i - 1] is SlotOutcome.COLLISION

    def test_conventional_ra_never_in_backoff(self):
        seq, outcomes = self._random_walk(RA, NONE, seed=17)
        assert all(s.phase is Phase.NORMAL for s in seq)
        assert SlotOutcome.PRIORITY_RETRANSMISSION not in outcomes
