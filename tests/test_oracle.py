"""Truncated-chain oracle: kernel enumeration, stationary solve, cross-checks,
the tabulated kernel against one ``advance_slot`` call per level, and the
in-place solve against a solve in a copy of the kernel."""

import tracemalloc

import numpy as np
import pytest
from helpers import assemble, reference_chain, reference_stationary
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aloha_priority.errors import SingularSystemError
from aloha_priority.model import (
    AccessProbabilities,
    ArrivalRates,
    DominanceMode,
    Phase,
    ProtocolKind,
)
from aloha_priority.oracle import (
    TruncatedChain,
    build_chain,
    stationary,
    total_variation,
)
from aloha_priority.qbd import ds2_stationary, qbd_blocks
from aloha_priority.simulate import SimulationConfig, run_trajectory
from aloha_priority.stability import ds1_steady_state

HALF = AccessProbabilities(0.5, 0.5)
SKEW = AccessProbabilities(0.3, 0.7)


class TestKernel:
    def test_columns_stochastic(self):
        for mode, rate in ((DominanceMode.DS1, 0.15), (DominanceMode.DS2, 0.2)):
            chain = build_chain(mode, SKEW, rate, 40)
            assert_allclose(chain.matrix.sum(axis=0), 1.0, atol=1e-14)
            assert np.all(chain.matrix >= 0.0)

    def test_ds1_spot_entries(self):
        # hand-computed one-slot probabilities at p = (0.3, 0.7), l1 = 0.2
        chain = build_chain(DominanceMode.DS1, SKEW, 0.2, 10)
        t, ix = chain.matrix, chain.index
        n0, n1, n2 = ix(0, Phase.NORMAL), ix(1, Phase.NORMAL), ix(2, Phase.NORMAL)
        b1, b2 = ix(1, Phase.BACKOFF), ix(2, Phase.BACKOFF)
        # empty queue: only an arriving packet can transmit or collide
        assert_allclose(t[n0, n0], 0.8 + 0.2 * 0.3 * 0.3, rtol=1e-14)
        assert_allclose(t[n1, n0], 0.2 * 0.7, rtol=1e-14)
        assert_allclose(t[b1, n0], 0.2 * 0.3 * 0.7, rtol=1e-14)
        # reserved slot: retransmission succeeds surely, only the arrival acts
        assert_allclose(t[n0, b1], 0.8, rtol=1e-14)
        assert_allclose(t[n1, b1], 0.2, rtol=1e-14)
        # occupied queue in a normal slot
        assert_allclose(t[n0, n1], 0.8 * 0.3 * 0.3, rtol=1e-14)
        assert_allclose(t[n1, n1], 0.2 * 0.3 * 0.3 + 0.8 * 0.7, rtol=1e-14)
        assert_allclose(t[b1, n1], 0.8 * 0.3 * 0.7, rtol=1e-14)
        assert_allclose(t[n2, n1], 0.2 * 0.7, rtol=1e-14)
        assert_allclose(t[b2, n1], 0.2 * 0.3 * 0.7, rtol=1e-14)

    def test_ds2_kernel_reproduces_blocks(self):
        # the enumerated kernel and the transcribed QBD blocks are independent
        # routes to the same chain; away from the truncation row they must
        # agree entry for entry
        # column 1 is exempt: the kernel gives the unreachable 0-OFF state its
        # genuine (mass-preserving) transitions while the assembled matrix
        # leaves that column deficient, and no stationary mass sits there
        k_max = 12
        cols = [0] + list(range(2, 2 * k_max))
        for p, l2 in ((HALF, 0.1), (SKEW, 0.2), (AccessProbabilities(0.9, 0.4), 0.01)):
            chain = build_chain(DominanceMode.DS2, p, l2, k_max)
            assembled = assemble(qbd_blocks(p, l2), k_max + 1)
            assert_allclose(chain.matrix[:, cols], assembled[:, cols], atol=1e-13)

    def test_truncation_clamps_top_level(self):
        k_max = 8
        blocks = qbd_blocks(HALF, 0.1)
        chain = build_chain(DominanceMode.DS2, HALF, 0.1, k_max)
        top = chain.matrix[2 * k_max :, 2 * k_max :]
        assert_allclose(top, blocks.a1 + blocks.a2, atol=1e-13)

    def test_rejected_inputs(self):
        with pytest.raises(ValueError):
            build_chain(DominanceMode.NONE, HALF, 0.1, 10)
        with pytest.raises(ValueError):
            build_chain(DominanceMode.DS3, HALF, 0.1, 10)
        with pytest.raises(ValueError):
            build_chain(DominanceMode.DS1, HALF, 0.1, 1)
        with pytest.raises(ValueError):
            build_chain(DominanceMode.DS1, HALF, 0.0, 10)
        with pytest.raises(ValueError):
            build_chain(DominanceMode.DS1, HALF, 1.0, 10)

    def test_index_bounds(self):
        chain = build_chain(DominanceMode.DS1, HALF, 0.1, 5)
        assert chain.index(3, Phase.BACKOFF) == 7
        with pytest.raises(ValueError):
            chain.index(6, Phase.NORMAL)


class TestChainEquality:
    """The tabulated kernel is the per-level enumeration, bit for bit."""

    @pytest.mark.parametrize("k_max", [2, 30, 200])
    @pytest.mark.parametrize("p1,p2", [(0.5, 0.5), (1.0, 1.0), (0.0, 0.5), (0.999, 0.5)])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_matches_reference(self, mode, p1, p2, k_max):
        p = AccessProbabilities(p1, p2)
        chain = build_chain(mode, p, 0.15, k_max)
        ref = reference_chain(mode, p, 0.15, k_max)
        assert chain.matrix.dtype == ref.matrix.dtype
        assert np.array_equal(chain.matrix, ref.matrix)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        mode=st.sampled_from([DominanceMode.DS1, DominanceMode.DS2]),
        p1=st.integers(0, 20).map(lambda i: i / 20),
        p2=st.integers(0, 20).map(lambda i: i / 20),
        rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        k_max=st.integers(2, 60),
    )
    def test_matches_reference_property(self, mode, p1, p2, rate, k_max):
        p = AccessProbabilities(p1, p2)
        chain = build_chain(mode, p, rate, k_max)
        ref = reference_chain(mode, p, rate, k_max)
        assert chain.matrix.dtype == ref.matrix.dtype
        assert np.array_equal(chain.matrix, ref.matrix)

    @pytest.mark.parametrize("k_max", [200, 400])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_stationary_bits_match_reference(self, mode, k_max):
        x = stationary(build_chain(mode, SKEW, 0.15, k_max))
        assert np.array_equal(x, stationary(reference_chain(mode, SKEW, 0.15, k_max)))


class TestStationary:
    def test_leaves_the_kernel_unchanged(self):
        chain = build_chain(DominanceMode.DS2, SKEW, 0.2, 40)
        before = chain.matrix.copy()
        stationary(chain)
        assert np.array_equal(chain.matrix, before)

    def test_memory_order_does_not_change_the_solution(self):
        t = build_chain(DominanceMode.DS1, SKEW, 0.15, 60).matrix
        c_order = TruncatedChain(k_max=60, matrix=np.ascontiguousarray(t))
        f_order = TruncatedChain(k_max=60, matrix=np.asfortranarray(t))
        assert c_order.matrix.flags.c_contiguous and f_order.matrix.flags.f_contiguous
        assert np.array_equal(stationary(c_order), stationary(f_order))

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("k_max", [200, 800])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_bits_match_the_copy_based_solve(self, mode, k_max, order):
        t = build_chain(mode, SKEW, 0.15, k_max).matrix
        chain = TruncatedChain(k_max=k_max, matrix=np.array(t, order=order))
        expected = reference_stationary(chain)
        assert np.array_equal(stationary(chain), expected)
        assert np.array_equal(chain.matrix, t)

    def test_allocates_no_copy_of_the_kernel(self):
        chain = build_chain(DominanceMode.DS2, SKEW, 0.2, 400)
        tracemalloc.start()
        try:
            stationary(chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * chain.matrix.nbytes

    def test_singular_chain_raises_and_leaves_the_kernel_unchanged(self):
        chain = TruncatedChain(k_max=2, matrix=np.asfortranarray(np.eye(6)))
        before = chain.matrix.copy()
        with pytest.raises(SingularSystemError):
            stationary(chain)
        assert np.array_equal(chain.matrix, before)

    def test_distribution_properties(self):
        chain = build_chain(DominanceMode.DS1, SKEW, 0.15, 60)
        x = stationary(chain)
        assert np.all(x >= -1e-14)
        assert abs(x.sum() - 1.0) < 1e-12
        assert float(np.max(np.abs(chain.matrix @ x - x))) < 1e-12

    def test_unreachable_backoff_at_empty(self):
        # a reserved slot follows a collision, which needs the tracked queue
        # nonempty afterward; level 0 in phase OFF carries no mass
        for mode in (DominanceMode.DS1, DominanceMode.DS2):
            chain = build_chain(mode, HALF, 0.1, 40)
            x = stationary(chain)
            assert abs(x[chain.index(0, Phase.BACKOFF)]) < 1e-12

    def test_ds1_matches_closed_form(self):
        for p, l1 in ((HALF, 0.1), (SKEW, 0.15)):
            k_max = 200
            chain = build_chain(DominanceMode.DS1, p, l1, k_max)
            x = stationary(chain)
            state = ds1_steady_state(p, l1)
            analytic = np.zeros_like(x)
            for k in range(k_max + 1):
                analytic[chain.index(k, Phase.NORMAL)] = state.pi(k)
                analytic[chain.index(k, Phase.BACKOFF)] = state.eps(k)
            assert total_variation(x, analytic) < 1e-8

    def test_ds2_matches_closed_form(self):
        for p, l2 in ((HALF, 0.1), (SKEW, 0.2)):
            k_max = 200
            chain = build_chain(DominanceMode.DS2, p, l2, k_max)
            x = stationary(chain)
            law = ds2_stationary(p, l2, k_max)
            analytic = np.zeros_like(x)
            for k in range(k_max + 1):
                analytic[chain.index(k, Phase.NORMAL)] = law[k, 0]
                analytic[chain.index(k, Phase.BACKOFF)] = law[k, 1]
            assert total_variation(x, analytic) < 1e-8

    def test_total_variation(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


class TestAgainstSimulator:
    def _transition_counts(self, mode, p, l, horizon, seed, n_states):
        config = SimulationConfig(
            kind=ProtocolKind.FEEDBACK_PRIORITY,
            mode=mode,
            p=p,
            l=l,
            horizon=horizon,
            seed=seed,
        )
        traj = run_trajectory(config)
        lengths = traj.q1 if mode is DominanceMode.DS1 else traj.q2
        pre = np.concatenate(([0], lengths[:-1]))
        from_idx = 2 * pre[:-1] + traj.phase_start[:-1]
        to_idx = 2 * lengths[:-1] + traj.phase_start[1:]
        counts = np.zeros((n_states, n_states))
        np.add.at(counts, (to_idx, from_idx), 1.0)
        return counts

    @pytest.mark.parametrize(
        "mode,rate",
        [(DominanceMode.DS1, 0.1), (DominanceMode.DS2, 0.1)],
    )
    def test_empirical_frequencies_match_kernel(self, mode, rate):
        # given the from-state, transition targets are multinomial draws from
        # the kernel column; well-visited states must match within 3 SE, and
        # kernel zeros must never occur at all
        k_max = 50
        chain = build_chain(mode, HALF, rate, k_max)
        counts = self._transition_counts(
            mode, HALF, ArrivalRates(rate, rate), 200_000, 7, 2 * (k_max + 1)
        )
        assert counts[:, 2 * k_max :].sum() == 0  # cap never reached
        visits = counts.sum(axis=0)
        checked = 0
        for j in np.flatnonzero(visits >= 1000):
            for i in range(counts.shape[0]):
                prob = chain.matrix[i, j]
                if prob == 0.0:
                    assert counts[i, j] == 0
                    continue
                emp = counts[i, j] / visits[j]
                se = (prob * (1.0 - prob) / visits[j]) ** 0.5
                assert abs(emp - prob) <= 3.0 * se + 1e-12, (i, j, emp, prob)
                checked += 1
        assert checked >= 10
