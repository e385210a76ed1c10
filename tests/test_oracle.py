"""Truncated-chain oracle: kernel enumeration, stationary solve, cross-checks,
the tabulated kernel against one ``advance_slot`` call per level, the solve
against a solve of that reference kernel, the memory each step allocates, and
the oracle against the closed forms at random stable points."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import assemble, reference_chain, reference_stationary
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aloha_priority import verify
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
from aloha_priority.qbd import ds2_stationary, qbd_blocks, spectral_radius_closed_form
from aloha_priority.simulate import SimulationConfig, run_trajectory
from aloha_priority.stability import ds1_rho, ds1_stationary, ds3_mu1, ds3_mu2
from aloha_priority.verify import local_balance_residual, oracle_tv

HALF = AccessProbabilities(0.5, 0.5)
SKEW = AccessProbabilities(0.3, 0.7)


def _at(level: int, phase: Phase) -> int:
    """Position of (level, phase) in the dense kernel: level-major, normal first."""
    return 2 * level + int(phase)


def _peak_bytes(fn) -> int:
    """Peak of the memory tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernel:
    def test_columns_stochastic(self):
        for mode, rate in ((DominanceMode.DS1, 0.15), (DominanceMode.DS2, 0.2)):
            t = build_chain(mode, SKEW, rate, 40).matrix
            assert_allclose(t.sum(axis=0), 1.0, atol=1e-14)
            assert np.all(t >= 0.0)

    def test_edge_blocks_are_zero(self):
        # level 0 cannot move down, and the cap's up-moves are clamped into
        # its same-level block
        for mode in (DominanceMode.DS1, DominanceMode.DS2):
            blocks = build_chain(mode, SKEW, 0.2, 10).blocks
            assert blocks.shape == (3, 3, 2, 2)
            assert not blocks[0, 0].any() and not blocks[2, 2].any()
            assert_allclose(blocks[2, 1], blocks[1, 1] + blocks[1, 2], rtol=1e-14)

    def test_build_allocates_no_dense_kernel(self):
        # the dense n x n kernel at this k_max would take 82 MB
        peak = _peak_bytes(lambda: build_chain(DominanceMode.DS2, SKEW, 0.2, 1600))
        assert peak < 1e6

    def test_matrix_is_fortran_ordered(self):
        t = build_chain(DominanceMode.DS1, SKEW, 0.15, 30).matrix
        assert t.shape == (62, 62)
        assert t.flags.f_contiguous and t.flags.writeable

    def test_matrix_is_laid_out_anew_on_every_read(self):
        chain = build_chain(DominanceMode.DS2, SKEW, 0.2, 30)
        blocks = chain.blocks.copy()
        first = chain.matrix
        first[:] = 0.0
        assert chain.matrix is not first
        assert np.array_equal(chain.matrix, reference_chain(DominanceMode.DS2, SKEW, 0.2, 30))
        assert np.array_equal(chain.blocks, blocks)

    def test_ds1_spot_entries(self):
        # hand-computed one-slot probabilities at p = (0.3, 0.7), l1 = 0.2
        t, ix = build_chain(DominanceMode.DS1, SKEW, 0.2, 10).matrix, _at
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


class TestChainEquality:
    """The tabulated kernel is the per-level enumeration, bit for bit."""

    @pytest.mark.parametrize("k_max", [2, 30, 200])
    @pytest.mark.parametrize("p1,p2", [(0.5, 0.5), (1.0, 1.0), (0.0, 0.5), (0.999, 0.5)])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_matches_reference(self, mode, p1, p2, k_max):
        p = AccessProbabilities(p1, p2)
        t = build_chain(mode, p, 0.15, k_max).matrix
        ref = reference_chain(mode, p, 0.15, k_max)
        assert t.dtype == ref.dtype
        assert np.array_equal(t, ref)

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
        t = build_chain(mode, p, rate, k_max).matrix
        ref = reference_chain(mode, p, rate, k_max)
        assert t.dtype == ref.dtype
        assert np.array_equal(t, ref)

    @pytest.mark.parametrize("k_max", [200, 400])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_stationary_bits_match_reference(self, mode, k_max):
        p = AccessProbabilities(0.8, 0.6)
        x = stationary(build_chain(mode, p, 0.05, k_max))
        assert np.array_equal(x, reference_stationary(reference_chain(mode, p, 0.05, k_max)))


class TestApply:
    """T v from the level blocks, against the dense kernel's product."""

    @pytest.mark.parametrize("k_max", [2, 30, 200])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_matches_the_dense_product(self, mode, k_max):
        # the two sums run in different orders, so the last bits may differ
        rng = np.random.default_rng(k_max)
        for p, rate in ((HALF, 0.1), (SKEW, 0.2), (AccessProbabilities(1.0, 1.0), 0.3)):
            chain = build_chain(mode, p, rate, k_max)
            for _ in range(5):
                v = rng.random((k_max + 1, 2))
                tv = chain.apply(v)
                assert tv.shape == v.shape
                assert_allclose(tv, (chain.matrix @ v.ravel()).reshape(-1, 2), rtol=0, atol=2e-15)

    def test_balance_residual_reads_no_dense_kernel(self, monkeypatch):
        # the four suite_ds1 points and the residuals ``verify --suite ds1``
        # prints for them
        pinned = [
            (AccessProbabilities(0.5, 0.5), 0.2, 8.673617379884035e-19),
            (AccessProbabilities(1.0, 1.0), 0.3, 6.938893903907228e-18),
            (AccessProbabilities(0.8, 0.6), 0.25, 1.1102230246251565e-16),
            (AccessProbabilities(0.35, 0.9), 0.1, 1.1102230246251565e-16),
        ]

        def dense(chain):
            raise AssertionError("the dense kernel was read")

        monkeypatch.setattr(TruncatedChain, "matrix", property(dense))
        for p, l1, value in pinned:
            assert local_balance_residual(p, l1) == value


# the growth of the peak resident set over one k_max 1600 solve, in units of
# one n x n array; a small solve first, so BLAS and LAPACK are already loaded
_RESIDENT_GROWTH = """
import resource
from aloha_priority.model import AccessProbabilities, DominanceMode
from aloha_priority.oracle import build_chain, stationary
p = AccessProbabilities(0.3, 0.8)
chain = build_chain(DominanceMode.DS2, p, 0.2, 1600)
stationary(build_chain(DominanceMode.DS2, p, 0.2, 10))
n = 2 * (chain.k_max + 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
stationary(chain)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / (8 * n * n))
"""
_THP = Path("/sys/kernel/mm/transparent_hugepage/enabled")


def _huge_pages_always() -> bool:
    """Whether the kernel backs every large anonymous mapping by huge pages."""
    return _THP.is_file() and "[always]" in _THP.read_text()


class TestStationary:
    def test_leaves_the_kernel_unchanged(self):
        chain = build_chain(DominanceMode.DS2, SKEW, 0.2, 40)
        before = chain.blocks.copy()
        stationary(chain)
        assert np.array_equal(chain.blocks, before)

    @pytest.mark.parametrize("k_max", [200, 800])
    @pytest.mark.parametrize("mode", [DominanceMode.DS1, DominanceMode.DS2])
    def test_bits_match_the_copy_based_solve(self, mode, k_max):
        expected = reference_stationary(reference_chain(mode, SKEW, 0.15, k_max))
        assert np.array_equal(stationary(build_chain(mode, SKEW, 0.15, k_max)), expected)

    def test_allocates_no_copy_of_the_kernel(self):
        # the one n x n array is the linear system; the residual is taken from
        # the blocks, not from a second dense kernel
        chain = build_chain(DominanceMode.DS2, SKEW, 0.2, 400)
        n = 2 * (chain.k_max + 1)
        assert _peak_bytes(lambda: stationary(chain)) < 1.1 * 8 * n * n

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or _huge_pages_always(),
        reason="ru_maxrss in kB and demand-zero 4 kB pages are what this reads",
    )
    def test_solve_keeps_one_kernel_resident(self):
        # tracemalloc sees neither the kernel's mapping nor LAPACK's copy, so
        # this reads the resident set of a fresh process: LAPACK's copy is one
        # n x n array, and the kernel adds only its touched pages to it
        src = Path(__file__).parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", _RESIDENT_GROWTH], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src)), check=False,
        )
        assert done.stderr == ""
        assert float(done.stdout) < 1.6

    def test_singular_chain_raises_and_leaves_the_kernel_unchanged(self):
        # every state keeps its level and phase: T = I, so T - I is singular
        blocks = np.zeros((3, 3, 2, 2))
        blocks[:, 1] = np.eye(2)
        chain = TruncatedChain(k_max=2, blocks=blocks)
        before = blocks.copy()
        with pytest.raises(SingularSystemError):
            stationary(chain)
        assert np.array_equal(chain.blocks, before)

    @pytest.mark.parametrize("cls", [0, 1, 2], ids=["level0", "interior", "cap"])
    def test_residual_sees_a_leak_in_each_level_class(self, cls):
        # columns of this class no longer sum to 1: the solve still succeeds,
        # but only the level-by-level residual can tell x is not stationary
        blocks = build_chain(DominanceMode.DS2, SKEW, 0.2, 10).blocks.copy()
        blocks[cls, 1] *= 0.9
        chain = TruncatedChain(k_max=10, blocks=blocks)
        before = blocks.copy()
        with pytest.raises(SingularSystemError, match="residual"):
            stationary(chain)
        assert np.array_equal(chain.blocks, before)

    def test_distribution_properties(self):
        chain = build_chain(DominanceMode.DS1, SKEW, 0.15, 60)
        x = stationary(chain)
        assert x.shape == (61, 2)
        assert np.all(x >= -1e-14)
        assert abs(x.sum() - 1.0) < 1e-12
        v = x.ravel()
        assert float(np.max(np.abs(chain.matrix @ v - v))) < 1e-12

    def test_unreachable_backoff_at_empty(self):
        # a reserved slot follows a collision, which needs the tracked queue
        # nonempty afterward; level 0 in phase OFF carries no mass
        for mode in (DominanceMode.DS1, DominanceMode.DS2):
            x = stationary(build_chain(mode, HALF, 0.1, 40))
            assert abs(x[0, Phase.BACKOFF]) < 1e-12

    def test_ds1_matches_closed_form(self):
        for p, l1 in ((HALF, 0.1), (SKEW, 0.15)):
            k_max = 200
            x = stationary(build_chain(DominanceMode.DS1, p, l1, k_max))
            assert total_variation(x, ds1_stationary(p, l1, k_max)) < 1e-8

    def test_ds2_matches_closed_form(self):
        for p, l2 in ((HALF, 0.1), (SKEW, 0.2)):
            k_max = 200
            x = stationary(build_chain(DominanceMode.DS2, p, l2, k_max))
            assert total_variation(x, ds2_stationary(p, l2, k_max)) < 1e-8

    def test_total_variation(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


def _bisect(f, target: float, lo: float, hi: float) -> float:
    """x in (lo, hi) with f(x) = target, for f increasing on the interval."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRandomStablePoints:
    """The oracle, built from the slot dynamics alone, against the DS1
    geometric law and the DS2 matrix-geometric law at random stable points."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        mode=st.sampled_from([DominanceMode.DS1, DominanceMode.DS2]),
        p1=st.floats(0.05, 0.95),
        p2=st.floats(0.05, 0.95),
        decay=st.floats(0.05, 0.9),
    )
    def test_oracle_matches_closed_form(self, mode, p1, p2, decay):
        # the rate at which rho (DS1) or sp(R) (DS2) equals ``decay``; the
        # mass past k_max = 200 is then of order 0.9^200, about 7e-10
        p = AccessProbabilities(p1, p2)
        if mode is DominanceMode.DS1:
            rate = _bisect(lambda l1: ds1_rho(p, l1), decay, 1e-12, ds3_mu1(p1, p2))
        else:
            rate = _bisect(
                lambda l2: spectral_radius_closed_form(p, l2), decay, 1e-12, ds3_mu2(p1, p2)
            )
        assert oracle_tv(mode, p, rate, k_max=200) < 1e-8


def test_benchmark_law_names_are_the_producers():
    # the benchmark reads the two closed-form laws by their verify names;
    # those must be the producers tested here, not copies that could drift
    assert verify.ds1_analytic_vector is ds1_stationary
    assert verify.ds2_analytic_vector is ds2_stationary


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
        t = build_chain(mode, HALF, rate, k_max).matrix
        counts = self._transition_counts(
            mode, HALF, ArrivalRates(rate, rate), 200_000, 7, 2 * (k_max + 1)
        )
        assert counts[:, 2 * k_max :].sum() == 0  # cap never reached
        visits = counts.sum(axis=0)
        checked = 0
        for j in np.flatnonzero(visits >= 1000):
            for i in range(counts.shape[0]):
                prob = t[i, j]
                if prob == 0.0:
                    assert counts[i, j] == 0
                    continue
                emp = counts[i, j] / visits[j]
                se = (prob * (1.0 - prob) / visits[j]) ** 0.5
                assert abs(emp - prob) <= 3.0 * se + 1e-12, (i, j, emp, prob)
                checked += 1
        assert checked >= 10
