"""Rate-matrix machinery: blocks, solver, closed forms, stationary law."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    NEAR_CRITICAL,
    assemble,
    product_mismatches,
    product_premise_operands,
    reference_fixed_point,
    reference_qbd_grid,
    reference_rate_matrix,
    reference_spectral_radius,
    stack_blocks,
    ulps_from,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aloha_priority import qbd
from aloha_priority.errors import (
    ComplexSpectrumError,
    DegenerateParameterError,
    NoConvergenceError,
    SingularBlockError,
    UnstableParameterError,
)
from aloha_priority.model import AccessProbabilities
from aloha_priority.qbd import (
    ds2_pi0,
    ds2_service_rate_q1,
    ds2_service_rate_q1_series,
    ds2_stationary,
    qbd_blocks,
    rate_matrix_closed_form,
    solve_rate_matrix,
    spectral_radius,
    spectral_radius_closed_form,
)
from aloha_priority.stability import ds3_mu2

HALF = AccessProbabilities(0.5, 0.5)
# l2 eight ulps below mu2'', where sp(R) < 1 but pi0 rounds below 0
_PI0_WITNESS = (AccessProbabilities(0.9845007048898241, 0.7274075192160417), 0.006569597106128218)


def _stable_grid(rng, n):
    """Random (p, l2) points strictly inside the queue-2 stability bound."""
    points = []
    while len(points) < n:
        p = AccessProbabilities(rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.0))
        bound = p.p2 * (1.0 - p.p1) / (1.0 + p.p1 * p.p2)
        if bound < 0.02:
            continue
        points.append((p, rng.uniform(0.3, 0.9) * bound))
    return points


class TestBlocks:
    def test_reference_blocks(self):
        blocks = qbd_blocks(HALF, 0.1)
        assert_allclose(blocks.b, [[0.925, 0.0], [0.0, 0.0]], rtol=1e-15)
        assert_allclose(blocks.a0, [[0.225, 0.0], [0.0, 0.0]], rtol=1e-15)
        assert_allclose(blocks.a1, [[0.475, 0.9], [0.225, 0.0]], rtol=1e-15)
        assert_allclose(blocks.a2, [[0.05, 0.1], [0.025, 0.0]], rtol=1e-15)

    def test_interior_columns_stochastic(self):
        rng = np.random.default_rng(211)
        for _ in range(200):
            p = AccessProbabilities(rng.uniform(0, 1), rng.uniform(0, 1))
            l2 = rng.uniform(0.01, 0.99)
            blocks = qbd_blocks(p, l2)
            sums = blocks.a0.sum(axis=0) + blocks.a1.sum(axis=0) + blocks.a2.sum(axis=0)
            assert_allclose(sums, [1.0, 1.0], atol=1e-14)
            for block in (blocks.b, blocks.a0, blocks.a1, blocks.a2):
                assert np.all(block >= 0.0) and np.all(block <= 1.0)

    def test_assembled_structure(self):
        t = assemble(qbd_blocks(HALF, 0.1), 6)
        # interior columns sum to 1; level-0 ON column too
        sums = t.sum(axis=0)
        assert_allclose(sums[2:10], 1.0, atol=1e-14)
        assert_allclose(sums[0], 1.0, atol=1e-14)
        with pytest.raises(ValueError):
            assemble(qbd_blocks(HALF, 0.1), 2)


class TestRateMatrix:
    def test_closed_form_reference(self):
        r = rate_matrix_closed_form(HALF, 0.1)
        assert_allclose(r, [[1.0 / 3.0, 4.0 / 9.0], [0.1, 0.1]], rtol=1e-14)

    def test_solver_matches_closed_form(self):
        rng = np.random.default_rng(223)
        points = _stable_grid(rng, 40)
        solved = solve_rate_matrix(stack_blocks([qbd_blocks(p, l2) for p, l2 in points]))
        for (p, l2), r_solved in zip(points, solved):
            r = rate_matrix_closed_form(p, l2)
            assert np.max(np.abs(r_solved - r)) < 1e-8

    def test_balance_equation(self):
        rng = np.random.default_rng(227)
        eye = np.eye(2)
        for p, l2 in _stable_grid(rng, 40):
            blocks = qbd_blocks(p, l2)
            r = rate_matrix_closed_form(p, l2)
            residual = blocks.a2 + (blocks.a1 - eye) @ r + blocks.a0 @ (r @ r)
            assert np.max(np.abs(residual)) < 1e-12

    def test_iterates_increase_monotonically(self):
        blocks = qbd_blocks(HALF, 0.1)
        m = np.linalg.inv(np.eye(2) - blocks.a1)
        r = np.zeros((2, 2))
        for _ in range(50):
            r_next = m @ (blocks.a2 + blocks.a0 @ r @ r)
            assert np.all(r_next >= r - 1e-15)
            r = r_next

    def test_boundary_point_does_not_converge(self, monkeypatch):
        # at (0.5, 0.5, l2=0.2) the chain is exactly critical: sp(R) = 1 and
        # the linear-rate fixed point stalls
        monkeypatch.setattr(qbd, "_MAX_ITER", 20_000)
        with pytest.raises(NoConvergenceError):
            solve_rate_matrix(qbd_blocks(HALF, 0.2))

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameterError):
            rate_matrix_closed_form(AccessProbabilities(1.0, 0.5), 0.1)
        with pytest.raises(DegenerateParameterError):
            rate_matrix_closed_form(AccessProbabilities(0.5, 0.0), 0.1)
        with pytest.raises(DegenerateParameterError):
            spectral_radius_closed_form(AccessProbabilities(1.0, 0.5), 0.1)

    def test_singular_block_detected(self):
        # with no arrivals and p1 = 1, phase ON -> OFF -> ON cycles forever at
        # the same level, so A1 has a unit eigenvalue and I - A1 is singular
        blocks = qbd_blocks(AccessProbabilities(1.0, 0.5), 0.0)
        with pytest.raises(SingularBlockError):
            solve_rate_matrix(blocks)


def _grid_blocks():
    """Blocks of the 1450 stable points of the 0.05 grid that verify --suite qbd solves."""
    n = 20
    points = []
    for i in range(1, n):
        for j in range(1, n + 1):
            p = AccessProbabilities(i / n, j / n)
            bound = ds3_mu2(p.p1, p.p2)
            points.extend(qbd_blocks(p, k / n) for k in range(1, n) if k / n < bound - 1e-9)
    return points


# (p1, p2, l2 as a fraction of the queue-2 bound)
_STABLE_POINT = st.tuples(
    st.floats(0.05, 0.95), st.floats(0.05, 1.0), st.floats(0.05, 0.9)
)


class TestStackedSolver:
    """The stacked solver against the one-point reference, bit for bit."""

    def test_grid_stack_matches_reference(self):
        points = _grid_blocks()
        assert len(points) == 1450
        solved = solve_rate_matrix(stack_blocks(points))
        assert solved.shape == (1450, 2, 2)
        for blocks, r in zip(points, solved):
            assert np.array_equal(r, reference_rate_matrix(blocks))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 64), st.data())
    def test_random_stacks_match_reference(self, size, data):
        # distinct points, then repeats of them up to the stack size, shuffled
        points = []
        for p1, p2, fraction in data.draw(st.lists(_STABLE_POINT, min_size=1, max_size=size)):
            p = AccessProbabilities(p1, p2)
            points.append(qbd_blocks(p, fraction * ds3_mu2(p1, p2)))
        repeats = size - len(points)
        extra = data.draw(
            st.lists(st.integers(0, len(points) - 1), min_size=repeats, max_size=repeats)
        )
        order = data.draw(st.permutations([*range(len(points)), *extra]))
        solved = solve_rate_matrix(stack_blocks([points[i] for i in order]))
        assert solved.shape == (size, 2, 2)
        reference = [reference_rate_matrix(blocks) for blocks in points]
        for i, r in zip(order, solved):
            assert np.array_equal(r, reference[i])

    def test_single_point_keeps_its_shape(self):
        blocks = qbd_blocks(HALF, 0.1)
        r = solve_rate_matrix(blocks)
        assert r.shape == (2, 2)
        assert np.array_equal(r, reference_rate_matrix(blocks))
        one = solve_rate_matrix(stack_blocks([blocks]))
        assert one.shape == (1, 2, 2)
        assert np.array_equal(one[0], r)

    def test_critical_member_does_not_converge(self, monkeypatch):
        stable = qbd_blocks(HALF, 0.1)
        other = qbd_blocks(AccessProbabilities(0.3, 0.8), 0.2)
        stack = stack_blocks([stable, qbd_blocks(HALF, 0.2), other, stable])
        monkeypatch.setattr(qbd, "_MAX_ITER", 20_000)
        with pytest.raises(NoConvergenceError, match="at 1 of 4 points"):
            solve_rate_matrix(stack)

    def test_singular_member_detected(self):
        stable = qbd_blocks(HALF, 0.1)
        singular = qbd_blocks(AccessProbabilities(1.0, 0.5), 0.0)
        with pytest.raises(SingularBlockError, match="I - A1 is singular"):
            solve_rate_matrix(stack_blocks([stable, singular, stable]))


_PREMISE = """
from helpers import product_mismatches, product_premise_operands
print(product_mismatches(*product_premise_operands()))
"""


class TestProductPremise:
    """A lone point steps through ``np.ndarray.dot`` on 2-D views and a stack
    through one stacked ``np.matmul``; the solver's bit identity rests on both
    making the same BLAS call for a 2x2 product, as ``np.dot`` and a 2-D ``@``
    do.  A numpy or BLAS build that breaks that fails here, by name, before
    any digest moves."""

    def test_dot_matches_stacked_matmul(self):
        left, right = product_premise_operands()
        assert len(left) == 20_000 + 3 * (3363 + 24_941)
        assert product_mismatches(left, right) == 0

    def test_dot_matches_stacked_matmul_at_one_and_two_blas_threads(self):
        tests = Path(__file__).parent
        path = os.pathsep.join([str(tests), str(tests.parent / "src")])
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _PREMISE], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            )
            for threads in ("1", "2")
        ]
        assert [child.communicate() for child in children] == [("0\n", "")] * 2


def _batch_lengths(monkeypatch, blocks) -> list[int]:
    """The steps of each batch a solve runs."""
    lengths = []
    batch = qbd._batch

    def counted(m, a0, a2, r, steps):
        lengths.append(steps)
        return batch(m, a0, a2, r, steps)

    monkeypatch.setattr(qbd, "_batch", counted)
    solve_rate_matrix(blocks)
    return lengths


# three points whose fixed points stop after 54, 131 and 671 steps, each
# inside a batch of the lone and the stacked schedule
_UNEVEN = [qbd_blocks(HALF, l2) for l2 in (0.1, 0.15, 0.19)]


class TestBatchEdges:
    """Where batches of steps end: a slice stops at its own step, and no
    slice takes a step past _MAX_ITER."""

    def test_uneven_steps(self, monkeypatch):
        steps = [reference_fixed_point(blocks)[1] for blocks in _UNEVEN]
        assert steps == [54, 131, 671]
        for blocks, n in zip(_UNEVEN, steps):
            # every batch but the last ends before step n, the last past it
            *earlier, last = np.cumsum(_batch_lengths(monkeypatch, blocks))
            assert all(end < n for end in earlier) and n < last
        ends = np.cumsum(_batch_lengths(monkeypatch, stack_blocks(_UNEVEN)))
        assert not set(steps) & set(ends)

    def test_one_batch_rule(self, monkeypatch):
        # min(256, max(1, 8192 // points), _MAX_ITER - taken) steps a batch,
        # for a lone point and for a stack alike
        p1, p2, l2 = NEAR_CRITICAL[0]  # 3363 steps
        far = qbd_blocks(AccessProbabilities(p1, p2), l2)
        assert _batch_lengths(monkeypatch, far) == [256] * 14
        assert _batch_lengths(monkeypatch, stack_blocks(_UNEVEN)) == [256] * 3
        assert _batch_lengths(monkeypatch, stack_blocks(_grid_blocks()))[0] == 5

    @pytest.mark.parametrize("blocks", _UNEVEN, ids=["l2=0.1", "l2=0.15", "l2=0.19"])
    def test_lone_point_stops_at_max_iter(self, blocks, monkeypatch):
        r, n = reference_fixed_point(blocks)
        monkeypatch.setattr(qbd, "_MAX_ITER", n)
        assert np.array_equal(solve_rate_matrix(blocks), r)
        monkeypatch.setattr(qbd, "_MAX_ITER", n - 1)
        with pytest.raises(NoConvergenceError, match="in %d steps at 1 of 1 points" % (n - 1)):
            solve_rate_matrix(blocks)

    def test_stack_stops_at_max_iter(self, monkeypatch):
        reference = [reference_fixed_point(blocks) for blocks in _UNEVEN]
        stack = stack_blocks(_UNEVEN)
        longest = max(n for _, n in reference)
        monkeypatch.setattr(qbd, "_MAX_ITER", longest)
        solved = solve_rate_matrix(stack)
        for (r, _), slice_r in zip(reference, solved):
            assert np.array_equal(slice_r, r)
        for _, n in reference:
            moving = sum(other >= n for _, other in reference)
            monkeypatch.setattr(qbd, "_MAX_ITER", n - 1)
            with pytest.raises(NoConvergenceError, match=f"at {moving} of 3 points"):
                solve_rate_matrix(stack)

    def test_grid_solve_memory_is_bounded(self):
        # the batch length shrinks as the stack grows: 1450 points run five
        # steps a batch and peak near 1 MB, where 256-step batches would take
        # about 25 MB; a lone point's batches, at most 256 steps, hold 8 kB
        stack = stack_blocks(_grid_blocks())
        tracemalloc.start()
        try:
            solve_rate_matrix(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


@pytest.fixture(scope="module", params=NEAR_CRITICAL, ids=["sp=0.99", "sp=0.999"])
def near_critical(request):
    p1, p2, l2 = request.param
    blocks = qbd_blocks(AccessProbabilities(p1, p2), l2)
    return blocks, *reference_fixed_point(blocks)


class TestLongLoneSolve:
    """Thousands of lone steps in 256-step batches, bit for bit the reference's."""

    def test_matches_reference(self, near_critical):
        blocks, r, n = near_critical
        assert n in (3363, 24941)
        assert solve_rate_matrix(blocks).tobytes() == r.tobytes()

    def test_stops_at_max_iter(self, near_critical, monkeypatch):
        blocks, r, n = near_critical
        monkeypatch.setattr(qbd, "_MAX_ITER", n)
        assert solve_rate_matrix(blocks).tobytes() == r.tobytes()
        monkeypatch.setattr(qbd, "_MAX_ITER", n - 1)
        with pytest.raises(NoConvergenceError, match="in %d steps at 1 of 1 points" % (n - 1)):
            solve_rate_matrix(blocks)


class TestSpectralRadius:
    def test_reference_value(self):
        sp = spectral_radius_closed_form(HALF, 0.1)
        assert_allclose(sp, 0.457613871580016, rtol=1e-12)
        assert_allclose(spectral_radius(rate_matrix_closed_form(HALF, 0.1)), sp, atol=1e-15)

    def test_complex_eigenvalues_raise(self):
        # a rotation-like matrix: eigenvalues 0.5 +- 0.5i, no real radius route
        with pytest.raises(ComplexSpectrumError):
            spectral_radius(np.array([[0.5, -0.5], [0.5, 0.5]]))

    def test_boundary_witness(self):
        # l2 = 0.2 sits exactly on the queue-2 bound at p=(0.5,0.5)
        r = rate_matrix_closed_form(HALF, 0.2)
        assert_allclose(r, [[0.75, 1.0], [0.2, 0.2]], rtol=1e-14)
        assert abs(spectral_radius(r) - 1.0) < 1e-9
        assert abs(spectral_radius_closed_form(HALF, 0.2) - 1.0) < 1e-9

    def test_two_routes_agree(self):
        rng = np.random.default_rng(229)
        for p, l2 in _stable_grid(rng, 60):
            a = spectral_radius(rate_matrix_closed_form(p, l2))
            b = spectral_radius_closed_form(p, l2)
            assert abs(a - b) < 1e-10

    def test_stability_equivalence_on_grid(self):
        # sp(R) < 1 exactly when l2 is below the closed-form bound, both ways
        n = 20
        for i in range(1, n):
            for j in range(1, n + 1):
                p = AccessProbabilities(i / n, j / n)
                bound = p.p2 * (1.0 - p.p1) / (1.0 + p.p1 * p.p2)
                for k in range(1, n):
                    l2 = k / n
                    if abs(l2 - bound) <= 1e-9:
                        continue
                    sp = spectral_radius(rate_matrix_closed_form(p, l2))
                    assert (sp < 1.0) == (l2 < bound), (p, l2, sp, bound)


class TestStationaryLaw:
    def test_pi0_reference(self):
        assert_allclose(ds2_pi0(HALF, 0.1), 5.0 / 9.0, rtol=1e-14)

    def test_pi0_unstable_and_degenerate(self):
        with pytest.raises(UnstableParameterError):
            ds2_pi0(HALF, 0.2)
        with pytest.raises(UnstableParameterError):
            ds2_pi0(HALF, 0.5)
        with pytest.raises(DegenerateParameterError):
            ds2_pi0(AccessProbabilities(1.0, 0.5), 0.1)

    def test_stationary_reference_levels(self):
        stat = ds2_stationary(HALF, 0.1, 5)
        assert_allclose(stat[0], [5.0 / 9.0, 0.0], rtol=1e-14)
        assert_allclose(stat[1], [5.0 / 27.0, 1.0 / 18.0], rtol=1e-13)

    def test_normalization(self):
        rng = np.random.default_rng(233)
        for p, l2 in _stable_grid(rng, 30):
            pi0 = ds2_pi0(p, l2)
            r = rate_matrix_closed_form(p, l2)
            total = np.ones(2) @ np.linalg.solve(np.eye(2) - r, [pi0, 0.0])
            assert abs(total - 1.0) < 1e-10

    def test_level_cut_balance(self):
        # down-flow across each level boundary equals up-flow in steady state
        rng = np.random.default_rng(239)
        for p, l2 in _stable_grid(rng, 30):
            stat = ds2_stationary(p, l2, 40)
            pi_on, eps = stat[:, 0], stat[:, 1]
            down = (1.0 - l2) * (1.0 - p.p1) * p.p2 * pi_on[1:]
            up = l2 * (1.0 - p.p2 + p.p1 * p.p2) * pi_on[:-1] + l2 * eps[:-1]
            assert np.max(np.abs(down - up)) < 1e-10

    def test_off_phase_empty_level_zero(self):
        stat = ds2_stationary(HALF, 0.1, 10)
        assert stat[0, 1] == 0.0

    def test_negative_k_max_raises(self):
        with pytest.raises(ValueError, match="k_max"):
            ds2_stationary(HALF, 0.1, -1)

    def test_float_critical_point_has_no_law(self):
        # l2 one ulp below mu2'', where the closed-form sp(R) rounds to 1, and
        # _PI0_WITNESS, where pi0 rounds below 0: every DS2 law rejects both,
        # the closed-form rate included
        p, l2 = AccessProbabilities(0.1, 0.2), 0.1764705882352941
        assert l2 < ds3_mu2(0.1, 0.2) == np.nextafter(l2, 1.0)
        assert spectral_radius(rate_matrix_closed_form(p, l2)) == 1.0
        for p, l2 in [(p, l2), _PI0_WITNESS]:
            for law in (ds2_pi0, ds2_service_rate_q1, ds2_service_rate_q1_series):
                with pytest.raises(UnstableParameterError):
                    law(p, l2)
            with pytest.raises(UnstableParameterError):
                ds2_stationary(p, l2, 3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        # p1 < 1 and p2 > 0 keep mu2'' a positive normal float, so every l2
        # drawn is a rate
        p1=st.floats(0.0, 0.999),
        p2=st.floats(0.001, 1.0),
        k=st.integers(-8, 8),
    )
    @example(p1=0.9845007048898241, p2=0.7274075192160417, k=-8)
    def test_rate_near_mu2_is_rejected_or_has_a_law(self, p1, p2, k):
        # within 8 ulps of mu2'' the guard rejects a point unless l2 < mu2''
        # and pi0 > 0 hold in floating point and the law has no negative entry
        p, bound = AccessProbabilities(p1, p2), ds3_mu2(p1, p2)
        l2 = ulps_from(bound, k)
        try:
            pi0, law = ds2_pi0(p, l2), ds2_stationary(p, l2, 3)
        except UnstableParameterError:
            return
        assert l2 < bound and pi0 > 0.0 and (law >= 0.0).all(), (l2, bound, pi0, law)


class TestServiceRate:
    def test_closed_form_reference(self):
        assert_allclose(ds2_service_rate_q1(HALF, 0.1), 0.45, rtol=1e-14)
        assert_allclose(
            ds2_service_rate_q1(AccessProbabilities(0.3, 0.8), 0.2),
            0.3 * (1.0 - 0.3 - 0.2 * 0.3) / 0.7,
            rtol=1e-14,
        )

    def test_series_route_agrees(self):
        rng = np.random.default_rng(241)
        for p, l2 in _stable_grid(rng, 40):
            closed = ds2_service_rate_q1(p, l2)
            series = ds2_service_rate_q1_series(p, l2)
            assert abs(closed - series) < 1e-10

    def test_errors(self):
        with pytest.raises(DegenerateParameterError):
            ds2_service_rate_q1(AccessProbabilities(1.0, 0.5), 0.1)
        with pytest.raises(UnstableParameterError):
            ds2_service_rate_q1(HALF, 0.3)


class TestArrayClosedForms:
    # verify --suite qbd takes each closed form over its whole grid in one
    # call; every slice must hold the doubles the one-point loop gives
    @pytest.fixture(scope="class")
    def grid(self):
        points = reference_qbd_grid()
        p1, p2, l2 = (np.array([x[key] for x in points]) for key in ("p1", "p2", "l2"))
        return points, AccessProbabilities(p1, p2), l2

    def test_blocks_match_the_scalar_loop(self, grid):
        points, p, l2 = grid
        blocks = qbd_blocks(p, l2)
        for name in ("b", "a0", "a1", "a2"):
            expected = np.stack([getattr(x["blocks"], name) for x in points])
            assert np.array_equal(getattr(blocks, name), expected), name

    def test_rate_matrix_and_radius_match_the_scalar_loop(self, grid):
        points, p, l2 = grid
        r = rate_matrix_closed_form(p, l2)
        assert np.array_equal(r, np.stack([x["r"] for x in points]))
        assert np.array_equal(spectral_radius(r), [x["sp"] for x in points])
        # one matrix at a time, as analyze qbd and the ladder call it
        assert all(spectral_radius(x["r"]) == x["sp"] for x in points[::37])

    def test_closed_form_radius_matches_the_scalar_loop(self, grid):
        points, p, l2 = grid
        stable = np.array([x["stable"] for x in points])
        assert stable.sum() == 1450
        sp = spectral_radius_closed_form(
            AccessProbabilities(p.p1[stable], p.p2[stable]), l2[stable]
        )
        assert np.array_equal(sp, [x["sp_closed"] for x in points if x["stable"]])

    def test_radius_of_random_stacks_matches_one_matrix_at_a_time(self):
        # the root's last bit: numpy's sqrt or power loops differ from the
        # numpy scalar's ** 0.5 on about one input in a thousand
        r = np.random.default_rng(409).random((20_000, 2, 2))
        expected = [reference_spectral_radius(m) for m in r]
        assert np.array_equal(spectral_radius(r), expected)

    def test_closed_form_radius_of_random_points_matches_one_point_at_a_time(self):
        # plain floats take ** (libm pow) for the squares and the root; the
        # arrays must give the same doubles
        rng = np.random.default_rng(419)
        p1, p2 = rng.uniform(0.0, 0.95, 20_000), rng.uniform(0.05, 1.0, 20_000)
        l2 = rng.uniform(0.01, 0.99, 20_000) * ds3_mu2(p1, p2)
        sp = spectral_radius_closed_form(AccessProbabilities(p1, p2), l2)
        expected = [
            spectral_radius_closed_form(AccessProbabilities(a, b), c)
            for a, b, c in zip(p1.tolist(), p2.tolist(), l2.tolist())
        ]
        assert np.array_equal(sp, expected)

    def test_any_zero_divisor_rejects_the_array(self):
        p = AccessProbabilities(np.array([0.5, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(DegenerateParameterError, match=r"^closed form divides by"):
            rate_matrix_closed_form(p, np.array([0.1, 0.1]))
        with pytest.raises(DegenerateParameterError):
            spectral_radius_closed_form(p, 0.1)

    def test_any_negative_discriminant_rejects_the_stack(self):
        r = np.array([[[0.5, 0.1], [0.1, 0.5]], [[0.0, -1.0], [1.0, 0.0]]])
        with pytest.raises(ComplexSpectrumError, match="discriminant -4.0"):
            spectral_radius(r)
