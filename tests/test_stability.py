"""Closed-form stability results against substitution values and each other."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    conventional_region_contains,
    reference_ds1_law,
    reference_levels,
    reference_region_rows,
    stack_blocks,
    ulps_from,
)
from numpy.testing import assert_allclose

from aloha_priority import oracle, qbd, verify
from aloha_priority.errors import AlohaError, DegenerateParameterError, UnstableParameterError
from aloha_priority.model import AccessProbabilities, ArrivalRates, DominanceMode
from aloha_priority.oracle import total_variation
from aloha_priority.stability import (
    ds1_pi0,
    ds1_rate_matrix,
    ds1_region_contains,
    ds1_rho,
    ds1_service_rate_q2,
    ds1_stationary,
    ds2_l2_limit,
    ds2_mu1,
    ds2_region_contains,
    ds3_mu1,
    ds3_steady_state,
    optimal_p2,
    priority_boundary,
    ra_boundary,
    td_boundary,
    union_region_contains,
)


def _sample_params(rng):
    p = AccessProbabilities(rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
    l1 = rng.uniform(0.01, 0.95)
    return p, l1


# (p1, p2, l1) that rho < 1 alone admits: one ulp below mu1'' with pi0 = 0,
# and at mu1'' with pi0 = 0 and with pi0 > 0
_DS1_WITNESSES = [
    (0.541523260907531, 0.9312651808120499, 0.35998313384517655),
    (0.4850160862096635, 0.8975164894231576, 0.33791731972282224),
    (0.32973171649909216, 0.7884287034284043, 0.2616980798412959),
]


class TestDs1Chain:
    def test_rho_reference_value(self):
        # l1(1-p1+l1 p1 p2) / (p1(1-l1)(1-l1 p2)) at p=(0.5,0.5), l1=0.2
        assert_allclose(ds1_rho(AccessProbabilities(0.5, 0.5), 0.2), 0.11 / 0.36, rtol=1e-15)

    def test_rho_degenerate_cases(self):
        with pytest.raises(DegenerateParameterError):
            ds1_rho(AccessProbabilities(0.0, 0.5), 0.2)
        # p2=0 is fine: no interference from queue 2's coin
        assert ds1_rho(AccessProbabilities(1.0, 0.0), 0.5) == 0.0

    def test_steady_state_reference_values(self):
        p = AccessProbabilities(0.5, 0.5)
        pi0, r, rho = ds1_pi0(p, 0.2), ds1_rate_matrix(p, 0.2), ds1_rho(p, 0.2)
        eps1 = r[1, 0] * pi0
        assert_allclose(pi0, 0.625, rtol=1e-15)
        assert_allclose(eps1, (0.1 / 0.9) * 0.625, rtol=1e-14)
        assert r[0, 0] == rho and r[0, 1] == r[1, 1] == 0.0
        law = ds1_stationary(p, 0.2, 3)
        assert law[0, 1] == 0.0
        assert_allclose(law[3, 0], pi0 * rho**3, rtol=1e-15)
        assert_allclose(law[3, 1], eps1 * rho**2, rtol=1e-15)

    def test_unstable_raises(self):
        with pytest.raises(UnstableParameterError):
            ds1_pi0(AccessProbabilities(0.5, 0.5), 0.45)

    def test_total_mass_is_one(self):
        rng = np.random.default_rng(101)
        found = 0
        while found < 200:
            p, l1 = _sample_params(rng)
            if ds1_rho(p, l1) >= 1.0:
                continue
            found += 1
            mass = verify._mass(ds1_rate_matrix(p, l1), ds1_pi0(p, l1))
            assert abs(mass - 1.0) < 1e-12

    def test_pi0_geometric_identity(self):
        # pi0 equals (1-rho)(1-l1 p2): two algebraic routes to the same mass
        rng = np.random.default_rng(103)
        for _ in range(200):
            p, l1 = _sample_params(rng)
            if ds1_rho(p, l1) >= 1.0:
                continue
            pi0, rho = ds1_pi0(p, l1), ds1_rho(p, l1)
            assert_allclose(pi0, (1.0 - rho) * (1.0 - l1 * p.p2), rtol=1e-12)

    def test_service_rate_reference_values(self):
        assert_allclose(
            ds1_service_rate_q2(AccessProbabilities(0.5, 0.5), 0.2), 0.35, rtol=1e-15
        )
        assert ds1_service_rate_q2(AccessProbabilities(1.0, 0.0), 0.5) == 0.0
        assert_allclose(
            ds1_service_rate_q2(AccessProbabilities(0.7, 1.0), 0.2), 0.6, rtol=1e-15
        )

    def test_service_rate_requires_stability(self):
        with pytest.raises(UnstableParameterError):
            ds1_service_rate_q2(AccessProbabilities(0.5, 0.5), 0.45)

    @pytest.mark.parametrize(
        "p1, p2, l1", _DS1_WITNESSES, ids=["below-pi0-0", "at-pi0-0", "at-pi0-positive"]
    )
    def test_float_critical_point_has_no_law(self, p1, p2, l1):
        p, stationary = AccessProbabilities(p1, p2), functools.partial(ds1_stationary, k_max=3)
        for law in (ds1_pi0, ds1_service_rate_q2, stationary):
            with pytest.raises(UnstableParameterError):
                law(p, l1)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        # p1 > 0 keeps mu1'' a positive normal float; only at p = (1, 0), where
        # it is 1, do the l1 above it leave [0, 1], and the guard rejects them
        p1=st.floats(0.001, 1.0),
        p2=st.floats(0.0, 1.0),
        k=st.integers(-8, 8),
    )
    @example(p1=0.541523260907531, p2=0.9312651808120499, k=-1)
    @example(p1=0.4850160862096635, p2=0.8975164894231576, k=0)
    @example(p1=0.32973171649909216, p2=0.7884287034284043, k=0)
    @example(p1=1.0, p2=0.0, k=0)
    def test_rate_near_mu1_is_rejected_or_has_a_law(self, p1, p2, k):
        # within 8 ulps of mu1'' the guard rejects a point unless l1 < mu1''
        # and pi0 > 0 hold in floating point and the law has no negative entry.
        # At p = (1, 0) the bound is l1 = 1, where rho's divisor 1 - l1 is 0,
        # so the rejection there is a DegenerateParameterError
        p, bound = AccessProbabilities(p1, p2), ds3_mu1(p1, p2)
        l1 = ulps_from(bound, k)
        try:
            pi0, law = ds1_pi0(p, l1), ds1_stationary(p, l1, 3)
        except UnstableParameterError:
            return
        except DegenerateParameterError:
            assert l1 == 1.0, (p, l1)
            return
        assert l1 < bound and pi0 > 0.0 and (law >= 0.0).all(), (l1, bound, pi0, law)


def _stable_ds1_points(seed: int, n: int = 200):
    """n (p, l1, k_max) with rho < 1; k_max is 0, then 1600, then drawn in [0, 1600]."""
    rng = np.random.default_rng(seed)
    sizes = [0, 1600]
    points = []
    while len(points) < n:
        p, l1 = _sample_params(rng)
        if ds1_rho(p, l1) >= 1.0:
            continue
        found = len(points)
        k_max = sizes[found] if found < len(sizes) else int(rng.integers(0, 1601))
        points.append((p, l1, k_max))
    return points


class TestDs1Stationary:
    # the oracle checks and the sympy certificate read this array, so it must
    # hold the bytes of a one-level-at-a-time loop of v_{k+1} = R v_k
    def test_bytes_match_the_reference(self):
        for p, l1, k_max in _stable_ds1_points(109):
            law = ds1_stationary(p, l1, k_max)
            expected = reference_levels(ds1_pi0(p, l1), ds1_rate_matrix(p, l1), k_max)
            assert law.dtype == expected.dtype and law.shape == (k_max + 1, 2)
            assert law.tobytes() == expected.tobytes(), (p, l1, k_max)

    def test_matches_the_powers_of_rho(self):
        # the closed form (pi0 rho^k, eps1 rho^(k - 1)) takes one power per
        # level where the recurrence takes k products, so the two part in
        # the last bits: at these points 3.9e-15 relative (about 18 eps) on
        # normal floats, and 1.8e-16 in total variation, subnormal tails
        # included
        tiny = np.finfo(float).tiny
        for p, l1, k_max in _stable_ds1_points(109):
            law, closed = ds1_stationary(p, l1, k_max), reference_ds1_law(p, l1, k_max)
            normal = (np.abs(law) >= tiny) & (np.abs(closed) >= tiny)
            assert_allclose(law[normal], closed[normal], rtol=1e-14, atol=0.0)
            assert total_variation(law, closed) < 1e-15, (p, l1, k_max)

    def test_negative_k_max_raises(self):
        with pytest.raises(ValueError, match="k_max"):
            ds1_stationary(AccessProbabilities(0.5, 0.5), 0.2, -1)


class TestDs1RateMatrix:
    # DS1's R1 against the solver route DS2 has: the fixed point on the level
    # blocks the oracle enumerates from the slot table
    def test_solver_on_the_oracle_blocks_finds_it(self):
        rng = np.random.default_rng(113)
        points, stacked = [], []
        while len(points) < 200:
            p, l1 = _sample_params(rng)
            if ds1_rho(p, l1) > 0.95:
                continue
            b = oracle.build_chain(DominanceMode.DS1, p, l1, 3).blocks
            points.append((p, l1))
            stacked.append(qbd.QbdBlocks(b=b[0, 1], a0=b[1, 0], a1=b[1, 1], a2=b[1, 2]))
        solved = qbd.solve_rate_matrix(stack_blocks(stacked))
        closed = np.array([ds1_rate_matrix(p, l1) for p, l1 in points])
        assert np.max(np.abs(solved - closed)) < 1e-8

    def test_spectral_radius_is_rho(self):
        # tr = rho and det = 0, so the radius is sqrt(rho^2) = rho, bit for bit
        for p, l1, _ in _stable_ds1_points(127):
            assert qbd.spectral_radius(ds1_rate_matrix(p, l1)) == ds1_rho(p, l1), (p, l1)


class TestDs3Chain:
    def test_reference_points(self):
        ss = ds3_steady_state(AccessProbabilities(0.5, 0.5))
        assert_allclose(
            [1.0 - ss.pi_reserved, ss.pi_reserved, ss.mu1, ss.mu2], [0.8, 0.2, 0.4, 0.2], rtol=1e-15
        )
        full = ds3_steady_state(AccessProbabilities(1.0, 1.0))
        assert (1.0 - full.pi_reserved, full.pi_reserved, full.mu1, full.mu2) == (0.5, 0.5, 0.5, 0.0)
        quiet = ds3_steady_state(AccessProbabilities(0.3, 0.0))
        assert (1.0 - quiet.pi_reserved, quiet.mu1, quiet.mu2) == (1.0, 0.3, 0.0)

    def test_occupancies_sum_to_one(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            p = AccessProbabilities(rng.uniform(0, 1), rng.uniform(0, 1))
            ss = ds3_steady_state(p)
            pi_normal = 1.0 / (1.0 + p.p1 * p.p2)  # the normal phase's share
            assert abs(pi_normal + ss.pi_reserved - 1.0) < 1e-15
            # saturated rates never exceed one packet per slot combined
            assert ss.mu1 + ss.mu2 <= 1.0 + 1e-15


class TestRegionPredicates:
    def test_ds1_clause_examples(self):
        full = AccessProbabilities(1.0, 1.0)
        assert ds1_region_contains(full, ArrivalRates(0.4, 0.15)).stable
        v = ds1_region_contains(full, ArrivalRates(0.5, 0.01))
        assert not v.stable and v.binding == "l1"  # boundary equality excluded
        v = ds1_region_contains(AccessProbabilities(0.5, 0.5), ArrivalRates(0.39, 0.3))
        assert not v.stable and v.binding == "l2"  # bound is 0.2075

    def test_ds2_clause_examples(self):
        half = AccessProbabilities(0.5, 0.5)
        assert ds2_region_contains(half, ArrivalRates(0.44, 0.1)).stable
        v = ds2_region_contains(half, ArrivalRates(0.1, 0.2))
        assert not v.stable and v.binding == "l2"  # sits exactly on the bound
        v = ds2_region_contains(AccessProbabilities(0.0, 0.9), ArrivalRates(0.1, 0.05))
        assert not v.stable

    def test_ds2_clause_at_p1_one_never_stable(self):
        # the l2 bound is identically 0 there; the singular l1 expression
        # must never be evaluated
        v = ds2_region_contains(AccessProbabilities(1.0, 0.9), ArrivalRates(0.1, 0.05))
        assert not v.stable and v.binding == "l2"

    def test_ds2_l2_limit_inverts_the_l1_clause(self):
        # the sweep uses the DS2 clause solved for l2; substituting that l2
        # back into the queue-1 rate must give l1 again
        rng = np.random.default_rng(127)
        p1 = rng.uniform(0.01, 0.99, size=500)
        l1 = rng.uniform(0.01, 0.99, size=500)
        assert_allclose(ds2_mu1(p1, ds2_l2_limit(p1, l1)), l1, rtol=1e-12)

    def test_union_examples(self):
        half = AccessProbabilities(0.5, 0.5)
        # ds1 clause fails (0.42 > 0.4) but ds2 admits it (mu1' = 0.475)
        assert union_region_contains(half, ArrivalRates(0.42, 0.05)).stable
        v = union_region_contains(half, ArrivalRates(0.45, 0.25))
        assert not v.stable
        assert v.binding == "ds1.l1,ds2.l2"

    def test_union_is_union(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            p = AccessProbabilities(rng.uniform(0, 1), rng.uniform(0, 1))
            l = ArrivalRates(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
            expected = ds1_region_contains(p, l).stable or ds2_region_contains(p, l).stable
            assert union_region_contains(p, l).stable == expected


class TestEnvelopes:
    def test_priority_boundary_reference_points(self):
        assert priority_boundary(0.1) == 0.8
        assert priority_boundary(0.5) == 0.125
        third = 1.0 / 3.0
        assert abs(priority_boundary(third) - third) < 5e-16
        # both pieces agree at the knee
        assert abs((1.0 - 2.0 * third) - (1.0 - third) ** 2 / (4.0 * third)) < 5e-16

    def test_baseline_boundaries(self):
        assert ra_boundary(0.0) == 1.0 and ra_boundary(1.0) == 0.0
        assert ra_boundary(0.25) == 0.25
        assert td_boundary(0.3) == 0.7
        with pytest.raises(ValueError):
            ra_boundary(1.2)

    def test_optimal_p2(self):
        assert optimal_p2(0.2) == 1.0
        assert optimal_p2(1.0 / 3.0) == 1.0
        assert optimal_p2(0.5) == 0.5
        assert_allclose(optimal_p2(0.8), 0.125, rtol=1e-15)
        with pytest.raises(DegenerateParameterError):
            optimal_p2(0.0)

    def test_envelope_dominance_fine_grid(self):
        # priority strictly above plain RA and strictly below TD inside (0,1)
        grid = np.arange(1, 1000) / 1000.0
        for l1 in grid:
            mid = priority_boundary(float(l1))
            assert ra_boundary(float(l1)) < mid < td_boundary(float(l1))

    def test_optimizer_consistency(self):
        # direct maximisation of the ds1 clause bound over p2 at p1=1
        # reproduces the closed-form envelope
        p2_grid = np.arange(0, 1001) / 1000.0
        for l1 in [0.05, 0.2, 1.0 / 3.0, 0.4, 0.6, 0.9]:
            bounds = p2_grid * (1.0 - l1 - l1 * p2_grid)
            valid = l1 < 1.0 / (1.0 + p2_grid)
            best = float(np.max(np.where(valid, bounds, -np.inf)))
            assert abs(best - priority_boundary(l1)) < 1e-3

    def test_saturated_rates_match_region_bounds(self):
        # ds1 clause l1-bound equals mu1'' and ds2 clause l2-bound equals mu2''
        rng = np.random.default_rng(113)
        for _ in range(100):
            p = AccessProbabilities(rng.uniform(0, 1), rng.uniform(0, 1))
            ss = ds3_steady_state(p)
            assert_allclose(ss.mu1, p.p1 / (1.0 + p.p1 * p.p2), rtol=1e-15)
            assert_allclose(
                ss.mu2, p.p2 * (1.0 - p.p1) / (1.0 + p.p1 * p.p2), rtol=1e-15
            )

    def test_monotone_nonincreasing(self):
        grid = np.arange(0, 101) / 100.0
        for fn in (priority_boundary, ra_boundary, td_boundary):
            values = [fn(float(x)) for x in grid]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


# every public closed form of stability and qbd that takes (p, rate)
_CLOSED_FORMS = [
    ds1_rho,
    ds1_pi0,
    ds1_rate_matrix,
    ds1_service_rate_q2,
    qbd.qbd_blocks,
    qbd.rate_matrix_closed_form,
    qbd.spectral_radius_closed_form,
    qbd.ds2_pi0,
    functools.partial(qbd.ds2_stationary, k_max=3),
    qbd.ds2_service_rate_q1,
    qbd.ds2_service_rate_q1_series,
]
_EDGE = st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0])


class TestEdgeValues:
    # a closed form is undefined exactly where a divisor is 0, which the
    # parameters or an underflowed product can make so; there it raises an
    # AlohaError, never a bare ZeroDivisionError or a NaN
    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(form=st.sampled_from(_CLOSED_FORMS), p1=_EDGE, p2=_EDGE, rate=_EDGE)
    def test_value_or_aloha_error(self, form, p1, p2, rate):
        try:
            value = form(AccessProbabilities(p1, p2), rate)
        except AlohaError:
            return
        if dataclasses.is_dataclass(value):
            value = dataclasses.astuple(value)
        assert not np.isnan(value).any(), (form, p1, p2, rate, value)


_PROB = st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0]), st.floats(0.0, 1.0))
_OPEN_RATE = st.one_of(
    st.sampled_from([1e-300, 0.5, 1.0 - 1e-16]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


def _at_most(l):
    """l itself, so that one rate can stay put, or a smaller rate."""
    return st.one_of(st.just(l), st.floats(0.0, l, exclude_min=True))


class TestRegionMonotonicity:
    # each clause bounds one rate by a rounding chain that does not increase
    # in the other, so lowering either rate never leaves the region
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(p1=_PROB, p2=_PROB, l1=_OPEN_RATE, l2=_OPEN_RATE, data=st.data())
    def test_smaller_rates_stay_stable(self, p1, p2, l1, l2, data):
        p = AccessProbabilities(p1, p2)
        smaller = ArrivalRates(data.draw(_at_most(l1)), data.draw(_at_most(l2)))
        if union_region_contains(p, ArrivalRates(l1, l2)).stable:
            assert union_region_contains(p, smaller).stable


class TestArrayRegion:
    # the region command and the containment probes test a whole grid in one
    # call; every verdict and binding must be the one the plain-float
    # branches give at that point
    RATES = (np.arange(1, 100) / 100).tolist()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(p1=_PROB, p2=_PROB)
    def test_grid_matches_the_scalar_branches(self, p1, p2):
        p = AccessProbabilities(p1, p2)
        rows = reference_region_rows(p, self.RATES)
        l1, l2 = (np.array(column) for column in list(zip(*rows))[:2])
        verdict = union_region_contains(p, ArrivalRates(l1, l2))
        assert verdict.stable.dtype == bool
        assert verdict.stable.tolist() == [row[2] for row in rows]
        assert verdict.binding.tolist() == [row[3] for row in rows]
        for row in rows[::97]:  # one point at a time, as perfbench and library callers do
            one = union_region_contains(p, ArrivalRates(row[0], row[1]))
            assert (one.stable, one.binding or "") == (row[2], row[3])
            assert type(one.stable) is bool

    def test_each_system_takes_arrays(self):
        p = AccessProbabilities(np.array([0.5, 0.5, 1.0]), np.array([0.5, 0.5, 0.9]))
        l = ArrivalRates(np.array([0.1, 0.5, 0.1]), np.array([0.1, 0.01, 0.05]))
        ds1, ds2 = ds1_region_contains(p, l), ds2_region_contains(p, l)
        assert ds1.stable.tolist() == [True, False, True]
        assert ds1.binding.tolist() == ["", "l1", ""]
        assert ds2.stable.tolist() == [True, False, False]
        assert ds2.binding.tolist() == ["", "l1", "l2"]

    def test_model_types_check_every_entry(self):
        with pytest.raises(ValueError, match="l2 must lie in"):
            ArrivalRates(np.array([0.1, 0.2]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="p1 must lie in"):
            AccessProbabilities(np.array([0.0, np.nan]), 0.5)


class TestEnclosesConventionalRegion:
    # the paper's headline claim at a fixed p: every rate pair that
    # conventional random access keeps stable, the feedback-priority union
    # region keeps stable too
    N = 200_000

    @staticmethod
    def _assert_enclosed(p1, p2, l1, l2):
        conventional = conventional_region_contains(p1, p2, l1, l2)
        priority = union_region_contains(AccessProbabilities(p1, p2), ArrivalRates(l1, l2))
        escaped = conventional & ~priority.stable
        assert not escaped.any(), list(zip(p1[escaped], p2[escaped], l1[escaped], l2[escaped]))[:5]
        return conventional

    def test_random_draws(self):
        p1, p2, l1, l2 = np.random.default_rng(1709).uniform(1e-9, 1.0, (4, self.N))
        conventional = self._assert_enclosed(p1, p2, l1, l2)
        assert conventional.sum() > self.N // 20

    @pytest.mark.parametrize("branch", [1, 2])
    def test_points_just_inside_each_branch(self, branch):
        # branch 2 is branch 1 with the queues swapped.  In (a, b, x, y) =
        # (p1, p2, l1, l2) branch 1's outer boundary is the curve
        # y = b(1 - x/(1 - b)) up to x = a(1 - b), then the edge x = a(1 - b)
        # below it; each point on it is pulled in by 1 - 1e-9
        a, b, t = np.random.default_rng(1709 + branch).uniform(1e-9, 1.0, (3, self.N))
        half = self.N // 2
        edge = a * (1.0 - b)
        x = np.concatenate([t[:half] * edge[:half], edge[half:]])
        top = b * (1.0 - x / (1.0 - b))
        y = np.concatenate([top[:half], t[half:] * top[half:]])
        x, y = x * (1.0 - 1e-9), y * (1.0 - 1e-9)
        point = (a, b, x, y) if branch == 1 else (b, a, y, x)
        assert self._assert_enclosed(*point).all()
