"""Grid sweep against the closed-form envelope and the scheme sandwich."""

import numpy as np
import pytest
from helpers import reference_envelope_at
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from aloha_priority.model import AccessProbabilities, ArrivalRates
from aloha_priority.stability import (
    priority_boundary,
    ra_boundary,
    td_boundary,
    union_region_contains,
)
from aloha_priority.sweep import compare_envelopes, envelope_at, grid, sweep
from aloha_priority.verify import suite_containment


@pytest.fixture(scope="module")
def dataset():
    return sweep()


@pytest.fixture(scope="module")
def comparison(dataset):
    return compare_envelopes(dataset)


class TestEnvelopeAt:
    def test_low_rate_point(self):
        grid = np.arange(101) / 100
        value, _, p2 = envelope_at(0.1, grid, grid)
        # the argmax sits on the grid here, so the value is exact
        assert_allclose(value, 0.8, rtol=1e-14)
        assert p2 == 1.0

    def test_knee_side_point(self):
        grid = np.arange(101) / 100
        value, p1, p2 = envelope_at(0.5, grid, grid)
        assert_allclose(value, 0.125, rtol=1e-14)
        assert p2 == 0.5
        # smallest grid p1 satisfying the saturated-queue-1 validity clause
        assert p1 == 0.67

    def test_starved_far_right(self):
        # at l1 = 0.995 no grid point certifies a positive l2 at this
        # resolution; the sweep reports a zero envelope rather than guessing
        grid = np.arange(101) / 100
        assert envelope_at(0.995, grid, grid) == (0.0, 0.0, 0.0)


    def test_just_above_is_rejected(self):
        # the probe samples approach the envelope from inside; from outside,
        # the region predicate must refuse the envelope value at its argmax p
        grid = np.arange(101) / 100
        for l1 in np.arange(1, 100) / 100:
            value, p1, p2 = envelope_at(float(l1), grid, grid)
            if value <= 0.0:
                continue
            verdict = union_region_contains(
                AccessProbabilities(p1, p2), ArrivalRates(float(l1), value * (1.0 + 1e-9))
            )
            assert not verdict.stable, (l1, value, p1, p2)


def _p_grid(draw_values: list[float], with_zero: bool, with_one: bool) -> np.ndarray:
    values = set(draw_values) | ({0.0} if with_zero else set()) | ({1.0} if with_one else set())
    return np.array(sorted(values))


# interior grid points stay above 1e-6: at p1 = 1e-160 the DS2 clause's
# p1^2 denominator would overflow, which no grid of step >= 0.001 reaches
_P_GRID = st.builds(
    _p_grid,
    st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=60),
    st.booleans(),
    st.booleans(),
)


class TestEnvelopeBroadcast:
    """The broadcasting envelope against the full meshgrid, tuple for tuple."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _P_GRID, _P_GRID)
    def test_matches_meshgrid_reference(self, l1, p1_grid, p2_grid):
        assume(len(p1_grid) != len(p2_grid))
        assert envelope_at(l1, p1_grid, p2_grid) == reference_envelope_at(l1, p1_grid, p2_grid)

    @pytest.mark.parametrize("l1", [0.1, 1.0 / 3.0, 0.5, 0.9])
    def test_coarse_grid_ties_match(self, l1):
        # a coarse grid makes many (p1, p2) cells share the maximum
        p1_grid, p2_grid = np.arange(11) / 10, np.arange(6) / 5
        assert envelope_at(l1, p1_grid, p2_grid) == reference_envelope_at(l1, p1_grid, p2_grid)


def _assert_each_matches_reference(lambdas, p1_grid, p2_grid):
    values, p1s, p2s = envelope_at(lambdas, p1_grid, p2_grid)
    assert values.shape == p1s.shape == p2s.shape == lambdas.shape
    for k, l1 in enumerate(lambdas.tolist()):
        expected = reference_envelope_at(l1, p1_grid, p2_grid)
        assert (values[k], p1s[k], p2s[k]) == expected, (k, l1)


class TestEnvelopeArray:
    """An array of l1 against the one-l1 meshgrid reference, element by element."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=8),
        _P_GRID,
        _P_GRID,
    )
    def test_matches_reference_per_element(self, lambdas, p1_grid, p2_grid):
        _assert_each_matches_reference(np.array(lambdas), p1_grid, p2_grid)

    @pytest.mark.parametrize("d1", range(1, 13))
    def test_tie_heavy_coarse_grids(self, d1):
        # grids of step 1/d make many cells share the maximum, some of them
        # in both clauses at once (d1 = 2, l1 = 0.35), and every grid holds
        # a p1 = 0 row, where the DS2 bound divides by zero
        for d2 in range(1, 13):
            _assert_each_matches_reference(np.arange(1, 20) / 20, np.arange(d1 + 1) / d1,
                                           np.arange(d2 + 1) / d2)

    def test_zero_row_and_nothing_certified(self):
        grid_ = np.arange(101) / 100
        lambdas = np.array([0.1, 0.5, 0.995, 0.999])
        _assert_each_matches_reference(lambdas, grid_, grid_)
        values, p1s, p2s = envelope_at(lambdas, grid_, grid_)
        assert values[0] > 0.0 and values[1] > 0.0
        # the far right certifies nothing and falls back to the first cell
        assert values[2:].tolist() == [0.0, 0.0]
        assert p1s[2:].tolist() == p2s[2:].tolist() == [0.0, 0.0]

    def test_float_is_the_length_one_case(self):
        grid_ = np.arange(11) / 10
        got = envelope_at(0.2, grid_, grid_)
        assert all(type(x) is float for x in got)
        values, p1s, p2s = envelope_at(np.array([0.2]), grid_, grid_)
        assert got == (values[0], p1s[0], p2s[0])

    def test_finest_sweep_matches_reference(self):
        dataset = sweep(p_step=0.001)
        p_grid = grid(0.001)
        for idx in (0, 40, 66, 130, 198):
            l1 = float(dataset.lambda1[idx])
            got = (dataset.priority_numeric[idx], dataset.argmax_p1[idx], dataset.argmax_p2[idx])
            assert got == reference_envelope_at(l1, p_grid, p_grid), l1


class TestSweep:
    def test_grid_and_closed_columns(self, dataset):
        assert dataset.lambda1.shape == (199,)
        assert dataset.lambda1[0] == pytest.approx(0.005)
        assert dataset.lambda1[-1] == pytest.approx(0.995)
        for idx in (0, 37, 99, 150):
            l1 = float(dataset.lambda1[idx])
            assert dataset.priority_closed[idx] == priority_boundary(l1)
            assert dataset.ra[idx] == ra_boundary(l1)
            assert dataset.td[idx] == td_boundary(l1)

    def test_numeric_envelope_monotone(self, dataset):
        # raising l1 shrinks every clause pointwise in p, so the grid max
        # cannot increase
        assert np.all(np.diff(dataset.priority_numeric) <= 1e-15)

    def test_probe_samples(self):
        # every probe just inside the envelope, at its argmax p, is stable
        rows = {check.name: check for check in suite_containment()}
        assert rows["containment sweep samples all stable"].passed

    def test_grid_step_rule(self):
        assert np.array_equal(grid(0.05), np.arange(21) / 20)
        for step, rule in ((0.0, "not in"), (0.2, "not in"), (float("nan"), "not in"),
                           (0.03, "must divide")):
            with pytest.raises(ValueError, match=rule):
                grid(step)

    def test_grid_step_floor(self):
        # 1e-9 would ask np.arange for 10^9 points; 5e-324 would overflow round(1 / step)
        assert len(grid(0.001)) == 1001
        for step in (0.0005, 1e-9, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="is finer than 0.001"):
                grid(step)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sweep(p_step=0.3)
        with pytest.raises(ValueError):
            sweep(p_step=0.013)
        with pytest.raises(ValueError):
            sweep(lambda_step=0.007)


class TestComparison:
    def test_numeric_tracks_closed_form(self, comparison):
        assert comparison.max_abs_deviation < 0.02
        # much tighter in practice at the default resolution
        assert comparison.max_abs_deviation < 1e-4

    def test_sandwich_between_ra_and_td(self, comparison):
        assert comparison.min_margin_closed_over_ra > 0.0
        assert comparison.min_margin_td_over_closed > 0.0

    def test_numeric_ra_margin_is_informational(self, dataset):
        # the grid maximum loses order l1 * p_step^2 while the true margin
        # over plain random access shrinks like (1 - sqrt(l1))^3, so the
        # numeric column is allowed to dip below RA near l1 -> 1, and only
        # there
        margins = dataset.priority_numeric - dataset.ra
        assert margins.min() > -5e-5
        assert np.all(margins[dataset.lambda1 <= 0.95] >= 0.0)

    def test_knee_near_one_third(self, comparison):
        assert abs(comparison.knee_lambda1 - 1.0 / 3.0) <= 2.0 * 0.005

    def test_coarse_grid_still_tracks(self):
        coarse = compare_envelopes(sweep(p_step=0.05, lambda_step=0.05))
        assert coarse.max_abs_deviation < 2e-3
        assert abs(coarse.knee_lambda1 - 1.0 / 3.0) <= 2.0 * 0.05
