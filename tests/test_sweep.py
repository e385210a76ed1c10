"""Grid sweep against the closed-form envelope and the scheme sandwich."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aloha_priority.model import AccessProbabilities, ArrivalRates
from aloha_priority.stability import (
    priority_boundary,
    ra_boundary,
    td_boundary,
    union_region_contains,
)
from aloha_priority.sweep import compare_envelopes, envelope_at, grid, sweep


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

    def test_probe_samples(self, dataset):
        samples = dataset.samples
        assert samples.shape == (198, 5)
        assert np.all(samples[:, 4] == 1.0)  # every probe verdict is stable
        positive = dataset.priority_numeric > 0.0
        assert_allclose(samples[:, 0], dataset.lambda1[positive], rtol=1e-15)
        assert np.all(samples[:, 1] < dataset.priority_numeric[positive])

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

    def test_numeric_ra_margin_is_informational(self, dataset, comparison):
        # the grid maximum loses order l1 * p_step^2 while the true margin
        # over plain random access shrinks like (1 - sqrt(l1))^3, so the
        # numeric column is allowed to dip below RA near l1 -> 1, and only
        # there
        assert comparison.min_margin_numeric_over_ra > -5e-5
        margins = dataset.priority_numeric - dataset.ra
        assert np.all(margins[dataset.lambda1 <= 0.95] >= 0.0)

    def test_knee_near_one_third(self, comparison):
        assert abs(comparison.knee_lambda1 - 1.0 / 3.0) <= 2.0 * 0.005

    def test_coarse_grid_still_tracks(self):
        coarse = compare_envelopes(sweep(p_step=0.05, lambda_step=0.05))
        assert coarse.max_abs_deviation < 2e-3
        assert abs(coarse.knee_lambda1 - 1.0 / 3.0) <= 2.0 * 0.05
