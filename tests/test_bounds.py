"""Closed-form lower bounds: worked values, clamps, domination by Monte
Carlo estimates, and series-truncation bracketing."""

import math

import numpy as np
import pytest
from scipy import special

from oracles import FROZEN, alpha2_constant
from pickands import bounds
from pickands.bounds import (
    check_ln8,
    exponent_series,
    gammaincc,
    gaussian_lower_bound,
    gaussian_power_bound,
    levy_h0_bound,
    levy_lower_bound,
)
from pickands.estimators import estimate
from pickands.models import JumpLaw, LevyModel, ModelError, VarianceFunction


class TestGaussianSeriesBound:
    def test_alpha1_geometric_closed_form(self):
        b = gaussian_lower_bound(VarianceFunction.power(1.0, 2.0), 10.0)
        assert b.value == pytest.approx(0.0910575, abs=5e-7)
        assert b.series_tail_bound == 0.0

    def test_alpha2_value_below_exact_constant(self):
        b = gaussian_lower_bound(VarianceFunction.power(2.0, 2.0), 4.0)
        assert b.value == pytest.approx(0.245421, abs=1e-6)
        assert b.value <= alpha2_constant(4.0)

    def test_clamped_at_zero_for_small_delta(self):
        b = gaussian_lower_bound(VarianceFunction.fbm(0.5), 0.5)
        assert b.value == 0.0
        assert b.note

    def test_truncation_brackets_longer_sum(self):
        vf = VarianceFunction.fbm(1.5)
        total, tail, n_terms = exponent_series(vf, 2.0)
        k = np.arange(1, 10 * max(n_terms, 64) + 1, dtype=float)
        longer = float(np.exp(-2.0 * (2.0 * k) ** 1.5 / 8.0).sum())
        assert total <= longer + 1e-15
        assert longer <= total + tail + 1e-15

    def test_tabulated_kind(self):
        t = np.linspace(0.0, 400.0, 4001)
        vf = VarianceFunction.tabulated(t, 2.0 * t)
        b = gaussian_lower_bound(vf, 10.0)
        assert b.value == pytest.approx(0.0910575, rel=1e-4)

    def test_tabulated_bound_counts_the_series_tail(self):
        # terms e^-1, e^-2 on the table, then a geometric tail of ratio 1/e,
        # so the certified sum is 1/(e - 1); the partial sum alone gives 0.49679
        vf = VarianceFunction.tabulated([0.0, 1.0, 2.0], [0.0, 8.0, 16.0])
        b = gaussian_lower_bound(vf, 1.0)
        assert b.value == pytest.approx(1.0 - 1.0 / (math.e - 1.0), rel=1e-12)
        assert b.series_tail_bound == pytest.approx(math.exp(-3.0) / (1.0 - math.exp(-1.0)), rel=1e-12)


class TestUpperIncompleteGamma:
    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 1.0, 1.5, 1.9, 2.0])
    def test_matches_scipy(self, alpha):
        s = 1.0 / alpha
        for y in np.geomspace(1e-6, 700.0, 300):
            assert gammaincc(s, y) == pytest.approx(special.gammaincc(s, y), rel=1e-12), y

    def test_series_matches_scipy_version(self, monkeypatch):
        grid = [(a, d) for a in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.0) for d in (0.5, 1.0, 2.0, 4.0, 10.0)]
        ours = [exponent_series(VarianceFunction.fbm(a), d) for a, d in grid]
        monkeypatch.setattr(bounds, "gammaincc", special.gammaincc)
        for (total, tail, n_terms), (a, d) in zip(ours, grid):
            ref_total, ref_tail, ref_n_terms = exponent_series(VarianceFunction.fbm(a), d)
            assert (total, n_terms) == (ref_total, ref_n_terms), (a, d)
            assert tail == pytest.approx(ref_tail, rel=1e-12)


class TestPowerBound:
    def test_worked_example(self):
        b = gaussian_power_bound(np.sqrt(2.0), 1.0, 10.0)
        assert b.value == pytest.approx(0.06)

    def test_clamp(self):
        assert gaussian_power_bound(0.1, 0.5, 1.0).value == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("delta", [2.0, 4.0, 8.0, 16.0])
    def test_never_exceeds_series_bound(self, alpha, delta):
        vf = VarianceFunction.fbm(alpha)
        series = gaussian_lower_bound(vf, delta)
        power = gaussian_power_bound(np.sqrt(2.0), alpha, delta)
        assert power.value <= series.value + 1e-12


class TestLevyBounds:
    def test_brownian_delta16(self):
        b = levy_lower_bound(LevyModel.brownian(), 16.0)
        assert b.value == pytest.approx(0.052718, abs=5e-7)

    def test_brownian_small_delta_clamps(self):
        assert levy_lower_bound(LevyModel.brownian(), 4.0).value == 0.0

    def test_h0_values(self):
        assert levy_h0_bound(LevyModel.brownian()).value == pytest.approx(1.0 / 32.0)
        cp = LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("constant", value=1.0))
        assert levy_h0_bound(cp).value == pytest.approx(0.052605, abs=5e-7)

    def test_positivity(self):
        for model in (LevyModel.brownian(), LevyModel(diffusion=0.2, jump_rate=2.0,
                                                      jump_law=JumpLaw("normal", mean=0.0, sd=0.5))):
            assert levy_h0_bound(model).value > 0.0

    def test_degenerate_rejected(self):
        flat = LevyModel(diffusion=0.0, jump_rate=0.0)
        with pytest.raises(ModelError):
            levy_lower_bound(flat, 1.0)
        with pytest.raises(ModelError):
            levy_h0_bound(flat)

    def test_iid_regime_limit(self):
        # delta * bound -> 1 as delta grows
        vals = [d * levy_lower_bound(LevyModel.brownian(), d).value for d in (16.0, 64.0, 256.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0
        assert vals[2] > 0.999


class TestBoundsDominatedByEstimates:
    @pytest.mark.parametrize("alpha,delta", [(1.0, 4.0), (1.0, 10.0), (1.5, 2.0), (2.0, 4.0)])
    def test_gaussian(self, alpha, delta):
        vf = VarianceFunction.fbm(alpha)
        bound = gaussian_lower_bound(vf, delta).value
        est = estimate(vf, "exceedance", delta, 60_000, seed=51)
        assert bound <= est.estimate + 3.0 * est.stderr

    @pytest.mark.parametrize("delta", [8.0, 16.0, 32.0])
    def test_levy_vs_frozen_oracle(self, delta):
        bound = levy_lower_bound(LevyModel.brownian(), delta).value
        assert bound <= FROZEN[("levy-brownian", delta)]

    @pytest.mark.parametrize("delta", [8.0, 16.0])
    def test_levy_vs_monte_carlo(self, delta):
        bound = levy_lower_bound(LevyModel.brownian(), delta).value
        est = estimate(LevyModel.brownian(), "exceedance", delta, 60_000, seed=52)
        assert bound <= est.estimate + 3.0 * est.stderr


class TestLn8Check:
    def test_linear_growth_holds(self):
        report = check_ln8(VarianceFunction.power(1.0, 2.0), 1e6)
        assert report.holds and "holds" in report.verdict

    def test_log_growth_below_threshold(self):
        t = np.geomspace(1.0, 1e6, 500)
        vf = VarianceFunction.tabulated(np.concatenate([[0.0], t]),
                                        np.concatenate([[0.0], 4.0 * np.log1p(t)]))
        assert not check_ln8(vf, 1e6).holds

    def test_log_growth_above_threshold(self):
        t = np.geomspace(1.0, 1e6, 500)
        vf = VarianceFunction.tabulated(np.concatenate([[0.0], t]),
                                        np.concatenate([[0.0], 9.0 * np.log1p(t)]))
        assert check_ln8(vf, 1e6).holds

    def test_running_min_is_from_the_right(self):
        report = check_ln8(VarianceFunction.fbm(1.0), 1e4)
        assert np.all(np.diff(report.running_min) >= -1e-12) or report.holds
