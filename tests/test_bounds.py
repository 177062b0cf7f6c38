"""Closed-form lower bounds: worked values, clamps, domination by Monte
Carlo estimates, and series-truncation bracketing."""

import math

import numpy as np
import pytest
from scipy import special

from oracles import FROZEN, alpha2_constant
from pickands.bounds import (
    exponent_series,
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

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5, 2.0])
    def test_truncation_brackets_longer_sum(self, alpha):
        vf = VarianceFunction.fbm(alpha)
        total, tail, n_terms = exponent_series(vf, 2.0)
        k = np.arange(1, 10 * max(n_terms, 64) + 1, dtype=float)
        longer = float(np.exp(-2.0 * (2.0 * k) ** alpha / 8.0).sum())
        assert total <= longer + 1e-15
        assert longer <= total + tail + 1e-15

    def test_tiny_alpha_exceeds_one(self):
        # the partial sum passes 1 long before any tail is certified
        b = gaussian_lower_bound(VarianceFunction.fbm(0.005), 1.0)
        assert b.value == 0.0
        assert "exceeds 1" in b.note

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

    def test_concave_table_is_not_certified(self):
        # the last term ratio bounds the tail only while the ratios keep
        # falling; the power model's own series gives 0.012003
        t = np.linspace(0.0, 200.0, 2001)
        b = gaussian_lower_bound(VarianceFunction.tabulated(t, 2.0 * t**0.5), 50.0)
        assert b.value <= gaussian_lower_bound(VarianceFunction.power(0.5, 2.0), 50.0).value
        assert b.inputs == {"delta": 50.0, "kind": "tabulated"}

    def test_underflowing_table_terms(self):
        # the last terms underflow to 0; their log-ratio is still finite
        t = np.linspace(0.0, 400.0, 4001)
        b = gaussian_lower_bound(VarianceFunction.tabulated(t, 2.0 * t**2), 10.0)
        ref = gaussian_lower_bound(VarianceFunction.power(2.0, 2.0), 10.0)
        assert ref.value == pytest.approx(0.1, abs=1e-9)
        assert b.value == pytest.approx(ref.value, abs=1e-9) and b.note == ""


class TestIntegralTail:
    def test_tail_bounds_the_exact_integral(self):
        # int_K^inf exp(-a x^alpha) dx = Gamma(s, y) / (alpha a^s), s = 1/alpha, y = a K^alpha;
        # the certified tail is at least that and within a factor 2.2 of it
        for alpha in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.0):
            for delta in (0.5, 1.0, 2.0, 4.0, 10.0):
                _, tail, n_terms = exponent_series(VarianceFunction.fbm(alpha), delta)
                a, s = 2.0 * delta**alpha / 8.0, 1.0 / alpha
                exact = special.gammaincc(s, a * n_terms**alpha) * special.gamma(s) / (alpha * a**s)
                if math.isinf(tail):  # a K^alpha <= s - 1: no bound is certified
                    assert a * n_terms**alpha <= s - 1.0
                else:
                    assert exact * (1.0 - 1e-12) <= tail <= 2.2 * exact, (alpha, delta)


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
