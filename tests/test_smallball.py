"""Reciprocal-grid lower-tail probabilities and their scaled extrapolation."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from oracles import smallball_cholesky, smallball_one_sided
from pickands.engine import chunk_stream
from pickands.smallball import (
    _side_indicators,
    est_smallball_prob,
    smallball_extrapolate,
    suggested_cutoff,
)


class TestEstimator:
    def test_alpha2_exact_any_cutoff(self):
        # for alpha = 2 the grid constraint binds only at |k| = 1:
        # p = P(|L| <= eta) = 2 Phi(eta) - 1 regardless of the cutoff
        for eta in (0.2, 0.05):
            res = est_smallball_prob(2.0, eta, 16, 40_000, seed=1)
            exact = 2.0 * ndtr(eta) - 1.0
            assert abs(res.prob - exact) <= 3.0 * res.stderr

    def test_alpha1_against_quadrature(self):
        # one-sided killed-density oracle at a coarse, fully resolvable cutoff
        eta, k = 0.3, 64
        q = smallball_one_sided(eta, 2 * k)  # matches the doubled cutoff
        res = est_smallball_prob(1.0, eta, k, 150_000, seed=2)
        assert res.factorized and res.cutoff == 2 * k
        assert abs(res.prob - q * q) <= 3.0 * res.stderr

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_against_reciprocal_grid_cholesky(self, alpha):
        eta, k = 0.3, 16
        res = est_smallball_prob(alpha, eta, k, 100_000, seed=3)
        probs, ses = smallball_cholesky(alpha, eta, [k, 2 * k], 100_000, seed=4)
        lvl = [k, 2 * k].index(res.cutoff)
        assert not res.factorized
        assert abs(res.prob - probs[lvl]) <= 3.0 * math.hypot(res.stderr, ses[lvl])

    def test_factorization_matches_joint_sampler(self):
        # alpha = 1: the product of the side means against the joint
        # indicator's mean, both from the same worker columns
        n = 100_000
        sides = _side_indicators(1.0, 0.3, np.array([32, 64]), chunk_stream(3, 0), n)
        q = sides.mean(axis=0)
        joint = sides[:, 0] * sides[:, 1]
        se = joint.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(q[0] * q[1] - joint.mean(axis=0)) <= 3.0 * se)

    def test_large_eta_probability_one(self):
        res = est_smallball_prob(1.0, 50.0, 32, 2000, seed=5)
        assert res.prob == 1.0

    def test_monotone_in_cutoff_per_seed(self):
        levels = np.array([8, 16, 32, 64])
        for alpha in (0.5, 1.0, 2.0):  # embedding, i.i.d. and line branches
            ind = _side_indicators(alpha, 0.2, levels, chunk_stream(6, 0), 4000)
            diffs = np.diff(ind, axis=2)
            assert np.all(diffs <= 0)

    def test_monotone_in_eta(self):
        lo = est_smallball_prob(1.0, 0.1, 64, 50_000, seed=7)
        hi = est_smallball_prob(1.0, 0.2, 64, 50_000, seed=7)
        assert lo.prob <= hi.prob

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_thread_count_invariance(self, alpha):
        # K = 2048 puts 1023 paths in a chunk, so the run spans three chunks
        one = est_smallball_prob(alpha, 0.1, 1024, 3000, seed=8, threads=1)
        three = est_smallball_prob(alpha, 0.1, 1024, 3000, seed=8, threads=3)
        assert one.to_dict() == three.to_dict()

    def test_peak_memory_is_row_blocks_not_grid_squared(self, peak_bytes):
        # a 2K x 2K Cholesky factor of the reciprocal grid alone would take 134 MB
        _, peak = peak_bytes(lambda: est_smallball_prob(1.5, 0.1, 1024, 4000, threads=1))
        assert peak <= 16 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            est_smallball_prob(2.5, 0.1, 16, 100)
        with pytest.raises(ValueError):
            est_smallball_prob(1.0, 0.0, 16, 100)


class TestSuggestedCutoff:
    def test_grows_as_eta_shrinks(self):
        assert suggested_cutoff(1.0, 0.05) >= suggested_cutoff(1.0, 0.1) >= suggested_cutoff(1.0, 0.2)

    def test_residual_tail_is_small(self):
        eta = 0.1
        k = suggested_cutoff(1.0, eta)
        tail = sum(float(ndtr(-eta * math.sqrt(j))) for j in range(k + 1, 20 * k))
        assert tail <= 0.01 * eta**2 * 1.001


class TestExtrapolation:
    def test_exact_power_model_recovers_intercept(self):
        pts = [(e, 0.8 * e**2, 1e-5) for e in (0.2, 0.1, 0.05)]
        fit = smallball_extrapolate(pts, 1.0)
        assert fit.intercept == pytest.approx(0.8, abs=1e-9)
        assert fit.slope == pytest.approx(0.0, abs=1e-6)
        assert not fit.flags

    def test_affine_model_recovers_both_terms(self):
        pts = [(e, (2.0 - 1.5 * e) * e**2, 1e-6) for e in (0.2, 0.1, 0.05, 0.025)]
        fit = smallball_extrapolate(pts, 1.0)
        assert fit.intercept == pytest.approx(2.0, abs=1e-6)
        assert fit.slope == pytest.approx(-1.5, abs=1e-5)

    def test_non_monotone_flagged(self):
        pts = [(0.2, 1.6 * 0.04, 1e-6), (0.1, 2.1 * 0.01, 1e-6), (0.05, 1.7 * 0.0025, 1e-6)]
        scaled = [p / e**2 for e, p, _ in pts]
        assert not (scaled[0] <= scaled[1] <= scaled[2] or scaled[0] >= scaled[1] >= scaled[2])
        fit = smallball_extrapolate(pts, 1.0)
        assert any("fit-quality" in f for f in fit.flags)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            smallball_extrapolate([(0.2, 0.1, 0.01), (0.1, 0.02, 0.01)], 1.0)
