"""Reciprocal-grid lower-tail probabilities and their scaled extrapolation."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from oracles import smallball_cholesky, smallball_one_sided, smallball_walk_probability
from pickands import smallball
from pickands.engine import chunk_plan, chunk_stream
from pickands.estimators import estimate
from pickands.models import VarianceFunction, _cached_grid_eigs
from pickands.smallball import (
    CUTOFF_CAP,
    _side_indicators,
    est_smallball_prob,
    smallball_extrapolate,
    suggested_cutoff,
)

# sigma^2(t) = |t|: the side walks of alpha = 1
UNIT_BM = VarianceFunction.power(1.0, 1.0)


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

    @pytest.mark.parametrize("eta, cutoff", [(0.3, 64), (0.3, 512), (0.2, 256), (0.2, 2048),
                                             (0.1, 128), (0.1, 2048)])
    def test_alpha1_against_spitzer_recursion(self, eta, cutoff):
        # exact finite-K value: each side is a Gaussian random walk below eta k up to K = 2 * cutoff
        res = est_smallball_prob(1.0, eta, cutoff, 40_000, seed=14)
        exact = smallball_walk_probability(eta, 2 * cutoff) ** 2
        assert abs(res.prob - exact) <= 3.0 * res.stderr

    def test_alpha1_walk_stops_at_first_crossing(self):
        class CountingNormals:
            """Draws only standard normals, and counts them."""

            def __init__(self, rng):
                self.rng, self.drawn = rng, 0

            def standard_normal(self, size):
                out = self.rng.standard_normal(size)
                self.drawn += out.size
                return out

        rng = CountingNormals(chunk_stream(9, 0))
        sides = _side_indicators(UNIT_BM, 0.05, np.array([8192, 16384]), rng, 1500)
        assert sides.shape == (1500, 2, 2)
        # the full grid takes 2 x 16384 normals per path
        assert rng.drawn < 2 * 16384 * 1500 / 5

    def test_factorization_matches_joint_sampler(self):
        # alpha = 1: the product of the side means against the joint
        # indicator's mean, both from the same worker columns
        n = 100_000
        sides = _side_indicators(UNIT_BM, 0.3, np.array([32, 64]), chunk_stream(3, 0), n)
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
            ind = _side_indicators(VarianceFunction.power(alpha, 1.0), 0.2, levels, chunk_stream(6, 0), 4000)
            diffs = np.diff(ind, axis=2)
            assert np.all(diffs <= 0)

    def test_monotone_in_eta(self):
        lo = est_smallball_prob(1.0, 0.1, 64, 50_000, seed=7)
        hi = est_smallball_prob(1.0, 0.2, 64, 50_000, seed=7)
        assert lo.prob <= hi.prob

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_thread_count_invariance(self, alpha, monkeypatch):
        # K = 2048 puts 1023 paths in a chunk, so the run spans three chunks
        monkeypatch.setenv("PICKANDS_THREADS", "1")
        one = est_smallball_prob(alpha, 0.1, 1024, 3000, seed=8)
        monkeypatch.setenv("PICKANDS_THREADS", "3")
        three = est_smallball_prob(alpha, 0.1, 1024, 3000, seed=8)
        assert one.to_dict() == three.to_dict()

    def test_peak_memory_is_row_blocks_not_grid_squared(self, peak_bytes, monkeypatch):
        # a 2K x 2K Cholesky factor of the reciprocal grid alone would take 134 MB
        monkeypatch.setenv("PICKANDS_THREADS", "1")
        _, peak = peak_bytes(lambda: est_smallball_prob(1.5, 0.1, 1024, 4000))
        assert peak <= 16 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            est_smallball_prob(2.5, 0.1, 16, 100)
        with pytest.raises(ValueError):
            est_smallball_prob(1.0, 0.0, 16, 100)

    def test_embedding_computed_once_per_run(self):
        # the chunks share one variance function, so one embedding, not one per chunk
        assert len(chunk_plan(20_000, 2 * 512 + 1)) == 5  # cutoff 256 reads K = 512
        _cached_grid_eigs.cache_clear()
        est_smallball_prob(1.5, 0.1, 256, 20_000, seed=3)
        info = _cached_grid_eigs.cache_info()
        assert info.misses == 1 and info.currsize == 1


def argmax_route(alpha, eta, cutoff, reps, seed):
    """delta times the argmax estimate of H^delta for VarianceFunction.fbm(alpha)
    at delta = (2 eta^2)^(1/alpha) and horizon 2 * cutoff, and its standard error.

    With w(t) = sqrt(2) b(t) - |t|^alpha, self-similarity makes
    {w(delta k) <= 0 for 0 < |k| <= K} the event {b(k) <= eta |k|^alpha},
    so this estimates what est_smallball_prob(alpha, eta, cutoff, reps) does.
    """
    delta = (2.0 * eta**2) ** (1.0 / alpha)
    res = estimate(VarianceFunction.fbm(alpha), "argmax", delta, reps, horizon=2 * cutoff, seed=seed)
    return delta * res.estimate, delta * res.stderr


class TestLineSides:
    """At alpha = 2 a side of b~(k) - eta k^2 is a parabola with its vertex at
    z / (2 eta): its indicators are read from the slopes, with no path matrix."""

    @pytest.mark.parametrize("eta, levels", [(0.2, [16, 32]), (0.05, [64, 128]), (0.003, [8, 16])])
    def test_same_indicators_as_the_matrix(self, eta, levels, monkeypatch):
        vf, levels = VarianceFunction.power(2.0, 1.0), np.array(levels)
        got = smallball._side_indicators(vf, eta, levels, chunk_stream(2, 0), 5000)
        monkeypatch.setattr(smallball, "is_line", lambda vf: False)
        want = smallball._side_indicators(vf, eta, levels, chunk_stream(2, 0), 5000)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert 0.0 < got.mean() < 1.0


class TestArgmaxIdentity:
    @pytest.mark.parametrize("eta", [0.2, 0.05])
    def test_alpha2_same_seed_agrees(self, eta):
        # both routes draw one normal per path, in the same order
        res = est_smallball_prob(2.0, eta, 16, 20_000, seed=1)
        prob, _ = argmax_route(2.0, eta, 16, 20_000, seed=1)
        assert prob == pytest.approx(res.prob, rel=1e-12)

    @pytest.mark.parametrize("eta, cutoff", [(0.2, 64), (0.3, 32)])
    def test_alpha1_against_spitzer_recursion(self, eta, cutoff):
        # the argmax route averages the joint indicator; over 30 seeds at 20000
        # reps its z against the exact value had mean 0.2-0.3 and SD 0.9
        prob, se = argmax_route(1.0, eta, cutoff, 40_000, seed=5)
        exact = smallball_walk_probability(eta, 2 * cutoff) ** 2
        assert abs(prob - exact) <= 3.0 * se

    def test_alpha15_routes_agree(self):
        res = est_smallball_prob(1.5, 0.3, 16, 20_000, seed=3)
        prob, se = argmax_route(1.5, 0.3, 16, 20_000, seed=4)
        assert abs(res.prob - prob) <= 4.0 * math.hypot(res.stderr, se)


class TestSuggestedCutoff:
    def test_grows_as_eta_shrinks(self):
        assert suggested_cutoff(1.0, 0.05) >= suggested_cutoff(1.0, 0.1) >= suggested_cutoff(1.0, 0.2)

    def test_residual_tail_is_small(self):
        eta = 0.1
        k = suggested_cutoff(1.0, eta)
        tail = sum(float(ndtr(-eta * math.sqrt(j))) for j in range(k + 1, 20 * k))
        assert tail <= 0.01 * eta**2 * 1.001

    def test_matches_scipy_version(self, monkeypatch):
        # the benchmark's etas 0.2, 0.1 and 0.05 among them; at alpha = 0.5
        # eta <= 0.1 lies beyond the cap, and both versions must raise there
        def cutoff_or_raise(alpha, eta):
            try:
                return suggested_cutoff(alpha, eta)
            except ValueError:
                return "raises"

        grid = [(a, e) for a in (0.5, 1.0, 1.5, 2.0) for e in (0.5, 0.2, 0.1, 0.05, 0.02)]
        ours = [cutoff_or_raise(a, e) for a, e in grid]
        assert ours.count("raises") == 3
        monkeypatch.setattr(smallball, "_ndtr", ndtr)
        assert ours == [cutoff_or_raise(a, e) for a, e in grid]

    def test_benchmark_cutoffs(self):
        assert [suggested_cutoff(1.0, e) for e in (0.2, 0.1, 0.05)] == [512, 4096, 16384]
        assert [suggested_cutoff(2.0, e) for e in (0.2, 0.1, 0.05)] == [64, 64, 128]

    def test_cap_is_checked(self):
        # the cap itself passes at alpha = 0.5, eta = 0.2 ...
        assert suggested_cutoff(0.5, 0.2) == CUTOFF_CAP
        # (beyond 12 * CUTOFF_CAP every term is below 1e-32)
        tail = sum(ndtr(-0.2 * np.arange(j, j + CUTOFF_CAP, dtype=float) ** 0.25).sum()
                   for j in range(CUTOFF_CAP + 1, 12 * CUTOFF_CAP, CUTOFF_CAP))
        assert tail <= 0.01 * 0.2**4
        # ... and fails loudly at eta = 0.1, where its first discarded term alone exceeds the tolerance
        assert ndtr(-0.1 * (CUTOFF_CAP + 1) ** 0.25) > 0.01 * 0.1**4
        with pytest.raises(ValueError, match=f"{CUTOFF_CAP}.*--cutoff"):
            suggested_cutoff(0.5, 0.1)


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
