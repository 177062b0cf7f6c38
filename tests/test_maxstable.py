"""Max-stable simulation: marginal laws, finite-dimensional laws against
the analytic oracle, extremal-index routes, and the tail process."""

import math

import numpy as np
import pytest
from scipy import stats

from oracles import alpha2_constant, alpha2_fdd_exponent, alpha2_sup_mean, levy_brownian_series
from pickands.engine import ROW_BLOCK_BYTES, chunk_stream
from pickands.estimators import est_exceedance
from pickands.maxstable import (
    _block_sup_values,
    _boundary_corrected_theta,
    _sliding_max,
    est_candidate_theta,
    est_extremal_index_blocks,
    fdd_probability,
    frechet_cdf,
    max_stable_batch,
)
from pickands.models import (
    GridSpec,
    JumpLaw,
    LevyModel,
    VarianceFunction,
)

FBM2 = VarianceFunction.fbm(2.0)
FBM15 = VarianceFunction.fbm(1.5)
FLAT = VarianceFunction.tabulated([0.0, 100.0], [0.0, 0.0])


class TestSimulator:
    def test_degenerate_single_point_is_frechet(self):
        # w = 0: zeta(0) = max_i P_i = 1 / (first exponential arrival)
        grid = GridSpec(1.0, 0, 0)
        zeta, draws = max_stable_batch(FLAT, grid, chunk_stream(1, 0), 30_000)
        res = stats.kstest(zeta[:, 0], frechet_cdf)
        assert res.pvalue > 0.01
        assert np.all(draws == 1)

    def test_marginal_frechet_probability(self):
        grid = GridSpec(1.0, 0, 1)
        zeta, _ = max_stable_batch(FBM2, grid, chunk_stream(2, 0), 30_000)
        for j in range(2):
            emp = float(np.mean(zeta[:, j] <= 1.0))
            se = math.sqrt(emp * (1 - emp) / zeta.shape[0])
            assert abs(emp - math.exp(-1.0)) <= 3.0 * se

    @pytest.mark.parametrize("model", [FBM2, FBM15, LevyModel.brownian()])
    def test_marginal_ks_at_1pct(self, model):
        grid = GridSpec(1.0, 0, 1)
        zeta, _ = max_stable_batch(model, grid, chunk_stream(3, 0), 40_000)
        for j in range(zeta.shape[1]):
            assert stats.kstest(zeta[:, j], frechet_cdf).pvalue > 0.01

    @pytest.mark.parametrize("model", [FBM2, FBM15, LevyModel.brownian()],
                             ids=["fbm2", "fbm1.5", "levy-brownian"])
    def test_draws_per_sample_match_grid_size(self, model):
        # the extremal-function sampler draws one path per grid point on average
        grid = GridSpec(1.0, 0, 2)
        _, draws = max_stable_batch(model, grid, chunk_stream(4, 0), 20_000)
        assert np.all(draws >= 1)
        assert abs(draws.mean() - grid.n_points) <= 0.05 * grid.n_points

    @pytest.mark.parametrize("model,points,thresholds", [
        (LevyModel(0.5, 1.0, JumpLaw("normal", mean=0.2, sd=0.7)), [0.0, 1.0, 2.0], [2.0, 1.5, 3.0]),
        # rate 1.5: E exp(2 J) and so Phi(2) are infinite, which the tilt must not need
        (LevyModel(0.5, 0.2, JumpLaw("exponential", rate=1.5)), [0.0, 1.0], [2.0, 3.0]),
        (LevyModel(0.5, 1.0, JumpLaw("normal", mean=0.2, sd=0.7)), [-1.0, 0.0, 1.0], [1.5, 2.0, 3.0]),
    ], ids=["normal-jumps", "exponential-jumps", "two-sided-normal-jumps"])
    def test_levy_tilt_matches_oracle(self, model, points, thresholds):
        oracle = fdd_probability(model, points, thresholds, 1_000_000, seed=6)
        grid = GridSpec(1.0, int(min(points)), int(max(points)))
        zeta, _ = max_stable_batch(model, grid, chunk_stream(6, 0), 50_000)
        emp = float(np.mean(np.all(zeta <= np.asarray(thresholds)[None, :], axis=1)))
        se = math.sqrt(emp * (1 - emp) / zeta.shape[0])
        assert abs(emp - oracle.probability) <= 3.0 * math.hypot(se, oracle.stderr)

    def test_heavy_tailed_levy_matches_oracle(self):
        # E exp(2 w) is infinite for exponential(1.5) jumps, so a plain average of
        # max_j exp(w(t_j)) / x_j is heavy-tailed: at this seed it reads the exponent
        # 5 of its standard errors low; the tilted rewrite has bounded values
        model = LevyModel(0.5, 0.5, JumpLaw("exponential", rate=1.5))
        points, thresholds = [2.0, 3.0], [2.0, 3.0]
        oracle = fdd_probability(model, points, thresholds, 200_000, seed=1)
        zeta, _ = max_stable_batch(model, GridSpec(1.0, 0, 3), chunk_stream(8, 0), 40_000)
        emp = float(np.mean(np.all(zeta[:, [2, 3]] <= np.asarray(thresholds)[None, :], axis=1)))
        se = math.sqrt(emp * (1 - emp) / zeta.shape[0])
        assert abs(emp - oracle.probability) <= 3.0 * math.hypot(se, oracle.stderr)


class TestFddOracle:
    def test_single_point_exact(self):
        est = fdd_probability(FBM2, [0.0], [2.0], 500, seed=1)
        assert est.probability == pytest.approx(math.exp(-0.5))
        assert est.stderr == 0.0

    def test_large_thresholds(self):
        est = fdd_probability(FBM15, [0.0, 1.0], [1e9, 1e9], 2000, seed=2)
        assert est.probability > 0.999999

    @pytest.mark.parametrize("model,points,thresholds", [
        (FBM2, [0.0, 1.0], [2.0, 3.0]),
        (FBM15, [0.0, 1.0, 2.0], [2.0, 1.5, 3.0]),
        (LevyModel.brownian(), [0.0, 1.0], [2.0, 3.0]),
        (FBM2, [0.0, 1.0, 2.0, 3.0], [2.0, 1.5, 3.0, 1.0]),
    ])
    def test_simulator_matches_oracle(self, model, points, thresholds):
        oracle = fdd_probability(model, points, thresholds, 200_000, seed=3)
        grid = GridSpec(1.0, 0, int(max(points)))
        cols = np.asarray(points, dtype=int)
        zeta, _ = max_stable_batch(model, grid, chunk_stream(7, 0), 30_000)
        emp = float(np.mean(np.all(zeta[:, cols] <= np.asarray(thresholds)[None, :], axis=1)))
        se = math.sqrt(emp * (1 - emp) / zeta.shape[0])
        assert abs(emp - oracle.probability) <= 3.0 * math.hypot(se, oracle.stderr)

    @pytest.mark.parametrize("points,thresholds", [
        ([0.0, 1.0, 2.0, 3.0], [2.0, 1.5, 3.0, 1.0]),
        ([-1.0, 0.5], [2.0, 1.0]),
    ])
    def test_alpha2_matches_quadrature(self, points, thresholds):
        # at lag 3 sigma^2 = 18: the plain average of the lognormal max misses
        # its rare large values and understates its standard error
        est = fdd_probability(FBM2, points, thresholds, 200_000, seed=4)
        exact = math.exp(-alpha2_fdd_exponent(points, thresholds))
        assert abs(est.probability - exact) <= 3.0 * est.stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            fdd_probability(FBM2, [0.0, 1.0], [1.0], 100)
        with pytest.raises(ValueError):
            fdd_probability(FBM2, [0.0], [-1.0], 100)


class TestBlocks:
    def test_matches_exact_finite_block_value(self):
        # exact target from quadrature: (n/r)(1 - exp(-c_r / n))
        n, r = 10_000, 100
        c_exact = alpha2_sup_mean(float(r), 1.0)
        target = (n / r) * (1.0 - math.exp(-c_exact / n))
        res = est_extremal_index_blocks(FBM2, 1.0, n, 40_000, r_n=r, seed=8)
        assert abs(res.estimate - target) <= 3.0 * res.stderr + 1e-3

    def test_degenerate_block_collapses_to_marginal_tail(self):
        # w = 0: every ratio is 1/(r+1), so c = 1 and theta = (n/r)(1 - e^{-1/n})
        n, r = 1000, 10
        res = est_extremal_index_blocks(FLAT, 1.0, n, 200, r_n=r, seed=9)
        assert res.estimate == pytest.approx((n / r) * (1.0 - math.exp(-1.0 / n)))
        assert res.stderr == 0.0

    def test_theta_in_unit_interval(self):
        res = est_extremal_index_blocks(FBM15, 1.0, 10_000, 20_000, seed=10)
        assert 0.0 <= res.estimate <= 1.0 + 3.0 * res.stderr

    def test_default_block_length(self):
        res = est_extremal_index_blocks(FBM2, 1.0, 10_000, 1000, seed=11)
        assert res.horizon == 100

    def test_levy_theta_in_unit_interval(self):
        res = est_extremal_index_blocks(LevyModel.brownian(), 1.0, 10_000, 5_000, seed=12)
        assert 0.0 <= res.estimate <= 1.0 + 3.0 * res.stderr


class TestBoundaryCorrectedBlocks:
    def test_alpha2_quadrature_is_exact(self):
        # (c(2r) - c(r)) / r carries no boundary term: delta H^delta = erf(1/2) at any r
        r = 31
        stat = (alpha2_sup_mean(2.0 * r, 1.0) - alpha2_sup_mean(float(r), 1.0)) / r
        assert stat == pytest.approx(math.erf(0.5), abs=1e-10)
        assert alpha2_sup_mean(float(r), 1.0) / r > math.erf(0.5) + 0.03

    @pytest.mark.parametrize("model,target", [
        (FBM2, math.erf(0.5)),
        (LevyModel.brownian(), levy_brownian_series(1.0)),
    ], ids=["fbm2", "levy-brownian"])
    def test_matches_delta_H(self, model, target):
        res = _boundary_corrected_theta(model, 1.0, 31, 4_000, seed=13)
        assert abs(res.estimate - target) <= 3.0 * res.stderr


class TestBlockSupKernel:
    # 12 row blocks and a remainder of paths on [-100, 100]
    R = 100
    ROWS = 12 * (ROW_BLOCK_BYTES // (201 * 8)) + 5

    @staticmethod
    def unblocked(w, r):
        shift = w.max(axis=1, keepdims=True)
        e = np.exp(w - shift)
        csum = np.concatenate([np.zeros((w.shape[0], 1)), np.cumsum(e, axis=1)], axis=1)
        width = r + 1
        sums = csum[:, width:] - csum[:, :-width]
        maxes = np.ascontiguousarray(_sliding_max(w, width)) - shift
        return (np.exp(maxes) / sums).sum(axis=1)

    @staticmethod
    def paths(rows, r):
        # random walks that spread about 3 over the block, so no window sum underflows
        return chunk_stream(3, 0).standard_normal((rows, 2 * r + 1)).cumsum(axis=1) * (3.0 / math.sqrt(2 * r + 1))

    # (r, rows): one block, one of a few rows, and several blocks with a
    # remainder; blocks of two rows of a very long block
    @pytest.mark.parametrize("r,rows", [(100, 1), (100, 7), (100, 400), (R, ROWS), (40_000, 5)])
    def test_row_blocks_change_no_value(self, r, rows):
        w = self.paths(rows, r)
        assert _block_sup_values(w, r).tobytes() == self.unblocked(w, r).tobytes()

    def test_row_values_do_not_depend_on_row_count(self):
        # 3 x 101 window ratios and 3000 x 101 ones must add each row alike
        w = self.paths(3000, 100)
        assert _block_sup_values(w[:3], 100).tobytes() == _block_sup_values(w, 100)[:3].tobytes()

    def test_peak_within_bound(self, peak_bytes):
        w = self.paths(self.ROWS, self.R)
        _, peak = peak_bytes(_block_sup_values, w, self.R)
        assert peak <= 1.5 * w.nbytes


class TestCandidate:
    def test_exact_tie_to_exceedance(self):
        cand = est_candidate_theta(FBM2, 0.5, 30_000, seed=12)
        exc = est_exceedance(FBM2, 0.5, 30_000, seed=12)
        assert cand.estimate == 0.5 * exc.estimate
        assert cand.stderr == 0.5 * exc.stderr

    def test_unit_interval(self):
        res = est_candidate_theta(FBM15, 2.0, 50_000, seed=13)
        assert -3.0 * res.stderr <= res.estimate <= 1.0 + 3.0 * res.stderr

    def test_monotone_in_m_per_seed(self, rng):
        # adding tail-process constraints can only shrink the event
        pareto = 1.0 / rng.uniform(size=2000)
        from pickands.models import gaussian_w_matrix

        w = gaussian_w_matrix(FBM15, GridSpec(1.0, 0, 32), rng, 2000)[:, 1:]
        y = pareto[:, None] * np.exp(w)
        run = np.maximum.accumulate(y, axis=1)
        ind8 = run[:, 7] <= 1.0
        ind32 = run[:, 31] <= 1.0
        assert np.all(ind32 <= ind8)


class TestTailProcess:
    def test_conditional_law_matches_tail_process(self):
        """(zeta(delta)/T | zeta(0) > T) for large T vs y(1), two-sample KS.

        Since w(0) = 0 for every spectral path, {zeta(0) > T} happens
        exactly when some Poisson weight exceeds T, and those weights form
        a conditioned-positive Poisson(1/T) cluster of Pareto-scaled
        values T/U independent of the rest of the stream. The remainder is
        approximated by an unconditional zeta draw (its weights exceed T
        only with probability 1/T, far below the KS tolerance).
        """
        T = 400.0
        n = 40_000
        rng = chunk_stream(15, 0)
        grid = GridSpec(1.0, 0, 1)

        lam = 1.0 / T
        pmf = np.array([lam**k / math.factorial(k) for k in range(1, 6)])
        pmf *= math.exp(-lam) / -math.expm1(-lam)
        counts = 1 + np.searchsorted(np.cumsum(pmf), rng.uniform(size=n))
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        total = int(counts.sum())
        wlog = np.log(T / rng.uniform(size=total))
        paths = _gauss_w(FBM2, grid, rng, total)[:, 1]
        big = np.maximum.reduceat(wlog + paths, offsets)

        zeta, _ = max_stable_batch(FBM2, grid, rng, n)
        cond = np.maximum(np.exp(big), zeta[:, 1])

        rng2 = chunk_stream(16, 0)
        pareto = 1.0 / rng2.uniform(size=n)
        y1 = pareto * np.exp(_gauss_w(FBM2, grid, rng2, n)[:, 1])

        res = stats.ks_2samp(cond / T, y1)
        assert res.statistic < 0.02

    def test_candidate_fraction_matches_formula(self):
        rng = chunk_stream(17, 0)
        n = 30_000
        grid = GridSpec(1.0, 0, 32)
        pareto = 1.0 / rng.uniform(size=n)
        w = _gauss_w(FBM2, grid, rng, n)[:, 1:]
        frac = float(np.mean((pareto[:, None] * np.exp(w)).max(axis=1) <= 1.0))
        se = math.sqrt(frac * (1 - frac) / n)
        assert abs(frac - alpha2_constant(1.0)) <= 3.0 * se


def _gauss_w(vf, grid, rng, count):
    from pickands.models import gaussian_w_matrix

    return gaussian_w_matrix(vf, grid, rng, count)
