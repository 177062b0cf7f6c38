"""Max-stable simulation: marginal laws, finite-dimensional laws against
the analytic oracle, extremal-index routes, and the tail process."""

import math

import numpy as np
import pytest
from scipy import stats

from oracles import alpha2_constant, alpha2_fdd_exponent, alpha2_sup_mean, levy_brownian_series
from pickands import estimators, maxstable
from pickands.engine import ROW_BLOCK_BYTES, chunk_plan, chunk_stream, row_blocks
from pickands.estimators import _block_paths, _block_sup_values, estimate
from pickands.maxstable import (
    _boundary_corrected_theta,
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
    LinePaths,
    VarianceFunction,
    w_matrix,
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

    def test_pinned_on_the_line(self):
        # the sampler's bytes where its path matrices are the line's, column-major
        zeta, draws = max_stable_batch(FBM2, GridSpec(1.0, 0, 2), chunk_stream(6, 0), 500)
        assert (float(zeta.sum()).hex(), float(np.log(zeta).sum()).hex(), int(draws.sum())) == (
            "0x1.8da7832baff42p+13", "0x1.9e6eead4f38a0p+9", 1466)

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

    @pytest.mark.parametrize("model, probability, stderr", [
        (FBM2, "0x1.74cb5f0c7e563p-2", "0x1.c79891d18c3c2p-14"),
        (FBM15, "0x1.752cec8c6e808p-2", "0x1.a70e4892312a4p-13"),
        (LevyModel.brownian(), "0x1.abe37535ced17p-2", "0x1.a7fb43693d0c4p-13"),
    ], ids=["fbm2", "fbm1.5", "levy-brownian"])
    def test_pinned_in_row_blocks(self, model, probability, stderr):
        # paths on [-2, 2] in chunks of 65536 and 4464, the first read in two row blocks
        assert chunk_plan(70_000, 5) == [65536, 4464] and len(row_blocks(65536, 5 * 8)) == 2
        est = fdd_probability(model, [0.0, 1.0, 2.0], [2.0, 1.5, 3.0], 70_000, seed=4)
        assert (est.probability.hex(), est.stderr.hex()) == (probability, stderr)

    @pytest.mark.parametrize("model, points, probability, stderr", [
        (FBM2, [0.0, 2.0, 3.0], "0x1.364f79eda28ffp-2", "0x1.ebb825f06aaf9p-14"),
        (LevyModel.brownian(), [-1.0, 0.0, 2.0], "0x1.9622c322b0bf8p-2", "0x1.b3021ddcbefa6p-13"),
    ], ids=["fbm2-gapped", "levy-brownian-two-sided"])
    def test_pinned_windows_with_holes(self, model, points, probability, stderr):
        # paths on [-3, 3] in chunks of 65536 and 4464, the first read in three row
        # blocks, every window with a hole: read as views of the line's column-major
        # matrix, and from transposed copies of the Levy matrix
        assert chunk_plan(70_000, 7) == [65536, 4464] and len(row_blocks(65536, 7 * 8)) == 3
        est = fdd_probability(model, points, [2.0, 1.5, 3.0], 70_000, seed=4)
        assert (est.probability.hex(), est.stderr.hex()) == (probability, stderr)

    def test_validation(self):
        with pytest.raises(ValueError):
            fdd_probability(FBM2, [0.0, 1.0], [1.0], 100)
        with pytest.raises(ValueError):
            fdd_probability(FBM2, [0.0], [-1.0], 100)

    @pytest.mark.parametrize("points, thresholds, message", [
        ([0.0, math.inf], [2.0, 3.0], "points must be finite"),
        ([0.0, math.nan], [2.0, 3.0], "points must be finite"),
        ([0.0, 1.0], [1.0, math.nan], "thresholds must be positive and finite"),
        ([0.0, 1.0], [1.0, math.inf], "thresholds must be positive and finite"),
    ])
    def test_non_finite_input_rejected(self, points, thresholds, message):
        with pytest.raises(ValueError, match=message):
            fdd_probability(FBM2, points, thresholds, 100)

    @pytest.mark.parametrize("points", [[0.0, 0.0], [1.0, 2.0, 1.0]])
    def test_repeated_points_rejected(self, points):
        with pytest.raises(ValueError, match="points must be distinct"):
            fdd_probability(FBM2, points, [2.0] * len(points), 100)


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
    # several row blocks, not all of one size, of paths on [-100, 100]
    R = 100
    ROWS = 12 * (ROW_BLOCK_BYTES // (201 * 8)) + 5

    @staticmethod
    def unblocked(w, r):
        # the outward reads over all rows at once: column k of a side is the
        # centre and the k lags to its left or right, and the window of k lags
        # to the left and r - k to the right counts the centre's exp(0) = 1 once
        left, right = w[:, r::-1], w[:, r:]
        top = np.maximum(np.maximum.accumulate(left, axis=1), np.maximum.accumulate(right, axis=1)[:, ::-1])
        sums = np.cumsum(np.exp(left), axis=1) + np.cumsum(np.exp(right), axis=1)[:, ::-1] - 1.0
        return (np.exp(top) / sums).sum(axis=1)

    @staticmethod
    def brute_force(w, r):
        # every window's maximum and sum of exp(w) taken on its own, in long double
        windows = np.lib.stride_tricks.sliding_window_view(w.astype(np.longdouble), r + 1, axis=1)
        return (np.exp(windows.max(axis=2)) / np.exp(windows).sum(axis=2)).sum(axis=1)

    @staticmethod
    def paths(rows, r):
        # random walks that spread about 3 over the block, so no window sum underflows
        return chunk_stream(3, 0).standard_normal((rows, 2 * r + 1)).cumsum(axis=1) * (3.0 / math.sqrt(2 * r + 1))

    # (r, rows): one block, one of a few rows, and several blocks with a
    # remainder; blocks of two and three rows of a very long row
    @pytest.mark.parametrize("r,rows", [(100, 1), (100, 7), (100, 400), (R, ROWS), (40_000, 5)])
    def test_row_blocks_change_no_value(self, r, rows):
        w = self.paths(rows, r)
        assert _block_sup_values(w, [r])[:, 0].tobytes() == self.unblocked(w, r).tobytes()

    @pytest.mark.parametrize("kind", ["random walks", "steep line paths"])
    def test_matches_brute_force(self, kind):
        r = 100
        if kind == "random walks":
            # pinned at w(0) = 0, as every path is: the kernel counts the centre as exp(0)
            w = self.paths(200, r)
            paths = w = w - w[:, r:r + 1]
        else:
            # the 200 steepest of 20000 line paths, whose windows far from the
            # centre hold values far above or below it
            line = _block_paths(FBM2, GridSpec(1.0, -r, r), chunk_stream(7, 0), 20_000)
            paths = line[np.argsort(-np.abs(line.slopes[:, 0]))[:200]]
            w = paths.rows(slice(None), np.empty(paths.shape))
        want = self.brute_force(w, r)
        np.testing.assert_allclose(_block_sup_values(paths, [r])[:, 0], want.astype(float), rtol=1e-14, atol=0)

    def test_row_values_do_not_depend_on_row_count(self):
        # 3 x 101 window ratios and 3000 x 101 ones must add each row alike
        w = self.paths(3000, 100)
        assert _block_sup_values(w[:3], [100]).tobytes() == _block_sup_values(w, [100])[:3].tobytes()

    def test_central_window_is_its_own_path(self):
        w = self.paths(700, 40)
        both = _block_sup_values(w, [40, 20])
        assert both[:, 1].tobytes() == _block_sup_values(w[:, 20:61], [20])[:, 0].tobytes()
        assert both[:, 0].tobytes() == _block_sup_values(w, [40])[:, 0].tobytes()

    def test_peak_within_bound(self, peak_bytes):
        # one block's buffers and the output; taking each step's temporaries
        # afresh in 1 MiB row blocks held about four ROW_BLOCK_BYTES at once
        w = self.paths(self.ROWS, self.R)
        _, peak = peak_bytes(_block_sup_values, w, [self.R])
        assert peak <= 3 * ROW_BLOCK_BYTES

    # (r, count): one block, several blocks with a remainder, the shortest
    # windows, and blocks of two and three rows of a very long row
    @pytest.mark.parametrize("delta", [1.0, 0.5])
    @pytest.mark.parametrize("r,count", [(100, 7), (100, 2000), (1, 3000), (40_000, 5)],
                             ids=["one-block", "blocks", "r1", "two-row-blocks"])
    @pytest.mark.parametrize("windows", [1, 2])
    def test_line_rows_equal_matrix_rows(self, delta, r, count, windows):
        # the block formula's window, or the boundary-corrected pair [-2r, 2r] and [-r, r]
        grid = GridSpec(delta, -windows * r, windows * r)
        radii = [windows * r, r][:windows]
        line = _block_paths(FBM2, grid, chunk_stream(5, 2), count)
        assert isinstance(line, LinePaths)
        matrix = _block_sup_values(w_matrix(FBM2, grid, chunk_stream(5, 2), count), radii)
        assert _block_sup_values(line, radii).tobytes() == matrix.tobytes()

    def test_line_runs_draw_no_path_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a path matrix was drawn on the alpha = 2 line")

        # the block kernel's paths are drawn by estimators._block_paths
        monkeypatch.setattr(estimators, "w_matrix", refuse)
        monkeypatch.setattr(maxstable, "w_matrix", refuse)
        est_extremal_index_blocks(FBM2, 1.0, 1000, 200, seed=1)
        _boundary_corrected_theta(FBM2, 0.5, 10, 200, seed=1)

    def test_line_chunk_peak(self, peak_bytes):
        # a chunk of the benchmark's 40000 paths on [-100, 100] holds no path matrix
        grid = GridSpec(1.0, -100, 100)
        count = chunk_plan(40_000, grid.n_points)[0]
        assert count == 20867

        def chunk():
            return _block_sup_values(_block_paths(FBM2, grid, chunk_stream(11, 0), count), [100])

        _, peak = peak_bytes(chunk)
        assert peak < count * grid.n_points * 8 / 8


class TestCandidate:
    def test_exact_tie_to_exceedance(self):
        cand = est_candidate_theta(FBM2, 0.5, 30_000, seed=12)
        exc = estimate(FBM2, "exceedance", 0.5, 30_000, seed=12)
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
