"""Estimator correctness against closed forms, quadrature oracles, and
cross-formula identities."""

import os

import numpy as np
import pytest

from oracles import FROZEN, alpha2_constant, alpha2_sup_mean, levy_brownian_series
from pickands.bounds import levy_h0_bound
from pickands.engine import ROW_BLOCK_BYTES, chunk_stream, resolve_threads
from pickands.estimators import (
    EXACT_METHODS,
    TruncationPolicy,
    _values_ratio,
    crosscheck,
    default_horizon,
    est_argmax,
    est_continuous_dy,
    est_definitional,
    est_dieker_yakir,
    est_difference,
    est_exceedance,
    est_time_reversed,
    feasible_definitional_T,
)
from pickands.models import (
    GridSpec,
    JumpLaw,
    LevyModel,
    VarianceFunction,
    gaussian_w_matrix,
)

FBM2 = VarianceFunction.fbm(2.0)
FBM1 = VarianceFunction.fbm(1.0)
LEVY_MODELS = {
    "brownian": LevyModel.brownian(),
    "normal-jumps": LevyModel(0.5, 1.0, JumpLaw("normal", mean=0.2, sd=0.7)),
    "exponential-jumps": LevyModel(0.5, 0.2, JumpLaw("exponential", rate=1.5)),
}
ALL_ESTIMATORS = {
    "exceedance": est_exceedance,
    "difference": est_difference,
    "argmax": est_argmax,
    "dieker-yakir": est_dieker_yakir,
    "time-reversed": est_time_reversed,
}


def assert_within(result, target, k=3.0, floor=1e-9):
    assert abs(result.estimate - target) <= k * result.stderr + floor, (
        f"{result.method}: {result.estimate} vs {target} (se {result.stderr})"
    )


class TestAgainstAlpha2ClosedForm:
    @pytest.mark.parametrize("method", sorted(ALL_ESTIMATORS))
    @pytest.mark.parametrize("delta", [1.0, 4.0])
    def test_matches_closed_form(self, method, delta):
        res = ALL_ESTIMATORS[method](FBM2, delta, 150_000, seed=101)
        assert_within(res, alpha2_constant(delta))

    def test_large_delta_saturates(self):
        res = est_exceedance(FBM2, 10.0, 100_000, seed=3)
        assert abs(10.0 * res.estimate - 1.0) <= 3.0 * 10.0 * res.stderr + 1e-9

    def test_small_delta(self):
        res = est_exceedance(FBM2, 0.1, 200_000, seed=4)
        assert_within(res, alpha2_constant(0.1))


class TestAgainstRandomWalkOracle:
    """The alpha = 1 family and the Brownian Levy model are random walks on
    the grid, so their constants come from an independent killed-walk
    quadrature (frozen in oracles.FROZEN)."""

    @pytest.mark.parametrize("method", ["exceedance", "difference", "argmax", "time-reversed"])
    def test_alpha1(self, method):
        res = ALL_ESTIMATORS[method](FBM1, 1.0, 150_000, seed=11)
        assert_within(res, FROZEN[("alpha1", 1.0)])

    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_alpha1_deltas(self, delta):
        res = est_exceedance(FBM1, delta, 150_000, seed=12)
        assert_within(res, FROZEN[("alpha1", delta)])

    def test_levy_brownian(self):
        res = est_exceedance(LevyModel.brownian(), 1.0, 150_000, seed=13)
        assert_within(res, FROZEN[("levy-brownian", 1.0)])

    @pytest.mark.parametrize("method", ["argmax", "dieker-yakir", "time-reversed"])
    @pytest.mark.parametrize("delta", [1.0, 4.0])
    def test_levy_brownian_two_sided(self, delta, method):
        # the routes that read negative lags, against the closed-form Spitzer series
        res = ALL_ESTIMATORS[method](LevyModel.brownian(), delta, 100_000, seed=15)
        assert_within(res, levy_brownian_series(delta))

    def test_levy_matches_gaussian_alpha1(self):
        # sqrt(2) BM - t arises from both constructions; constants must agree
        levy = LevyModel(diffusion=np.sqrt(2.0))
        res = est_difference(levy, 1.0, 150_000, seed=14)
        assert_within(res, FROZEN[("alpha1", 1.0)])


class TestDefinitional:
    def test_single_point_grid_is_exact(self):
        res = est_definitional(FBM1, 1.0, 0.75, 100, seed=1)
        assert res.estimate == pytest.approx(1.0 / 0.75)
        assert res.stderr == 0.0

    def test_degenerate_model(self):
        flat = VarianceFunction.tabulated([0.0, 100.0], [0.0, 0.0])
        res = est_definitional(flat, 1.0, 10.0, 100, seed=1)
        assert res.estimate == pytest.approx(0.1)

    def test_alpha2_small_T_oracle(self):
        # E sup over {0, 1, 2} of exp(w) from one-dimensional quadrature
        res = est_definitional(FBM2, 1.0, 2.0, 200_000, seed=5)
        target = alpha2_sup_mean(2.0, 1.0) / 2.0
        assert abs(res.estimate - target) <= 3.0 * res.stderr + 0.02 * target

    def test_dominates_constant_alpha1(self):
        T = feasible_definitional_T(FBM1, 0.5, 200_000)
        res = est_definitional(FBM1, 0.5, T, 200_000, seed=6)
        assert res.estimate >= FROZEN[("alpha1", 0.5)] - 3.0 * res.stderr

    def test_delta_zero_requires_mesh(self):
        with pytest.raises(ValueError):
            est_definitional(FBM1, 0.0, 4.0, 100)
        res = est_definitional(FBM1, 0.0, 2.0, 500, mesh=0.125, seed=7)
        assert "family-specific-limit" in res.flags


class TestContinuousDy:
    def test_alpha2_recovers_continuum_constant(self):
        res = est_continuous_dy(FBM2, 0.01, 10.0, 50_000, seed=8)
        assert abs(res.estimate - 1.0 / np.sqrt(np.pi)) <= 0.03 / np.sqrt(np.pi)

    def test_mesh_equals_grid_constant(self):
        # at mesh eta the ratio estimates H^eta exactly
        res = est_continuous_dy(FBM1, 0.5, 24.0, 150_000, seed=9)
        assert_within(res, FROZEN[("alpha1", 0.5)])

    def test_levy_brownian_mesh_constant(self):
        # at mesh eta the ratio estimates H^eta exactly; w of the Brownian Levy
        # model is the alpha = 1 family at half speed, hence the wider window
        eta = 0.05
        res = est_continuous_dy(LevyModel.brownian(), eta, 40.0, 20_000, seed=10)
        assert_within(res, levy_brownian_series(eta))

    @pytest.mark.parametrize("name", ["normal-jumps", "exponential-jumps"])
    def test_levy_h0_bound_below_estimate(self, name):
        # H^eta <= H^0, so a bound below the mesh estimate is below H^0 too
        model = LEVY_MODELS[name]
        res = est_continuous_dy(model, 0.05, 40.0, 5_000, seed=16)
        assert levy_h0_bound(model).value <= res.estimate + 3.0 * res.stderr


class TestPerSampleProperties:
    def test_difference_identity(self, rng):
        s = np.exp(rng.normal(size=1000))
        assert np.array_equal(np.maximum(1.0, s) - s, np.maximum(1.0 - s, 0.0))

    def test_ratio_bounded_by_inverse_delta(self, rng):
        delta = 0.5
        grid = GridSpec(delta, -32, 32)
        w = gaussian_w_matrix(VarianceFunction.fbm(1.5), grid, rng, 500)
        m = np.exp(w).max(axis=1)
        s = delta * np.exp(w).sum(axis=1)
        assert np.all(m / s <= 1.0 / delta + 1e-12)

    def test_indicator_monotone_in_horizon(self, rng):
        # enlarging the constraint horizon can only shrink the event
        grid = GridSpec(1.0, -64, 64)
        w = gaussian_w_matrix(FBM1, grid, rng, 2000)
        expo = rng.exponential(size=2000)
        pos = w[:, 65:]
        for n1, n2 in ((8, 16), (16, 32), (32, 64)):
            ind1 = pos[:, :n1].max(axis=1) + expo <= 0
            ind2 = pos[:, :n2].max(axis=1) + expo <= 0
            assert np.all(ind2 <= ind1)

    def test_sup_monotone_under_grid_refinement(self, rng):
        # nested grids: sup over delta Z <= sup over (delta/2) Z <= sup over mesh
        mesh = GridSpec(0.25, 0, 64)
        w = gaussian_w_matrix(VarianceFunction.fbm(1.5), mesh, rng, 400)
        sup_fine = w.max(axis=1)
        sup_half = w[:, ::2].max(axis=1)   # delta = 0.5
        sup_coarse = w[:, ::4].max(axis=1)  # delta = 1.0
        assert np.all(sup_coarse <= sup_half) and np.all(sup_half <= sup_fine)

    def test_continuous_dy_numerator_monotone_in_mesh(self, rng):
        w = gaussian_w_matrix(VarianceFunction.fbm(1.5), GridSpec(0.25, -16, 16), rng, 400)
        assert np.all(w[:, ::2].max(axis=1) <= w.max(axis=1))


class TestInvariants:
    @pytest.mark.parametrize("method", sorted(ALL_ESTIMATORS))
    def test_range_and_index_bound(self, method):
        delta = 0.5
        res = ALL_ESTIMATORS[method](VarianceFunction.fbm(1.5), delta, 30_000, seed=21)
        assert -3.0 * res.stderr <= res.estimate <= 1.0 / delta + 3.0 * res.stderr
        assert delta * res.estimate <= 1.0 + 3.0 * delta * res.stderr

    def test_definitional_dominates_exceedance(self):
        delta = 1.0
        T = feasible_definitional_T(FBM1, delta, 100_000)
        d = est_definitional(FBM1, delta, T, 100_000, seed=22)
        e = est_exceedance(FBM1, delta, 100_000, seed=23)
        assert d.estimate >= e.estimate - 3.0 * np.hypot(d.stderr, e.stderr)

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            est_exceedance(FBM1, 1.0, 1)

    def test_truncation_policy_levels(self):
        pol = TruncationPolicy(initial=16, growth=2, max_horizon=128)
        assert pol.levels() == [16, 32, 64, 128]
        with pytest.raises(ValueError):
            TruncationPolicy(initial=0)

    def test_default_horizon_scales(self):
        assert default_horizon(FBM2, 1.0) <= default_horizon(FBM2, 0.1)
        assert default_horizon(LevyModel.brownian(), 8.0) <= 64


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = est_exceedance(FBM1, 1.0, 20_000, seed=5)
        b = est_exceedance(FBM1, 1.0, 20_000, seed=5)
        assert a == b

    def test_thread_count_invariance(self):
        a = est_dieker_yakir(VarianceFunction.fbm(1.5), 1.0, 30_000, seed=5, threads=1)
        b = est_dieker_yakir(VarianceFunction.fbm(1.5), 1.0, 30_000, seed=5, threads=4)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_env_thread_override(self, monkeypatch):
        monkeypatch.setenv("PICKANDS_THREADS", "3")
        a = est_exceedance(FBM1, 1.0, 20_000, seed=5)
        monkeypatch.setenv("PICKANDS_THREADS", "1")
        b = est_exceedance(FBM1, 1.0, 20_000, seed=5)
        assert a == b

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("PICKANDS_THREADS", value)
        with pytest.raises(ValueError, match="PICKANDS_THREADS"):
            resolve_threads()

    @pytest.mark.parametrize("value", [None, "", "  "])
    def test_unset_thread_env_means_usable_cpus(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("PICKANDS_THREADS", raising=False)
        else:
            monkeypatch.setenv("PICKANDS_THREADS", value)
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert resolve_threads() == usable
        monkeypatch.setenv("PICKANDS_THREADS", "3")
        assert resolve_threads() == 3

    @pytest.mark.parametrize("threads", [0, -2, 1.5])
    def test_bad_thread_argument_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            resolve_threads(threads)
        with pytest.raises(ValueError, match="threads"):
            est_exceedance(FBM1, 1.0, 100, threads=threads)


class TestCrosscheck:
    def test_alpha15_overlap(self):
        report = crosscheck(VarianceFunction.fbm(1.5), 1.0, 60_000, seed=31)
        assert report.all_overlap
        assert report.definitional_dominates
        assert set(report.results) == set(EXACT_METHODS) | {"definitional"}

    def test_common_numbers_sharpen(self):
        # shared paths: exceedance and candidate events are identical draws,
        # so the two probability estimators differ much less than 2 SE
        report = crosscheck(FBM2, 1.0, 40_000, seed=32)
        e = report.results["exceedance"]
        t = report.results["time-reversed"]
        assert abs(e.estimate - t.estimate) <= 3.0 * np.hypot(e.stderr, t.stderr)

    def test_underpowered_flag(self):
        report = crosscheck(FBM1, 1.0, 10, seed=33)
        assert "underpowered" in report.flags

    @pytest.mark.parametrize("name", sorted(LEVY_MODELS))
    def test_levy_overlap(self, name):
        report = crosscheck(LEVY_MODELS[name], 1.0, 40_000, seed=34)
        assert report.all_overlap
        assert report.definitional_dominates


class TestRatioKernel:
    # 12 row blocks and a remainder of 1025-point paths
    ROWS = 12 * (ROW_BLOCK_BYTES // (1025 * 8)) + 5
    LEVELS = np.array([64, 256, 512])

    @staticmethod
    def unblocked(w, levels, step):
        origin = w.shape[1] // 2
        shift = w.max(axis=1, keepdims=True)
        e = np.exp(w - shift)
        pos_csum = np.cumsum(e[:, origin + 1:], axis=1)
        neg_csum = np.cumsum(e[:, :origin][:, ::-1], axis=1)
        pos_cmax = np.maximum.accumulate(w[:, origin + 1:], axis=1)
        neg_cmax = np.maximum.accumulate(w[:, :origin][:, ::-1], axis=1)
        out = np.empty((w.shape[0], levels.size))
        for j, lvl in enumerate(levels):
            s = e[:, origin] + pos_csum[:, lvl - 1] + neg_csum[:, lvl - 1]
            m = np.maximum(w[:, origin], np.maximum(pos_cmax[:, lvl - 1], neg_cmax[:, lvl - 1]))
            out[:, j] = np.exp(m - shift[:, 0]) / (step * s)
        return out

    def paths(self, rows):
        return gaussian_w_matrix(VarianceFunction.fbm(1.5), GridSpec(0.5, -512, 512), chunk_stream(2, 0), rows)

    @pytest.mark.parametrize("rows", [1, 7, ROWS])
    def test_row_blocks_change_no_value(self, rows):
        w = self.paths(rows)
        assert _values_ratio(w, self.LEVELS, 0.5).tobytes() == self.unblocked(w, self.LEVELS, 0.5).tobytes()

    def test_peak_within_bound(self, peak_bytes):
        w = self.paths(self.ROWS)
        _, peak = peak_bytes(_values_ratio, w, self.LEVELS, 0.5)
        assert peak <= 1.5 * w.nbytes
