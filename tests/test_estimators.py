"""Estimator correctness against closed forms, quadrature oracles, and
cross-formula identities."""

import math
import os

import numpy as np
import pytest

from oracles import FROZEN, alpha1_series, alpha2_constant, alpha2_sup_mean, levy_brownian_series
from pickands import engine
from pickands.bounds import levy_h0_bound
from pickands.engine import ROW_BLOCK_BYTES, chunk_stream, resolve_threads
from pickands.estimators import (
    EXACT_METHODS,
    HORIZON_TAIL,
    _KERNELS,
    _read_side,
    _run_exact,
    _shared_path_run,
    _values_ratio,
    crosscheck,
    default_horizon,
    est_continuous_dy,
    est_definitional,
    estimate,
    feasible_definitional_T,
)
from pickands.models import (
    GridSpec,
    JumpLaw,
    LevyModel,
    VarianceFunction,
    antithetic_shift,
    gaussian_w_matrix,
    independent_sides,
    side_forms,
    variance_at,
    w_matrix,
)

FBM2 = VarianceFunction.fbm(2.0)
FBM1 = VarianceFunction.fbm(1.0)
LEVY_MODELS = {
    "brownian": LevyModel.brownian(),
    "normal-jumps": LevyModel(0.5, 1.0, JumpLaw("normal", mean=0.2, sd=0.7)),
    "exponential-jumps": LevyModel(0.5, 0.2, JumpLaw("exponential", rate=1.5)),
}
CONSTANT_JUMPS = LevyModel(0.5, 0.3, JumpLaw("constant", value=0.4))


def assert_within(result, target, k=3.0, floor=1e-9):
    assert abs(result.estimate - target) <= k * result.stderr + floor, (
        f"{result.method}: {result.estimate} vs {target} (se {result.stderr})"
    )


def oriented(like):
    """An empty array shaped like ``like`` that runs through memory the way
    ``like`` runs along its rows, as the worker's block buffers do."""
    out = np.empty(like.shape)
    return out if like.strides[1] > 0 else out[:, ::-1]


def form_reads(x, mirror, forms, levels):
    """Each form of the side ``x`` (``side_forms``), built over the whole chunk:
    its full-width running maxima read at the levels, and the running sums of
    its exponentials at the levels, taken in memory order as the worker's are."""
    reads = []
    for form in side_forms(x, mirror, forms, oriented(x)):
        f = oriented(x)
        f[:] = form
        reads.append((np.maximum.accumulate(f, axis=1)[:, levels - 1],
                      engine.running_at(np.add, np.exp(f, out=oriented(x)), levels)))
    return reads


def form_mean_reference(model, delta, rng, count, levels, methods, reversals=True):
    """The values of a shared-path chunk, from the ``w_matrix`` draw on its stream ``rng``:
    every kernel by its formula on each form it reads, then the mean over the
    forms in the worker's order (the 16 pairings at alpha = 1, pos forms
    outer; else the matched pairs)."""
    n = levels[-1]
    one_sided = set(methods) <= {"exceedance", "difference"}
    grid = GridSpec(delta, 0 if one_sided else -n, n)
    w = w_matrix(model, grid, rng, count)
    expo = rng.exponential(size=count)[:, None] if {"exceedance", "time-reversed"} & set(methods) else None
    shift = antithetic_shift(model, grid)
    forms = 1 if shift is None else 4 if reversals and independent_sides(model) else 2
    mirror = np.zeros(grid.n_points) if shift is None else shift
    pos = form_reads(w[:, -n:], mirror[-n:], forms, levels)
    neg = [] if one_sided else form_reads(w[:, n - 1::-1], mirror[n - 1::-1], forms, levels)
    pairs = [(p, q) for p in pos for q in neg] if forms == 4 else list(zip(pos, neg))
    values = {
        "exceedance": lambda: [(p[0] + expo <= 0.0) / delta for p in pos],
        "difference": lambda: [-np.expm1(np.minimum(p[0], 0.0)) / delta for p in pos],
        "argmax": lambda: [((q[0] < 0.0) & (p[0] <= 0.0)) / delta for p, q in pairs],
        "dieker-yakir": lambda: [np.exp(np.maximum(np.maximum(p[0], q[0]), 0.0)) / (delta * (1.0 + p[1] + q[1]))
                                 for p, q in pairs],
        "time-reversed": lambda: [(q[0] + expo <= 0.0) / delta for q in neg],
    }
    return {m: sum(v[1:], v[0]) * (1.0 / len(v)) for m in methods for v in [values[m]()]}


class TestAgainstAlpha2ClosedForm:
    @pytest.mark.parametrize("method", sorted(EXACT_METHODS))
    @pytest.mark.parametrize("delta", [1.0, 4.0])
    def test_matches_closed_form(self, method, delta):
        res = estimate(FBM2, method, delta, 150_000, seed=101)
        assert_within(res, alpha2_constant(delta))

    def test_large_delta_saturates(self):
        res = estimate(FBM2, "exceedance", 10.0, 100_000, seed=3)
        assert abs(10.0 * res.estimate - 1.0) <= 3.0 * 10.0 * res.stderr + 1e-9

    def test_small_delta(self):
        res = estimate(FBM2, "exceedance", 0.1, 200_000, seed=4)
        assert_within(res, alpha2_constant(0.1))


class TestAgainstRandomWalkOracle:
    """The alpha = 1 family and the Brownian Levy model are random walks on
    the grid, so their constants come from an independent killed-walk
    quadrature (frozen in oracles.FROZEN)."""

    @pytest.mark.parametrize("method", ["exceedance", "difference", "argmax", "time-reversed"])
    def test_alpha1(self, method):
        res = estimate(FBM1, method, 1.0, 150_000, seed=11)
        assert_within(res, FROZEN[("alpha1", 1.0)])

    @pytest.mark.parametrize("delta", [0.5, 2.0])
    def test_alpha1_deltas(self, delta):
        res = estimate(FBM1, "exceedance", delta, 150_000, seed=12)
        assert_within(res, FROZEN[("alpha1", delta)])

    def test_levy_brownian(self):
        res = estimate(LevyModel.brownian(), "exceedance", 1.0, 150_000, seed=13)
        assert_within(res, FROZEN[("levy-brownian", 1.0)])

    @pytest.mark.parametrize("method", ["argmax", "dieker-yakir", "time-reversed"])
    @pytest.mark.parametrize("delta", [1.0, 4.0])
    def test_levy_brownian_two_sided(self, delta, method):
        # the routes that read negative lags, against the closed-form Spitzer series
        res = estimate(LevyModel.brownian(), method, delta, 100_000, seed=15)
        assert_within(res, levy_brownian_series(delta))

    def test_levy_matches_gaussian_alpha1(self):
        # sqrt(2) BM - t arises from both constructions; constants must agree
        levy = LevyModel(diffusion=np.sqrt(2.0))
        res = estimate(levy, "difference", 1.0, 150_000, seed=14)
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


    def test_one_step_window_rejected(self):
        # a window of one mesh step cannot be halved, so its truncation is unchecked
        with pytest.raises(ValueError, match="two mesh steps"):
            est_continuous_dy(FBM1, 0.5, 0.5, 100)


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
    @pytest.mark.parametrize("method", sorted(EXACT_METHODS))
    def test_range_and_index_bound(self, method):
        delta = 0.5
        res = estimate(VarianceFunction.fbm(1.5), method, delta, 30_000, seed=21)
        assert -3.0 * res.stderr <= res.estimate <= 1.0 / delta + 3.0 * res.stderr
        assert delta * res.estimate <= 1.0 + 3.0 * delta * res.stderr

    def test_definitional_dominates_exceedance(self):
        delta = 1.0
        T = feasible_definitional_T(FBM1, delta, 100_000)
        d = est_definitional(FBM1, delta, T, 100_000, seed=22)
        e = estimate(FBM1, "exceedance", delta, 100_000, seed=23)
        assert d.estimate >= e.estimate - 3.0 * np.hypot(d.stderr, e.stderr)

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            estimate(FBM1, "exceedance", 1.0, 1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate(FBM1, "continuous-dy", 1.0, 100)

    def test_default_horizon_scales(self):
        assert default_horizon(FBM2, 1.0) <= default_horizon(FBM2, 0.1)
        assert default_horizon(LevyModel.brownian(), 8.0) <= 64


class TestTruncation:
    def test_certified_horizon_16_is_stable(self):
        # no path of this model crosses between lags 8 and 16, so the one doubling moves nothing
        assert default_horizon(FBM2, 1.0) == 16
        res = estimate(FBM2, "exceedance", 1.0, 20_000)
        assert res.horizon == 16 and res.stable and res.flags == ()

    def test_crosscheck_routes_stable(self):
        report = crosscheck(VarianceFunction.fbm(1.5), 1.0, 5_000)
        assert all(report.results[m].stable for m in EXACT_METHODS)

    def test_explicit_horizon_is_recorded(self):
        assert estimate(FBM1, "difference", 1.0, 4_000, horizon=48, seed=3).horizon == 48
        report = crosscheck(FBM1, 1.0, 4_000, horizon=48, seed=3)
        assert {report.results[m].horizon for m in EXACT_METHODS} == {48}

    def test_horizon_below_two_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            estimate(FBM1, "exceedance", 1.0, 100, horizon=1)


class TestTwoLevel:
    """Horizons of at least four base levels H0 are read as the base mean at H0
    plus a correction on a few long paths."""

    @pytest.mark.parametrize("method", ["exceedance", "dieker-yakir", "time-reversed"])
    def test_alpha1_series(self, method):
        res = estimate(FBM1, method, 0.5, 150_000, horizon=256, seed=41)
        assert res.horizon == 256 and res.base_horizon == 64
        assert_within(res, alpha1_series(0.5))

    @pytest.mark.parametrize("method", ["exceedance", "argmax", "dieker-yakir"])
    def test_levy_brownian_series(self, method):
        res = estimate(LevyModel.brownian(), method, 1.0, 150_000, horizon=256, seed=42)
        assert res.horizon == 256 and res.base_horizon == 64
        assert_within(res, levy_brownian_series(1.0))

    def test_below_four_base_levels_is_one_level(self):
        assert default_horizon(FBM1, 0.5, math.sqrt(HORIZON_TAIL)) == 64
        res = estimate(FBM1, "exceedance", 0.5, 4_000, horizon=255, seed=41)
        assert res.base_horizon is None and res.correction is None and res.correction_stderr is None
        assert "base_horizon" not in res.to_dict()

    @staticmethod
    def exceedance(model, delta, levels):
        grid = GridSpec(delta, 0, levels[-1])

        def worker(rng, count):
            w = w_matrix(model, grid, rng, count)
            expo = rng.exponential(size=count)[:, None]

            def values(w):
                return (engine.running_at(np.maximum, w[:, 1:], levels) + expo <= 0.0).astype(float) / delta
            # the antithetic pair: the path of -b, with the same E
            return (values(w) + values(-w - variance_at(model, grid.times()))) / 2
        return worker

    @staticmethod
    def ratio(model, delta, levels):
        def worker(rng, count):
            return form_mean_reference(model, delta, rng, count, levels, ("dieker-yakir",))["dieker-yakir"]
        return worker

    @pytest.mark.parametrize("method", ["exceedance", "dieker-yakir"])
    def test_base_plus_correction_by_hand(self, method):
        model, delta, reps, seed = VarianceFunction.fbm(0.5), 0.5, 3_000, 43
        h0, h = 1024, 4096
        values = self.exceedance if method == "exceedance" else self.ratio
        two_sided = method != "exceedance"
        base = values(model, delta, np.array([h0]))
        long = values(model, delta, np.array([h0, h // 2, h]))

        def correction(rng, count):
            v = long(rng, count)
            return v[:, 1:] - v[:, :1]

        n1 = math.ceil(reps * h0 / h)
        b_mean, b_se = engine.run(base, seed, reps, 2 * h0 + 1 if two_sided else h0)
        c_mean, c_se = engine.run(correction, seed, n1, 2 * h + 1 if two_sided else h, stream=1)
        res = estimate(model, method, delta, reps, horizon=h, seed=seed)
        assert (res.base_horizon, res.correction, res.correction_stderr) == (h0, c_mean[-1], c_se[-1])
        assert res.estimate == b_mean[0] + c_mean[-1]
        assert res.stderr == np.hypot(b_se[0], c_se[-1])

    def test_crosscheck_thread_invariance(self, monkeypatch):
        # several chunks of antithetic pairs at both levels
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("PICKANDS_THREADS", threads)
            runs.append(crosscheck(FBM1, 0.5, 40_000, horizon=4096, seed=44).to_dict())
        assert runs[0] == runs[1] == runs[2]
        assert runs[0]["results"]["exceedance"]["base_horizon"] == 64
        assert all(r["antithetic"] is True for r in runs[0]["results"].values())
        assert "base_horizon" not in runs[0]["results"]["definitional"]

    def test_crosscheck_definitional_beyond_base_is_one_level(self):
        report = crosscheck(FBM1, 0.5, 4_000, horizon=256, seed=45, T=40.0)
        assert report.results["definitional"].horizon == 80
        assert all(report.results[m].base_horizon is None for m in EXACT_METHODS)


class TestAntitheticPairs:
    """Off the alpha = 2 line, a Gaussian side x is read as x and -x - sigma^2,
    the side of -b, which has the law of b, with the same E; at alpha = 1
    also as its reversal and the reversal's mirror."""

    LEVELS = np.array([8, 16])
    TABULATED = VarianceFunction.tabulated([0.0, 1.0, 100.0], [0.0, 1.5, 120.0])

    @pytest.mark.parametrize("model", [FBM1, VarianceFunction.fbm(0.5), TABULATED])
    @pytest.mark.parametrize("methods", [EXACT_METHODS, ("exceedance", "difference")])
    def test_worker_is_the_pair_mean(self, model, methods):
        delta, count = 0.5, 300
        worker, *_ = _shared_path_run(model, delta, count, {m: _KERNELS[m] for m in methods},
                                      self.LEVELS, seed=3)
        got = worker(chunk_stream(3, 0), count)
        want = form_mean_reference(model, delta, chunk_stream(3, 0), count, self.LEVELS, methods)
        assert set(got) == set(methods)
        for m in methods:
            assert got[m].tobytes() == want[m].tobytes(), m

    # the Brownian Levy model is paired: with no jumps its w is Gaussian
    @pytest.mark.parametrize("model", [FBM2, VarianceFunction.power(2.0, 0.5), LEVY_MODELS["normal-jumps"],
                                       LEVY_MODELS["exponential-jumps"], CONSTANT_JUMPS])
    def test_unpaired_models_read_each_path_once(self, model):
        delta, count = 1.0, 300
        worker, *_ = _shared_path_run(model, delta, count, {"dieker-yakir": _KERNELS["dieker-yakir"]},
                                      self.LEVELS, seed=3)
        want = form_mean_reference(model, delta, chunk_stream(3, 0), count, self.LEVELS, ("dieker-yakir",))
        assert worker(chunk_stream(3, 0), count)["dieker-yakir"].tobytes() == want["dieker-yakir"].tobytes()
        assert estimate(model, "dieker-yakir", delta, 100, horizon=16).antithetic is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_alpha1_series(self, seed):
        report = crosscheck(FBM1, 0.5, 30_000, seed=seed)
        for m in EXACT_METHODS:
            assert report.results[m].antithetic is True
            assert_within(report.results[m], alpha1_series(0.5))
        assert report.results["definitional"].antithetic is True

    def test_only_shared_path_runs_are_paired(self):
        # continuous-dy is a relabelled estimate run; est_definitional draws its own paths
        assert est_continuous_dy(FBM1, 0.05, 2.0, 500, seed=4).antithetic is True
        assert est_definitional(FBM1, 0.5, 4.0, 500, seed=4).antithetic is None


class TestSideForms:
    """At alpha = 1 each side is read in four forms, and a two-sided kernel in
    the 16 pairings of a positive and a negative form."""

    # 300 paths of 1024 steps a side: five row blocks of the side reads
    LEVELS = np.array([512, 1024])
    # with no jumps the Brownian Levy w is the Gaussian with sigma^2(t) = diffusion^2 |t|
    ALPHA1 = [FBM1, VarianceFunction.power(1.0, 0.5), LevyModel.brownian(0.7)]

    @pytest.mark.parametrize("model", ALPHA1)
    @pytest.mark.parametrize("methods", [EXACT_METHODS, ("exceedance", "difference")])
    @pytest.mark.parametrize("delta, count, levels", [
        (0.05, 300, LEVELS),
        # 20000 paths of 16 steps a side: several row groups of side reads and kernels
        (0.5, 20_000, np.array([8, 16])),
    ])
    def test_worker_is_the_form_mean(self, model, methods, delta, count, levels):
        worker, *_ = _shared_path_run(model, delta, count, {m: _KERNELS[m] for m in methods}, levels, seed=5)
        got = worker(chunk_stream(5, 0), count)
        want = form_mean_reference(model, delta, chunk_stream(5, 0), count, levels, methods)
        for m in methods:
            assert got[m].tobytes() == want[m].tobytes(), m

    def test_without_reversals_the_pair(self):
        # crosscheck's reading: the matched pair x, -x - sigma^2 of each side
        delta, count = 0.05, 300
        worker, *_ = _shared_path_run(FBM1, delta, count, dict(_KERNELS), self.LEVELS, seed=5, reversals=False)
        got = worker(chunk_stream(5, 0), count)
        want = form_mean_reference(FBM1, delta, chunk_stream(5, 0), count, self.LEVELS, EXACT_METHODS,
                                   reversals=False)
        for m in EXACT_METHODS:
            assert got[m].tobytes() == want[m].tobytes(), m

    @pytest.mark.parametrize("model", ALPHA1)
    def test_correction_is_the_form_mean(self, model):
        # the long paths of a two-level run, on stream 1: the form mean at the later levels less the first
        delta, count, levels = 0.05, 300, np.array([256, 512, 1024])
        worker, *_, stream = _shared_path_run(model, delta, count, {m: _KERNELS[m] for m in EXACT_METHODS},
                                              levels, seed=5, correction=True)
        assert stream == 1
        got = worker(chunk_stream(5, 0, 1), count)
        want = form_mean_reference(model, delta, chunk_stream(5, 0, 1), count, levels, EXACT_METHODS)
        for m in EXACT_METHODS:
            assert got[m].tobytes() == (want[m][:, 1:] - want[m][:, :1]).tobytes(), m

    @pytest.mark.parametrize("model, forms", [(FBM1, 4), (VarianceFunction.fbm(0.5), 2), (FBM2, 1),
                                              (CONSTANT_JUMPS, 1), (LevyModel.brownian(), 4)])
    def test_side_maxima_once_per_side_and_form(self, model, forms, monkeypatch):
        # one row block: the ratio kernel reads the maxima that the other kernels read;
        # the alpha = 2 line reads its maxima in closed form, and its sums as the matrix's
        calls = []
        running_at = engine.running_at

        def counted(ufunc, side, levels):
            calls.append(ufunc)
            return running_at(ufunc, side, levels)

        monkeypatch.setattr(engine, "running_at", counted)
        worker, *_ = _shared_path_run(model, 0.5, 40, dict(_KERNELS), np.array([8, 16]), seed=5)
        worker(chunk_stream(5, 0), 40)
        assert calls.count(np.maximum) == (0 if model is FBM2 else 2 * forms)
        assert calls.count(np.add) == 2 * forms

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_alpha1_series(self, delta, seed):
        # all five routes on shared paths, as `estimate --method all` runs them
        results, _ = _run_exact(FBM1, delta, 30_000, EXACT_METHODS, None, seed)
        for m in EXACT_METHODS:
            assert results[m].antithetic is True
            assert_within(results[m], alpha1_series(delta))

    def test_multi_chunk_thread_invariance(self, monkeypatch):
        # one level of 2 chunks
        assert len(engine.chunk_plan(40_000, 2 * default_horizon(FBM1, 1.0) + 1)) == 2
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("PICKANDS_THREADS", threads)
            results, _ = _run_exact(FBM1, 1.0, 40_000, EXACT_METHODS, None, 6)
            runs.append({m: r.to_dict() for m, r in results.items()})
        assert runs[0] == runs[1] == runs[2]
        assert "base_horizon" not in runs[0]["exceedance"]


class TestLineReads:
    """On the alpha = 2 line a path is its slope: the shared-path worker reads
    each side from the slopes, and its values equal, byte for byte, those of
    the path matrix drawn on the same chunk stream."""

    LINES = [FBM2, VarianceFunction.power(2.0, 0.5)]
    # delta 1 at the default horizon, and continuous-dy's mesh 0.01 and window 10:
    # 2096 paths of 2001 points, one chunk at that width, in several row blocks of sums
    SHAPES = [(1.0, 20_000, np.array([8, 16])), (0.01, 2096, np.array([500, 1000]))]

    @pytest.mark.parametrize("model", LINES)
    @pytest.mark.parametrize("methods", [EXACT_METHODS, ("exceedance", "difference"), ("time-reversed",),
                                         ("dieker-yakir",)])
    @pytest.mark.parametrize("delta, count, levels", SHAPES)
    def test_worker_is_the_matrix_reference(self, model, methods, delta, count, levels):
        worker, *_ = _shared_path_run(model, delta, count, {m: _KERNELS[m] for m in methods}, levels, seed=5)
        got = worker(chunk_stream(5, 0), count)
        want = form_mean_reference(model, delta, chunk_stream(5, 0), count, levels, methods)
        for m in methods:
            assert got[m].tobytes() == want[m].tobytes(), m

    @pytest.mark.parametrize("model", LINES)
    def test_correction_is_the_matrix_reference(self, model):
        delta, count, levels = 0.25, 3000, np.array([16, 512, 1024])
        worker, *_, stream = _shared_path_run(model, delta, count, {m: _KERNELS[m] for m in EXACT_METHODS},
                                              levels, seed=5, correction=True)
        assert stream == 1
        got = worker(chunk_stream(5, 0, 1), count)
        want = form_mean_reference(model, delta, chunk_stream(5, 0, 1), count, levels, EXACT_METHODS)
        for m in EXACT_METHODS:
            assert got[m].tobytes() == (want[m][:, 1:] - want[m][:, :1]).tobytes(), m

    def test_multi_chunk_thread_invariance(self, monkeypatch):
        # 70000 paths of 33 points: chunks of 65536 and 4464
        assert engine.chunk_plan(70_000, 2 * default_horizon(FBM2, 1.0) + 1) == [65536, 4464]
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("PICKANDS_THREADS", threads)
            results, _ = _run_exact(FBM2, 1.0, 70_000, EXACT_METHODS, None, 6)
            runs.append({m: r.to_dict() for m, r in results.items()})
        assert runs[0] == runs[1] == runs[2]
        assert "antithetic" not in runs[0]["exceedance"]

    def test_mesh_chunk_holds_no_path_matrix(self, peak_bytes):
        delta, count, levels = self.SHAPES[1]
        n = int(levels[-1])
        assert engine.chunk_plan(count, 2 * n + 1) == [count]
        worker, *_ = _shared_path_run(FBM2, delta, count, {"dieker-yakir": _KERNELS["dieker-yakir"]}, levels,
                                      seed=5)
        _, peak = peak_bytes(worker, chunk_stream(5, 0), count)
        # the slopes, a block buffer of exponentials and the reads hold about 1.2 MB
        matrix_bytes = count * (2 * n + 1) * 8  # 33.5 MB
        assert peak < matrix_bytes / 8


class TestTwoLevelPins:
    """A seeded default-horizon two-level run, pinned by float.hex: its base
    and correction runs share one pool, and neither's streams, chunk counts
    nor reduction order moves with that."""

    def test_crosscheck(self, monkeypatch):
        pins = {
            "exceedance": ("0x1.4fdf3b645a1cbp-2", "0x1.ed4f99d444dd4p-7", "0x0.0p+0", "0x0.0p+0"),
            "difference": ("0x1.49a454a18312fp-2", "0x1.4c6ef45b1957bp-7", "0x0.0p+0", "0x0.0p+0"),
            "argmax": ("0x1.4dd2f1a9fbe77p-2", "0x1.e5f74fb69ab43p-7", "0x0.0p+0", "0x0.0p+0"),
            # the ratio's sums of exp(x), unshifted, the negative lags summed in memory
            # order: the correction moved in its last bits (was -0x1.02b9c156f29aap-14,
            # 0x1.627a6fee3a3e0p-16)
            "dieker-yakir": ("0x1.3e450053f20d6p-2", "0x1.f962c56caf7c9p-9",
                             "-0x1.02b9c156f2b64p-14", "0x1.627a6fee3a327p-16"),
            "time-reversed": ("0x1.4ed916872b021p-2", "0x1.e88dfadee9be5p-7", "0x0.0p+0", "0x0.0p+0"),
        }
        for threads in ("1", "2"):
            monkeypatch.setenv("PICKANDS_THREADS", threads)
            report = crosscheck(VarianceFunction.fbm(0.5), 0.5, 1000, seed=3)
            assert {m: (r.estimate.hex(), r.stderr.hex(), r.correction.hex(), r.correction_stderr.hex())
                    for m, r in report.results.items() if m != "definitional"} == pins
            assert {r.base_horizon for m, r in report.results.items() if m != "definitional"} == {1024}
            d = report.results["definitional"]
            assert (d.estimate.hex(), d.stderr.hex()) == ("0x1.60646666b6fd6p-1", "0x1.5ad9a9ea592dap-4")


class TestOneLevelPins:
    """Seeded one-level outputs, pinned by float.hex. The alpha = 2 line and
    jump Levy models draw no antithetic pairs, so theirs are the unpaired bytes."""

    def test_estimate(self):
        res = estimate(FBM2, "exceedance", 1.0, 20_000, seed=5)
        assert (res.estimate.hex(), res.stderr.hex()) == ("0x1.0b8bac710cb29p-1", "0x1.cef315564668bp-9")
        assert res.antithetic is None and "antithetic" not in res.to_dict()

    # the Brownian Levy w is Gaussian, and its sides independent walks: each path is
    # read in its sixteen forms (was 0x1.20aa64c2f837bp-2 +- 0x1.a102646e54b23p-9 and
    # 0x1.1ec899c4836fap-2 +- 0x1.9ae343c6ba01ap-11 read once)
    @pytest.mark.parametrize("method, value, stderr", [
        ("exceedance", "0x1.213a92a305532p-2", "0x1.a57f486d5ea9ap-10"),
        ("dieker-yakir", "0x1.1e34223239aa8p-2", "0x1.3c552a1514feep-12"),
    ], ids=["exceedance", "dieker-yakir"])
    def test_levy_brownian(self, method, value, stderr):
        res = estimate(LevyModel.brownian(), method, 1.0, 20_000, seed=5)
        assert (res.estimate.hex(), res.stderr.hex()) == (value, stderr)
        assert res.antithetic is True

    def test_crosscheck(self):
        report = crosscheck(VarianceFunction.fbm(1.5), 1.0, 5_000, seed=7)
        assert {m: (r.estimate.hex(), r.stderr.hex()) for m, r in report.results.items()} == {
            "exceedance": ("0x1.068db8bac710dp-1", "0x1.0eee6b607810ep-8"),
            "difference": ("0x1.046f3deeb0881p-1", "0x1.1641bd3c483e9p-10"),
            "argmax": ("0x1.06809d495182bp-1", "0x1.44458dc3d2707p-8"),
            "dieker-yakir": ("0x1.04ccbb643a885p-1", "0x1.22a2a3bb55a93p-10"),
            "time-reversed": ("0x1.0617c1bda511ap-1", "0x1.0e91e7735138ep-8"),
            "definitional": ("0x1.ed7332f5113b0p-1", "0x1.1844cf553ad6fp-5"),
        }


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = estimate(FBM1, "exceedance", 1.0, 20_000, seed=5)
        b = estimate(FBM1, "exceedance", 1.0, 20_000, seed=5)
        assert a == b

    def test_thread_count_invariance(self, monkeypatch):
        monkeypatch.setenv("PICKANDS_THREADS", "1")
        a = estimate(VarianceFunction.fbm(1.5), "dieker-yakir", 1.0, 30_000, seed=5)
        monkeypatch.setenv("PICKANDS_THREADS", "4")
        b = estimate(VarianceFunction.fbm(1.5), "dieker-yakir", 1.0, 30_000, seed=5)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_env_thread_override(self, monkeypatch):
        monkeypatch.setenv("PICKANDS_THREADS", "3")
        a = estimate(FBM1, "exceedance", 1.0, 20_000, seed=5)
        monkeypatch.setenv("PICKANDS_THREADS", "1")
        b = estimate(FBM1, "exceedance", 1.0, 20_000, seed=5)
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
    def full_width(w, levels, step):
        """The ratio from full-width running sums and maxima, read at the levels."""
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

    @staticmethod
    def ratio(w, levels, step, forms=1):
        """The ratio kernel on each side's reads of the matched forms of ``w``."""
        n = levels[-1]
        mirror = antithetic_shift(VarianceFunction.fbm(1.5), GridSpec(step, -n, n))
        pos = _read_side(w[:, n + 1:], mirror[n + 1:], forms, levels, True)
        neg = _read_side(w[:, n - 1::-1], mirror[n - 1::-1], forms, levels, True)
        return [_values_ratio(p, q, levels, step) for p, q in zip(pos, neg)]

    def paths(self, rows):
        return gaussian_w_matrix(VarianceFunction.fbm(1.5), GridSpec(0.5, -512, 512), chunk_stream(2, 0), rows)

    @pytest.mark.parametrize("rows", [1, 7, ROWS])
    def test_row_blocks_change_no_value(self, rows, monkeypatch):
        w = self.paths(rows)
        blocked = self.ratio(w, self.LEVELS, 0.5, forms=2)
        monkeypatch.setattr(engine, "ROW_BLOCK_BYTES", 1 << 40)
        assert [v.tobytes() for v in blocked] == [v.tobytes() for v in self.ratio(w, self.LEVELS, 0.5, forms=2)]

    def test_matches_full_width_sums(self):
        # the sums at the levels add pairwise within a segment, the running sums one column at a time
        w = self.paths(self.ROWS)
        np.testing.assert_allclose(self.ratio(w, self.LEVELS, 0.5)[0], self.full_width(w, self.LEVELS, 0.5),
                                   rtol=1e-13, atol=0)

    def test_peak_within_bound(self, peak_bytes):
        # both sides in their two forms, and the kernel on the matched pairs
        w = self.paths(self.ROWS)
        _, peak = peak_bytes(self.ratio, w, self.LEVELS, 0.5, 2)
        assert peak <= 1.5 * w.nbytes
