"""Path models: variance functions, covariance identities, exact samplers."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pickands import models
from pickands.engine import CHUNK_BUDGET, chunk_plan, chunk_stream, run
from pickands.models import (
    GridSpec,
    antithetic_shift,
    JumpLaw,
    LevyModel,
    ModelError,
    VarianceFunction,
    gaussian_b_matrix,
    gaussian_w_matrix,
    increment_autocov,
    laplace_exponent,
    levy_lambda,
    levy_w_matrix,
    side_forms,
    variance_at,
)
from pickands.models import (
    _cached_grid_eigs,
    _cholesky_b_matrix,
    _embedding_eigs,
    _grid_cov,
    _grid_eigs,
    _stationary_sequence,
)


class TestVarianceFunction:
    def test_power_examples(self):
        assert variance_at(VarianceFunction.power(1.0, 2.0), 3.0) == pytest.approx(6.0)
        assert variance_at(VarianceFunction.power(1.3, 5.0), 0.0) == 0.0
        assert variance_at(VarianceFunction.power(2.0, 2.0), 1.5) == pytest.approx(4.5)

    def test_symmetry(self):
        vf = VarianceFunction.fbm(1.5)
        t = np.linspace(-3, 3, 19)
        assert np.allclose(variance_at(vf, t), variance_at(vf, -t))

    def test_fbm_convention(self):
        # the classical family w = sqrt(2) b_a - |t|^a has input variance 2 |t|^a
        assert variance_at(VarianceFunction.fbm(1.0), 2.0) == pytest.approx(4.0)

    def test_tabulated_interpolation_and_range(self):
        vf = VarianceFunction.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert variance_at(vf, 1.5) == pytest.approx(2.5)
        assert variance_at(vf, -1.0) == pytest.approx(1.0)
        with pytest.raises(ModelError):
            variance_at(vf, 3.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ModelError):
            VarianceFunction.fbm(alpha)

    def test_scale_validation(self):
        with pytest.raises(ModelError):
            VarianceFunction.power(1.0, 0.0)


class TestGridCov:
    def test_brownian_grid(self):
        vf = VarianceFunction.power(1.0, 1.0)
        cov = _grid_cov(vf, GridSpec(1.0, 0, 2))
        assert np.allclose(cov, [[0, 0, 0], [0, 1, 1], [0, 1, 2]])

    def test_origin_only(self):
        cov = _grid_cov(VarianceFunction.fbm(1.3), GridSpec(1.0, 0, 0))
        assert cov.shape == (1, 1) and cov[0, 0] == 0.0

    def test_power_15_entries(self):
        # evaluate the increments identity independently
        vf = VarianceFunction.power(1.5, 2.0)
        cov = _grid_cov(vf, GridSpec(1.0, 0, 2))
        s2 = lambda t: 2.0 * abs(t) ** 1.5
        expected = 0.5 * (s2(1) + s2(2) - s2(1))
        assert cov[1, 2] == pytest.approx(expected)
        assert cov[1, 1] == pytest.approx(2.0)
        assert cov[2, 2] == pytest.approx(2.0 * 2**1.5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_psd(self, alpha):
        cov = _grid_cov(VarianceFunction.fbm(alpha), GridSpec(0.5, -8, 8))
        w = np.linalg.eigvalsh(cov)
        assert w[0] >= -1e-8 * np.trace(cov)

    def test_invalid_variance_rejected(self):
        # |t|^3 correlations exceed 1 between increments: the embedding has
        # negative eigenvalues and the Cholesky factorisation fails
        t = np.linspace(0.0, 8.0, 33)
        vf = VarianceFunction.tabulated(t, t**3)
        for sampler in (_cholesky_b_matrix, gaussian_b_matrix):
            with pytest.raises(ModelError, match="Cholesky"):
                sampler(vf, GridSpec(1.0, 0, 4), np.random.default_rng(0), 10)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0, 1)
        with pytest.raises(ValueError):
            GridSpec(1.0, 1, 2)

    def test_times(self):
        g = GridSpec(0.5, -2, 3)
        assert np.allclose(g.times(), [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
        assert g.origin == 2


def _cov_z(b, theo, n):
    """|empirical - theoretical| in units of the entrywise Monte Carlo SE."""
    emp = (b.T @ b) / n
    se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo**2) / n)
    mask = se > 0
    return np.abs(emp - theo)[mask] / se[mask]


def _assert_entrywise(z):
    # per-entry 3 SE, with a cap guarding the max over many entries
    assert np.mean(z <= 3.0) >= 0.99
    assert z.max() < 4.5


class TestGaussianSampler:
    N = 120_000

    def test_small_grid_within_3se(self):
        # Brownian on {1, 2}: covariance min(s, t), entrywise within 3 SE
        vf = VarianceFunction.power(1.0, 1.0)
        grid = GridSpec(1.0, 0, 2)
        b = gaussian_b_matrix(vf, grid, np.random.default_rng(11), self.N)
        z = _cov_z(b, _grid_cov(vf, grid), self.N)
        assert z.max() < 3.0

    @pytest.mark.parametrize("alpha,method", [
        (0.5, "auto"), (1.0, "auto"), (1.5, "auto"), (2.0, "auto"), (1.5, "cholesky"),
    ])
    def test_sample_covariance(self, alpha, method):
        vf = VarianceFunction.fbm(alpha)
        grid = GridSpec(0.5, -3, 4)
        theo = _grid_cov(vf, grid)
        sampler = _cholesky_b_matrix if method == "cholesky" else gaussian_b_matrix
        b = sampler(vf, grid, np.random.default_rng(2), self.N)
        _assert_entrywise(_cov_z(b, theo, self.N))

    def test_embedding_matches_cholesky(self):
        # <= 32-point grid, both samplers against each other in combined SE units
        vf = VarianceFunction.fbm(1.5)
        grid = GridSpec(0.5, -15, 16)
        theo = _grid_cov(vf, grid)
        n = 100_000
        b1 = gaussian_b_matrix(vf, grid, np.random.default_rng(1), n)  # embedding at alpha = 1.5
        b2 = _cholesky_b_matrix(vf, grid, np.random.default_rng(2), n)
        diff = (b1.T @ b1) / n - (b2.T @ b2) / n
        se = np.sqrt(2.0 * (np.outer(np.diag(theo), np.diag(theo)) + theo**2) / n)
        mask = se > 0
        z = np.abs(diff[mask]) / se[mask]
        _assert_entrywise(z)

    def test_w_zero_at_origin(self):
        vf = VarianceFunction.fbm(1.5)
        grid = GridSpec(1.0, -4, 4)
        w = gaussian_w_matrix(vf, grid, np.random.default_rng(3), 1)[0]
        assert w[grid.origin] == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_martingale_normalization(self, alpha):
        vf = VarianceFunction.fbm(alpha)
        grid = GridSpec(1.0, -2, 2)
        x = np.exp(gaussian_w_matrix(vf, grid, np.random.default_rng(4), self.N))
        se = x.std(axis=0) / np.sqrt(self.N)
        assert np.all(np.abs(x.mean(axis=0) - 1.0) <= 3.0 * np.maximum(se, 1e-12))

    def test_determinism(self):
        vf = VarianceFunction.fbm(0.7)
        grid = GridSpec(0.25, -5, 9)
        a = gaussian_w_matrix(vf, grid, chunk_stream(9, 0), 1)[0]
        b = gaussian_w_matrix(vf, grid, chunk_stream(9, 0), 1)[0]
        assert np.array_equal(a, b)


class TestAntitheticShift:
    GRID = GridSpec(0.5, -6, 5)

    @pytest.mark.parametrize("vf", [
        VarianceFunction.fbm(0.5), VarianceFunction.fbm(1.0), VarianceFunction.power(1.5, 3.0),
        VarianceFunction.tabulated([0.0, 1.0, 4.0], [0.0, 0.7, 1.9]),
    ])
    def test_row_is_minus_the_variance(self, vf):
        shift = antithetic_shift(vf, self.GRID)
        expected = -variance_at(vf, self.GRID.times())
        expected[self.GRID.origin] = 0.0
        assert shift.tobytes() == expected.tobytes()
        # a positive zero, so the mirrored origin is 0.0 - 0.0 = 0.0
        assert not np.signbit(shift[self.GRID.origin])

    @pytest.mark.parametrize("model", [VarianceFunction.fbm(2.0), VarianceFunction.power(2.0, 0.5),
                                       LevyModel(0.5, 1.0, JumpLaw("normal", mean=0.2, sd=0.7)),
                                       LevyModel(0.5, 0.2, JumpLaw("exponential", rate=1.5))])
    def test_none_where_pairs_do_not_apply(self, model):
        assert antithetic_shift(model, self.GRID) is None

    @pytest.mark.parametrize("diffusion", [1.0, 0.7])
    def test_brownian_levy_row_is_minus_its_variance(self, diffusion):
        # with no jumps w is the Gaussian path with sigma^2(t) = diffusion^2 |t| on both sides
        shift = antithetic_shift(LevyModel.brownian(diffusion), self.GRID)
        expected = -variance_at(VarianceFunction.power(1.0, diffusion**2), self.GRID.times())
        expected[self.GRID.origin] = 0.0
        np.testing.assert_allclose(shift, expected, rtol=1e-15, atol=0)
        assert shift[self.GRID.origin] == 0.0 and not np.signbit(shift[self.GRID.origin])

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_mirror_is_a_martingale(self, alpha):
        # -w - sigma^2 is w of -b, so E exp of it is 1 at every lag, origin exactly 0
        vf = VarianceFunction.fbm(alpha)
        w = gaussian_w_matrix(vf, self.GRID, np.random.default_rng(5), TestGaussianSampler.N)
        np.subtract(antithetic_shift(vf, self.GRID), w, out=w)
        assert np.all(w[:, self.GRID.origin] == 0.0)
        x = np.exp(w)
        se = x.std(axis=0) / np.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0) - 1.0) <= 3.0 * np.maximum(se, 1e-12))


class TestSideForms:
    """At alpha = 1 a side of w is read in four forms: x, -x - sigma^2, the
    reversal x(n) - x(n - k) and its mirror. Each must have the law of x."""

    GRID = GridSpec(0.5, 0, 6)

    @staticmethod
    def forms(x, mirror):
        return [f.copy() for f in side_forms(x, mirror, 4, np.empty_like(x))]

    @pytest.mark.parametrize("vf", [VarianceFunction.fbm(1.0), VarianceFunction.power(1.0, 0.5)])
    def test_grid_mean_and_covariance(self, vf):
        # each form is affine in x, form(x) = x A^T + c: its mean is the form of the
        # mean, its covariance A C A^T, and E exp(form) = exp(mean + variance / 2)
        assert models.independent_sides(vf)
        n = self.GRID.i_max
        s = variance_at(vf, self.GRID.times()[1:])
        cov = _grid_cov(vf, self.GRID)[1:, 1:]
        at_mean, at_zero, at_units = (self.forms(x, -s) for x in (-0.5 * s[None, :], np.zeros((1, n)), np.eye(n)))
        for mean, zero, units in zip(at_mean, at_zero, at_units):
            a = (units - zero).T
            form_cov = a @ cov @ a.T
            np.testing.assert_allclose(mean[0], -0.5 * s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(form_cov, cov, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mean[0] + 0.5 * np.diag(form_cov), 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("vf", [VarianceFunction.fbm(1.0), VarianceFunction.power(1.0, 0.5),
                                    LevyModel.brownian(0.7)])
    def test_exp_of_each_form_is_a_martingale(self, vf):
        grid = GridSpec(0.5, -6, 6)
        w = models.w_matrix(vf, grid, np.random.default_rng(6), TestGaussianSampler.N)
        mirror = antithetic_shift(vf, grid)
        for x, row in ((w[:, 7:], mirror[7:]), (w[:, 5::-1], mirror[5::-1])):
            for form in self.forms(x, row):
                e = np.exp(form)
                se = e.std(axis=0) / np.sqrt(e.shape[0])
                assert np.all(np.abs(e.mean(axis=0) - 1.0) <= 3.0 * se)

    def test_reversal_reads_the_far_end(self):
        x = np.array([[1.0, -2.0, 4.0]])
        mirror = np.array([-1.0, -2.0, -3.0])
        assert [f.tolist() for f in self.forms(x, mirror)] == [
            [[1.0, -2.0, 4.0]], [[-2.0, 0.0, -7.0]], [[6.0, 3.0, 4.0]], [[-7.0, -5.0, -7.0]]]

    def test_brownian_levy_forms_have_its_covariance(self):
        # each side of the Brownian Levy w, in each form, has the grid covariance of
        # the Gaussian with sigma^2(t) = diffusion^2 |t|, and the sides are independent
        model, grid = LevyModel.brownian(0.7), GridSpec(0.5, -6, 6)
        assert models.independent_sides(model)
        w = models.w_matrix(model, grid, np.random.default_rng(7), TestGaussianSampler.N)
        mirror = antithetic_shift(model, grid)
        cov = _grid_cov(VarianceFunction.power(1.0, 0.49), GridSpec(0.5, 0, 6))[1:, 1:]
        for x, row in ((w[:, 7:], mirror[7:]), (w[:, 5::-1], mirror[5::-1])):
            for form in self.forms(x, row):
                np.testing.assert_allclose(np.cov(form, rowvar=False), cov, rtol=0, atol=0.03)
        cross = np.cov(w[:, 7:], w[:, 5::-1], rowvar=False)[:6, 6:]
        assert np.abs(cross).max() <= 0.03

    @pytest.mark.parametrize("model", [VarianceFunction.fbm(0.5), VarianceFunction.fbm(2.0),
                                       VarianceFunction.tabulated([0.0, 1.0], [0.0, 2.0]),
                                       LevyModel(0.5, 0.3, JumpLaw("constant", value=0.4))])
    def test_other_models_have_dependent_sides(self, model):
        assert not models.independent_sides(model)


class TestLineMaxima:
    """On the alpha = 2 line a side x(k) = c t_k - drop_k is a concave parabola
    in k: its running maxima in closed form equal the path matrix's bit for bit."""

    class FixedNormals:
        """A generator stand-in whose normals are given: the line's draw is
        ``standard_normal((n, 1))``."""

        def __init__(self, z):
            self.z = np.asarray(z, dtype=float)

        def standard_normal(self, shape):
            return self.z.reshape(shape)

    @staticmethod
    def normals(vf, delta, n):
        """Normals whose vertex c / (scale delta), c = sqrt(scale) z, lies at the
        origin, on integers, on half-integers, at and beyond the horizon on
        either side; |z| = 40; and a random sample."""
        k = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 5.0, n / 4, n / 4 + 0.5, n / 2 - 0.5, n - 0.5, n, n + 0.5,
                      n + 3, 10.0 * n])
        z = np.concatenate([k, -k]) * np.sqrt(vf.scale) * delta
        return np.concatenate([z, [40.0, -40.0], np.random.default_rng(3).standard_normal(500)])

    @pytest.mark.parametrize("vf", [VarianceFunction.fbm(2.0), VarianceFunction.power(2.0, 4.0)])
    @pytest.mark.parametrize("delta, n", [(1.0, 16), (0.01, 1000)])
    def test_matrix_running_maxima(self, vf, delta, n):
        z = self.normals(vf, delta, n)
        grid = GridSpec(delta, -n, n)
        w = gaussian_w_matrix(vf, grid, self.FixedNormals(z), z.size)
        c = models.line_slopes(vf, self.FixedNormals(z), z.size)
        t, half = grid.times(), 0.5 * variance_at(vf, grid.times())
        levels = np.arange(1, n + 1)
        for side in (slice(n + 1, None), slice(n - 1, None, -1)):
            want = np.maximum.accumulate(w[:, side], axis=1)
            got = models.line_maxima(c, t[side], half[side], 0.5 * vf.scale, levels)
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous


LEVY_LAWS = {
    "brownian": LevyModel.brownian(),
    "normal": LevyModel(0.5, 1.0, JumpLaw("normal", mean=0.2, sd=0.7)),
    "exponential": LevyModel(0.5, 0.2, JumpLaw("exponential", rate=1.5)),
    "constant": LevyModel(0.5, 0.3, JumpLaw("constant", value=0.4)),
}


class TestSamplerMemory:
    # 200 paths of 4097 points: the embedding draws its real parts into the
    # array it returns, the i.i.d. branch holds only row blocks of normals
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_peak_within_bound(self, alpha, peak_bytes):
        vf = VarianceFunction.fbm(alpha)
        grid = GridSpec(0.5, -2048, 2048)
        w, peak = peak_bytes(gaussian_w_matrix, vf, grid, chunk_stream(1, 0), 200)
        assert peak <= 1.6 * w.nbytes

    def test_levy_peak_within_bound(self, peak_bytes):
        # one side's increments at a time, summed in place into the path
        grid = GridSpec(1.0, -2048, 2048)
        w, peak = peak_bytes(levy_w_matrix, LevyModel.brownian(), grid, chunk_stream(1, 0), 200)
        assert peak <= 1.6 * w.nbytes

    @pytest.mark.parametrize("name", ["normal", "exponential", "constant"])
    def test_levy_jump_peak_within_bound(self, name, peak_bytes):
        # the jump counts and draws are built in place, next to the increments
        grid = GridSpec(1.0, -2048, 2048)
        w, peak = peak_bytes(levy_w_matrix, LEVY_LAWS[name], grid, chunk_stream(1, 0), 200)
        assert peak <= 3.0 * w.nbytes


def _expression_increments(diffusion, jump_rate, jump_law, dt, rng, shape):
    """The Levy increments as whole-array expressions, each term a new array."""
    inc = rng.standard_normal(shape) * (diffusion * np.sqrt(dt))
    if jump_rate > 0:
        counts = rng.poisson(jump_rate * dt, shape).astype(float)
        if jump_law.kind == "constant":
            inc += jump_law.value * counts
        elif jump_law.kind == "normal":
            z = rng.standard_normal(shape)
            inc += jump_law.mean * counts + jump_law.sd * np.sqrt(counts) * z
        else:
            inc += rng.gamma(shape=counts, scale=1.0 / jump_law.rate)
    return inc


def _two_array_sequence(eigs, rng, n, m):
    """The embedding drawn into an array of real parts and a separate output."""
    length = eigs.size
    rows = (n + 1) // 2
    real = rng.standard_normal((rows, length))
    z = np.empty((rows, length), dtype=complex)
    z.real = real
    z.imag = rng.standard_normal((rows, length))
    z *= np.sqrt(eigs / length)
    np.fft.fft(z, axis=1, out=z)
    out = np.empty((n, m))
    out[0::2] = z.real[:, :m]
    out[1::2] = z.imag[:n // 2, :m]
    return out


class TestStationarySequence:
    # n = 235 at m = 16384 ends in a block of 6 complex rows after blocks of 4,
    # n = 52429 at m = 5 splits into two blocks; odd n leaves one imaginary part unused
    @pytest.mark.parametrize("m, n", [(5, 1), (5, 2), (5, 7), (5, 52429),
                                      (16384, 1), (16384, 2), (16384, 7), (16384, 235)])
    def test_equals_two_array_reference(self, m, n):
        eigs = _grid_eigs(VarianceFunction.fbm(0.5), 0.5, m)
        got = _stationary_sequence(eigs, np.random.default_rng(m + n), n, m)
        assert got.shape == (n, m + 1)
        assert np.array_equal(got[:, 1:], _two_array_sequence(eigs, np.random.default_rng(m + n), n, m))


class TestEmbeddingCache:
    def test_concurrent_lookups_survive_clears(self):
        # 100 keys overflow the 64-entry cache, so lookups race with evictions
        keys = [(VarianceFunction("power" if k % 2 else "scaled-power", alpha=0.5 + k % 16 / 10, scale=1.0 + k % 3),
                 1.0, 8 + k % 7) for k in range(100)]
        expected = [_embedding_eigs(increment_autocov(vf, d, n)) for vf, d, n in keys]
        _cached_grid_eigs.cache_clear()

        def sweep(offset):
            for r in range(20):
                for i in range(len(keys)):
                    k = (i + offset + r) % len(keys)
                    got = _grid_eigs(*keys[k])
                    assert not got.flags.writeable
                    assert np.array_equal(got, expected[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(sweep, range(0, 100, 25), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert _cached_grid_eigs.cache_info().currsize <= 64

    def test_tabulated_eigs_computed_once_per_run(self, monkeypatch):
        # a multi-chunk run on three threads: chunks that start together must
        # not each compute the embedding
        calls = []

        def counting(gamma):
            calls.append(gamma.size)
            return _embedding_eigs(gamma)

        monkeypatch.setattr(models, "_embedding_eigs", counting)
        t = np.linspace(0.0, 200.0, 2001)
        vf = VarianceFunction.tabulated(t, 2.0 * t**0.8)
        grid = GridSpec(1.0, -64, 64)
        n_cols = CHUNK_BUDGET // 16  # chunks of 16 rows
        assert len(chunk_plan(64, n_cols)) == 4

        def worker(rng, count):
            return gaussian_w_matrix(vf, grid, rng, count)[:, -1]

        monkeypatch.setenv("PICKANDS_THREADS", "3")
        run(worker, 1, 64, n_cols)
        assert calls == [grid.n_points]


class TestLevy:
    @pytest.mark.parametrize("law", [
        JumpLaw("constant", value=0.7),
        JumpLaw("normal", mean=0.2, sd=0.7),
        JumpLaw("exponential", rate=1.5),
    ])
    def test_tilted_law_mgf(self, law):
        # Esscher tilt by 1: E' exp(theta J) = E exp((theta + 1) J) / E exp(J)
        tilted = law.tilted()
        for theta in (-1.0, -0.3, 0.2):
            assert tilted.mgf(theta) == pytest.approx(law.mgf(theta + 1.0) / law.mgf(1.0))

    def test_laplace_exponent_examples(self):
        assert laplace_exponent(LevyModel.brownian(), 1.0) == pytest.approx(0.5)
        cp = LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("constant", value=1.0))
        assert laplace_exponent(cp, 1.0) == pytest.approx(np.e - 1.0)
        assert laplace_exponent(cp, 0.0) == 0.0

    def test_exponential_jump_mgf_domain(self):
        m = LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("exponential", rate=2.0))
        assert laplace_exponent(m, 1.0) == pytest.approx(2.0 / (2.0 - 1.0) - 1.0)
        with pytest.raises(ModelError):
            laplace_exponent(m, 2.0)

    def test_mgf_infinite_at_one_rejected(self):
        with pytest.raises(ModelError):
            LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("exponential", rate=0.5))

    @pytest.mark.parametrize("model", [
        LevyModel.brownian(),
        LevyModel(diffusion=0.5, jump_rate=2.0, jump_law=JumpLaw("normal", mean=0.1, sd=0.3)),
        LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("constant", value=1.0)),
        LevyModel(diffusion=0.0, jump_rate=3.0, jump_law=JumpLaw("exponential", rate=4.0)),
    ])
    def test_lambda_nonnegative(self, model):
        assert levy_lambda(model) >= 0.0

    @pytest.mark.parametrize("model", [
        LevyModel(diffusion=0.5, jump_rate=1.0, jump_law=JumpLaw("normal", mean=0.2, sd=0.7)),
        # E exp(2 J) is infinite: the tilted law on negative lags must not need it
        LevyModel(diffusion=0.5, jump_rate=0.2, jump_law=JumpLaw("exponential", rate=1.5)),
        LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("constant", value=1.0)),
    ], ids=["normal-jumps", "exponential-jumps", "constant-jumps"])
    def test_negative_lags_martingale(self, model):
        # E exp(w(-s)) = exp(s Phi(1)) E exp(-V(s)) = 1 under the Esscher-tilted V
        n = 120_000
        w = levy_w_matrix(model, GridSpec(0.5, -3, 1), np.random.default_rng(8), n)
        assert np.all(w[:, 3] == 0.0)
        x = np.exp(w[:, :3])
        se = x.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - 1.0) <= 3.0 * se)

    def test_positive_lags_drawn_first(self):
        # a two-sided draw extends the one-sided draw of the same stream
        model = LevyModel(diffusion=0.5, jump_rate=1.0, jump_law=JumpLaw("normal", mean=0.2, sd=0.7))
        one = levy_w_matrix(model, GridSpec(0.5, 0, 6), np.random.default_rng(9), 50)
        two = levy_w_matrix(model, GridSpec(0.5, -4, 6), np.random.default_rng(9), 50)
        assert np.array_equal(two[:, 4:], one)

    def test_path_moments(self):
        n = 120_000
        w = levy_w_matrix(LevyModel.brownian(), GridSpec(1.0, 0, 2), np.random.default_rng(5), n)
        assert np.all(w[:, 0] == 0.0)
        x = np.exp(w[:, 1])
        assert abs(x.mean() - 1.0) <= 3.0 * x.std() / np.sqrt(n)
        assert abs(w[:, 1].mean() + 0.5) <= 3.0 * w[:, 1].std() / np.sqrt(n)

    def test_compound_poisson_martingale(self):
        n = 120_000
        cp = LevyModel(diffusion=0.0, jump_rate=1.0, jump_law=JumpLaw("constant", value=1.0))
        w = levy_w_matrix(cp, GridSpec(0.5, 0, 3), np.random.default_rng(6), n)
        x = np.exp(w)
        se = x.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - 1.0) <= 3.0 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("name", sorted(LEVY_LAWS))
    def test_in_place_increments_equal_expressions(self, name, monkeypatch):
        # both sides, the negative ones under the tilted law
        grid = GridSpec(0.5, -300, 300)
        got = levy_w_matrix(LEVY_LAWS[name], grid, np.random.default_rng(4), 50)
        monkeypatch.setattr(models, "_levy_increments", _expression_increments)
        assert np.array_equal(got, levy_w_matrix(LEVY_LAWS[name], grid, np.random.default_rng(4), 50))

    def test_exponential_jump_sampler(self):
        n = 120_000
        m = LevyModel(diffusion=0.0, jump_rate=2.0, jump_law=JumpLaw("exponential", rate=4.0))
        w = levy_w_matrix(m, GridSpec(1.0, 0, 1), np.random.default_rng(7), n)
        x = np.exp(w[:, 1])
        assert abs(x.mean() - 1.0) <= 3.0 * x.std() / np.sqrt(n)
