"""Simulation of the associated max-stable process and extremal-index
estimators that go through its law rather than through w directly.

The process is zeta(t) = max_i P_i exp(w_i(t)) where the P_i = 1 / Gamma_i
are the points of a Poisson process with intensity x^-2 dx on (0, inf)
(Gamma_i partial sums of unit exponentials) and the w_i are independent
path copies. Finite-dimensional laws satisfy

    P{zeta(t_j) <= x_j for all j} = exp(-E max_j exp(w(t_j)) / x_j),

which provides an independent oracle for the simulator. The simulator is
exact on a finite grid: it draws only the extremal functions, the atoms that
attain zeta at some grid point (Dombry, Engelke and Oesting 2016), at an
expected cost of one spectral path per grid point and sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .estimators import EstimateResult, estimate
from .models import GridSpec, Model, w_matrix

__all__ = [
    "FddEstimate",
    "max_stable_batch",
    "fdd_probability",
    "est_extremal_index_blocks",
    "est_candidate_theta",
]


def max_stable_batch(model: Model, grid: GridSpec, rng: np.random.Generator,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent exact draws of zeta on the grid.

    Returns (zeta, draws), draws being the number of spectral paths each
    sample used. Extremal-function algorithm (Dombry, Engelke and Oesting
    2016): at each grid point t_j in turn, a sample walks the weights
    1/Gamma of a fresh Poisson process while they exceed zeta(t_j), draws a
    path Y from the law of exp(w) tilted at t_j (so Y(t_j) = 1) and keeps
    Y / Gamma if it stays below zeta at every earlier point; a kept path
    sets zeta(t_j) = 1/Gamma and so ends the walk. The expected number of
    draws per sample equals the number of grid points.

    By Brown-Resnick stationarity the tilted path is Y = exp(w(. - t_j)),
    one two-sided path on the lags -j..npts-1-j.
    """
    npts = grid.n_points
    zeta = np.zeros((count, npts))
    draws = np.zeros(count, dtype=int)
    for j in range(npts):
        active = np.arange(count)
        gamma = rng.exponential(size=count)
        while True:
            go = 1.0 / gamma > zeta[active, j]
            active, gamma = active[go], gamma[go]
            if not active.size:
                break
            draws[active] += 1
            y = np.exp(w_matrix(model, GridSpec(grid.delta, -j, npts - 1 - j), rng, active.size))
            y /= gamma[:, None]
            keep = np.all(y[:, :j] < zeta[active, :j], axis=1)
            zeta[active[keep]] = np.maximum(zeta[active[keep]], y[keep])
            gamma += rng.exponential(size=gamma.size)
    return zeta, draws


@dataclass(frozen=True)
class FddEstimate:
    """Monte Carlo evaluation of a finite-dimensional law of zeta."""

    probability: float
    stderr: float
    reps: int


def fdd_probability(
    model: Model,
    points: list[float],
    thresholds: list[float],
    reps: int,
    *,
    seed: int = 0,
) -> FddEstimate:
    """P{zeta(t_j) <= x_j for all j} = exp(-E max_j exp(w(t_j)) / x_j).

    The exponent is estimated by Monte Carlo and the standard error of the
    probability follows by the delta method. The plain average of the
    lognormal (or heavy-tailed Levy) max is replaced by the shift-invariant
    rewrite of est_extremal_index_blocks,

        E max_j x(t_j) / x_j = sum_k E[ max_j Y_k(t_j) / x_j
                                        / (x_k sum_i Y_k(t_i) / x_i) ],

    Y_k being x under the law tilted at t_k (weighted by x(t_k)), whose
    per-replication value is bounded by sum_k 1 / x_k. By Brown-Resnick
    stationarity Y_k(t_k + s) = exp(w(s)) in law for every k, so every Y_k
    is read off one two-sided path of w on the lags -span..span.
    """
    t = np.asarray(points, dtype=float)
    x = np.asarray(thresholds, dtype=float)
    if t.shape != x.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("points and thresholds must be matching nonempty vectors")
    if len(set(t.tolist())) != t.size:
        raise ValueError("points must be distinct")
    if np.any(x <= 0):
        raise ValueError("thresholds must be positive")
    grid, cols = _containing_grid(t)
    span = int(cols.max() - cols.min())
    grid = GridSpec(grid.delta, -span, span)
    windows = [cols - c + span for c in cols]

    @engine.by_row_blocks
    def values(w):
        # one row per time for fast reductions over times; every window holds
        # lag 0, where Y_k = 1, so no sum vanishes
        e = np.exp(w.T, order="C")
        m = np.zeros(w.shape[0])
        for k, window in enumerate(windows):
            y = e[window] / x[:, None]
            m += y.max(axis=0) / (x[k] * y.sum(axis=0))
        return m

    def worker(rng, count):
        return values(w_matrix(model, grid, rng, count))

    mean, se = engine.run(worker, seed, reps, grid.n_points)
    prob = math.exp(-mean[0])
    return FddEstimate(prob, prob * float(se[0]), reps)


def _containing_grid(times: np.ndarray) -> tuple[GridSpec, np.ndarray]:
    """Smallest uniform grid holding all requested times (exactly)."""
    if np.allclose(times, 0.0):
        return GridSpec(1.0, 0, 0), np.zeros(times.size, dtype=int)
    nonzero = np.abs(times[times != 0.0])
    step = float(np.min(nonzero))
    idx = times / step
    if not np.allclose(idx, np.round(idx), atol=1e-9):
        # fall back to the coarsest common refinement via rational rounding
        step = float(np.gcd.reduce(np.round(nonzero * 1e6).astype(np.int64))) / 1e6
        idx = times / step
        if not np.allclose(idx, np.round(idx), atol=1e-6):
            raise ValueError("points must lie on a common uniform grid")
    idx = np.round(idx).astype(int)
    i_min, i_max = min(int(idx.min()), 0), max(int(idx.max()), 0)
    grid = GridSpec(step, i_min, i_max)
    return grid, idx - i_min


def est_extremal_index_blocks(
    model: Model,
    delta: float,
    n: int,
    reps: int,
    *,
    r_n: int | None = None,
    seed: int = 0,
) -> EstimateResult:
    """Block formula theta = lim (n / r_n) P{max over a block of zeta > n}.

    An atom of weight p triggers the block exceedance exactly when
    p * sup_t exp(w(t)) > n, so the triggering atoms form a Poisson process
    of total mass E[sup exp(w)] / n and the block probability is exactly

        P{max zeta > n} = 1 - exp(-E[sup_{t in block} exp(w(t))] / n).

    The sup expectation cannot be averaged naively (its mass is carried by
    extremely rare, extremely high paths), so it is rewritten through the
    shift invariance of the Brown-Resnick field as

        E sup_{i in A} x(i) = sum_{j in A} E[ sup_{i in A} x(i - j)
                                              / sum_{k in A} x(k - j) ],

    whose per-replication value is bounded by |A|; one two-sided path on
    [-r_n, r_n] evaluates every shifted ratio, each window read outward
    from the centre column it holds. Defaults to r_n = floor(sqrt(n)).
    """
    if delta <= 0 or n < 2:
        raise ValueError("need delta > 0 and n >= 2")
    if r_n is None:
        r_n = int(math.isqrt(n))
    if not 1 <= r_n < n:
        raise ValueError("r_n must satisfy 1 <= r_n < n")
    grid = GridSpec(delta, -r_n, r_n)

    def worker(rng, count):
        return _block_sup_values(w_matrix(model, grid, rng, count), r_n)

    mean, se = engine.run(worker, seed, reps, grid.n_points)
    c_hat, c_se = float(mean[0]), float(se[0])
    p_hat = -math.expm1(-c_hat / n)
    theta = (n / r_n) * p_hat
    se = math.exp(-c_hat / n) * c_se / r_n
    flags = ("wide-ci",) if p_hat * reps < 30 else ()
    return EstimateResult("theta-blocks", delta, theta, se, reps, r_n, True, seed, flags=flags)


def _boundary_corrected_theta(model: Model, delta: float, r: int, reps: int, *,
                              seed: int = 0) -> EstimateResult:
    """Block statistic theta = (c(2r) - c(r)) / r, c(m) = E sup_{0<=i<=m} exp(w(delta i)).

    c(m) = theta m + b + o(1), so the difference cancels the boundary term b
    that biases the block formula's c(r) / r by O(1/r). Both sups come from
    one two-sided path on [-2r, 2r], c(r) from its central window [-r, r].
    """
    if r < 1:
        raise ValueError("need r >= 1")
    grid = GridSpec(delta, -2 * r, 2 * r)

    def worker(rng, count):
        w = w_matrix(model, grid, rng, count)
        return (_block_sup_values(w, 2 * r) - _block_sup_values(w[:, r:3 * r + 1], r)) / r

    mean, se = engine.run(worker, seed, reps, grid.n_points)
    return EstimateResult("theta-blocks", delta, float(mean[0]), float(se[0]), reps, r, True, seed,
                          flags=("boundary-corrected",))


@engine.by_row_blocks
def _block_sup_values(w: np.ndarray, r: int) -> np.ndarray:
    """Per-path estimates of E sup_{0<=i<=r} exp(w(delta i)) from a path on [-r, r].

    Every window of r + 1 columns holds the centre column r, so its maximum
    is the larger of the running maxima from the centre out to its two ends.
    """
    shift = w.max(axis=1, keepdims=True)
    e = np.exp(w - shift)
    csum = np.concatenate([np.zeros((w.shape[0], 1)), np.cumsum(e, axis=1)], axis=1)
    width = r + 1
    sums = csum[:, width:] - csum[:, :-width]          # window sums, start = 0..r
    # window maxima, start s = 0..r: columns s..r on the left, r..s + r on the
    # right; C order, so that the ratios below are C-ordered and each row adds
    # in the same order whatever the number of rows
    left = np.maximum.accumulate(w[:, r::-1], axis=1)[:, ::-1]
    maxes = np.maximum.accumulate(w[:, r:], axis=1)
    np.maximum(left, maxes, out=maxes)
    maxes -= shift
    # the window starting at column r - j covers grid indices (0..r) - j,
    # so summing the ratio over all r + 1 starts sums over all shifts j
    return (np.exp(maxes) / sums).sum(axis=1)


def est_candidate_theta(
    model: Model,
    delta: float,
    reps: int,
    *,
    horizon: int | None = None,
    seed: int = 0,
) -> EstimateResult:
    """theta = lim_m P{max_{1<=i<=m} y(i) <= 1} for the tail process y.

    Writing y(i) = exp(E + w(delta i)) with E = ln(P) unit exponential,
    the event coincides with the exceedance formula's, so the estimate is
    exactly delta times the exceedance estimate under a shared seed.
    """
    base = estimate(model, "exceedance", delta, reps, horizon=horizon, seed=seed)
    tail = {}
    if base.base_horizon is not None:
        tail = {"correction": delta * base.correction, "correction_stderr": delta * base.correction_stderr}
    return replace(base, method="theta-candidate", estimate=delta * base.estimate,
                   stderr=delta * base.stderr, **tail)


def frechet_cdf(x: np.ndarray) -> np.ndarray:
    """Unit Frechet distribution function exp(-1/x), x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out
