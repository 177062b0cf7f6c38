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
from dataclasses import dataclass

import numpy as np

from . import engine
from .estimators import EstimateResult, TruncationPolicy, est_exceedance
from .models import (
    GridSpec,
    Model,
    UnsupportedModelError,
    is_gaussian,
    laplace_exponent,
    levy_increments,
    w_matrix,
)

__all__ = [
    "TailProcessSample",
    "FddEstimate",
    "max_stable_batch",
    "fdd_probability",
    "est_extremal_index_blocks",
    "sample_tail_process",
    "est_candidate_theta",
]


@dataclass
class TailProcessSample:
    """One draw of the tail process y(i) = P * exp(w(delta i)), P unit Pareto."""

    grid: GridSpec
    y: np.ndarray
    pareto: float


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
    """
    if not is_gaussian(model) and grid.i_min < 0:
        raise UnsupportedModelError("the Levy construction is defined for t >= 0 only")
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
            y = np.exp(_tilted_log_paths(model, grid.delta, npts, j, rng, active.size))
            y /= gamma[:, None]
            keep = np.all(y[:, :j] < zeta[active, :j], axis=1)
            zeta[active[keep]] = np.maximum(zeta[active[keep]], y[keep])
            gamma += rng.exponential(size=gamma.size)
    return zeta, draws


def _tilted_log_paths(
    model: Model, delta: float, npts: int, j: int, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n draws of log Y at grid points 0..npts-1, Y ~ exp(w) tilted at point j.

    Gaussian: by Brown-Resnick stationarity Y = exp(w(. - t_j)), read off one
    two-sided path on lags -(npts-1)..npts-1. Levy: Y = exp(w(. - t_j)) from
    t_j on; before it, log Y(t_j - s) = s Phi(1) - V(s) where V is the Esscher
    tilt by 1 of the input (exponent Phi(1 + theta) - Phi(1)): drift sigma^2,
    jump rate lambda E e^J and tilted jump law. Phi of the tilted law is not
    needed (its Phi(1) = Phi(2) - Phi(1) may be infinite).
    """
    if is_gaussian(model):
        w = w_matrix(model, GridSpec(delta, -(npts - 1), npts - 1), rng, n)
        return w[:, npts - 1 - j:2 * npts - 1 - j]
    out = np.empty((n, npts))
    out[:, j:] = w_matrix(model, GridSpec(delta, 0, npts - 1 - j), rng, n)
    if j:
        jumps = model.jump_rate > 0
        rate = model.jump_rate * model.jump_law.mgf(1.0) if jumps else 0.0
        law = model.jump_law.tilted() if jumps else None
        inc = levy_increments(model.diffusion, rate, law, delta, rng, (n, j))
        s = delta * np.arange(1, j + 1)
        v = np.cumsum(inc, axis=1) + model.diffusion**2 * s
        out[:, j - 1::-1] = laplace_exponent(model, 1.0) * s - v
    return out


@dataclass(frozen=True)
class FddEstimate:
    """Monte Carlo evaluation of a finite-dimensional law of zeta."""

    probability: float
    stderr: float
    exponent: float
    exponent_stderr: float
    replications: int

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "stderr": self.stderr,
            "exponent": self.exponent,
            "exponent_stderr": self.exponent_stderr,
            "reps": self.replications,
        }


def fdd_probability(
    model: Model,
    points: list[float],
    thresholds: list[float],
    reps: int,
    *,
    seed: int = 0,
    threads: int | None = None,
) -> FddEstimate:
    """P{zeta(t_j) <= x_j for all j} = exp(-E max_j exp(w(t_j)) / x_j).

    The exponent is estimated by Monte Carlo over w paths and the standard
    error of the probability follows by the delta method. For Gaussian
    models the plain average is replaced by the shift-invariant rewrite of
    est_extremal_index_blocks,

        E max_j x(t_j) / x_j = sum_k E[ max_j x(t_j - t_k) / x_j
                                        / (x_k sum_i x(t_i - t_k) / x_i) ],

    read off one two-sided path, whose per-replication value is bounded by
    sum_k 1 / x_k: the plain average of the lognormal max is heavy-tailed and
    understates its standard error once sigma^2 at the largest lag is large.
    """
    t = np.asarray(points, dtype=float)
    x = np.asarray(thresholds, dtype=float)
    if t.shape != x.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("points and thresholds must be matching nonempty vectors")
    if np.any(x <= 0):
        raise ValueError("thresholds must be positive")
    if reps < 2:
        raise ValueError("need at least two replications to form a standard error")
    grid, cols = _containing_grid(model, t)
    log_x = np.log(x)
    gaussian = is_gaussian(model)
    if gaussian:
        span = int(cols.max() - cols.min())
        grid = GridSpec(grid.delta, -span, span)
        windows = [cols - c + span for c in cols]

    def worker(index, start, count, rng):
        w = w_matrix(model, grid, rng, count)
        if gaussian:
            # one row per time, for fast reductions over times; every window holds
            # lag 0, where x = 1, so no sum vanishes
            e = np.exp(w.T, order="C")
            m = np.zeros(count)
            for k, window in enumerate(windows):
                y = e[window] / x[:, None]
                m += y.max(axis=0) / (x[k] * y.sum(axis=0))
        else:
            m = np.exp((w[:, cols] - log_x[None, :]).max(axis=1))
        return count, np.array([m.sum()]), np.array([np.square(m).sum()])

    partials = engine.map_chunks(worker, seed, reps, grid.n_points, threads)
    acc = engine.reduce_moments(partials, 1)
    mean, se = float(acc.mean()[0]), float(acc.stderr()[0])
    prob = math.exp(-mean)
    return FddEstimate(prob, prob * se, mean, se, reps)


def _containing_grid(model: Model, times: np.ndarray) -> tuple[GridSpec, np.ndarray]:
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
    if not is_gaussian(model) and i_min < 0:
        raise UnsupportedModelError("negative times are not available for Levy models")
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
    threads: int | None = None,
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
    [-r_n, r_n] evaluates every shifted ratio by sliding windows. Gaussian
    models only (the rewrite needs negative times). Defaults to
    r_n = floor(sqrt(n)).
    """
    if delta <= 0 or n < 2 or reps < 2:
        raise ValueError("need delta > 0, n >= 2 and reps >= 2")
    if r_n is None:
        r_n = int(math.isqrt(n))
    if not 1 <= r_n < n:
        raise ValueError("r_n must satisfy 1 <= r_n < n")
    if not is_gaussian(model):
        raise UnsupportedModelError(
            "the block-sup rewrite needs negative times; use est_candidate_theta for Levy models"
        )
    grid = GridSpec(delta, -r_n, r_n)

    def worker(index, start, count, rng):
        w = w_matrix(model, grid, rng, count)
        vals = _block_sup_values(w, r_n)
        return count, np.array([vals.sum()]), np.array([np.square(vals).sum()])

    partials = engine.map_chunks(worker, seed, reps, grid.n_points, threads)
    acc = engine.reduce_moments(partials, 1)
    c_hat, c_se = float(acc.mean()[0]), float(acc.stderr()[0])
    p_hat = -math.expm1(-c_hat / n)
    theta = (n / r_n) * p_hat
    se = math.exp(-c_hat / n) * c_se / r_n
    flags = ("wide-ci",) if p_hat * reps < 30 else ()
    return EstimateResult("theta-blocks", delta, theta, se, reps, r_n, True, seed, flags=flags)


def _sliding_max(a: np.ndarray, width: int) -> np.ndarray:
    """Row-wise maxima of every contiguous window of ``width`` columns.

    Block decomposition: each window is covered by the suffix of one
    width-aligned block plus the prefix of the next.
    """
    rows, cols = a.shape
    pad = (-cols) % width
    ap = np.pad(a, ((0, 0), (0, pad)), constant_values=-np.inf)
    blocks = ap.reshape(rows, -1, width)
    prefix = np.maximum.accumulate(blocks, axis=2).reshape(rows, -1)
    suffix = np.maximum.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1].reshape(rows, -1)
    starts = np.arange(cols - width + 1)
    return np.maximum(suffix[:, starts], prefix[:, starts + width - 1])


def _block_sup_values(w: np.ndarray, r: int) -> np.ndarray:
    """Per-path estimates of E sup_{0<=i<=r} exp(w(delta i)) from a path on [-r, r]."""
    shift = w.max(axis=1, keepdims=True)
    e = np.exp(w - shift)
    csum = np.concatenate([np.zeros((w.shape[0], 1)), np.cumsum(e, axis=1)], axis=1)
    width = r + 1
    sums = csum[:, width:] - csum[:, :-width]          # window sums, start = 0..r
    maxes = _sliding_max(w, width) - shift             # window maxima, start = 0..r
    # the window starting at column r - j covers grid indices (0..r) - j,
    # so summing the ratio over all r + 1 starts sums over all shifts j
    return (np.exp(maxes) / sums).sum(axis=1)


def sample_tail_process(
    model: Model,
    delta: float,
    grid: GridSpec,
    rng: np.random.Generator,
) -> TailProcessSample:
    """One draw of (y(i))_{i in grid} = P exp(w(delta i)), P unit Pareto.

    The tail process of the max-stable sequence sampled at step delta;
    y(0) = P > 1 always.
    """
    if grid.delta != delta:
        grid = GridSpec(delta, grid.i_min, grid.i_max, grid.mesh)
    pareto = 1.0 / rng.uniform()
    w = w_matrix(model, grid, rng, 1)[0]
    return TailProcessSample(grid, pareto * np.exp(w), float(pareto))


def est_candidate_theta(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """theta = lim_m P{max_{1<=i<=m} y(i) <= 1} for the tail process y.

    Writing y(i) = exp(E + w(delta i)) with E = ln(P) unit exponential,
    the event coincides with the exceedance formula's, so the estimate is
    exactly delta times the exceedance estimate under a shared seed.
    """
    base = est_exceedance(model, delta, reps, policy=policy, seed=seed, threads=threads)
    return EstimateResult(
        "theta-candidate",
        delta,
        delta * base.estimate,
        delta * base.stderr,
        reps,
        base.horizon,
        base.stable,
        seed,
        flags=base.flags,
    )


def frechet_cdf(x: np.ndarray) -> np.ndarray:
    """Unit Frechet distribution function exp(-1/x), x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out
