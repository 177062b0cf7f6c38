"""Monte Carlo estimators of the grid constant H^delta of a Brown-Resnick
stationary process, via independent formulas that must mutually agree.

For delta > 0 the target is

    H^delta = lim_{T -> inf} (1/T) E sup_{t in delta Z, 0 <= t <= T} exp(w(t)),

which lies in (0, 1/delta) and equals the extremal index of the associated
max-stable sequence divided by delta. Each estimator evaluates a different
exact representation of this constant:

* ``definitional``   (1/T) E sup over the grid in [0, T]; upper-biased for
                     finite T, used as a dominance check.
* ``exceedance``     (1/delta) P{E + w(delta i) <= 0 for all i >= 1} with a
                     unit exponential E independent of w.
* ``difference``     (1/delta) E (1 - sup_{i >= 1} exp(w(delta i)))_+ ,
                     the per-sample form of the one-step sup difference.
* ``argmax``         (1/delta) P{the overall grid argmax of w sits at 0},
                     two-sided grids only.
* ``dieker-yakir``   E[max exp(w) / (delta * sum exp(w))] over two-sided
                     grids.
* ``time-reversed``  the exceedance event run backwards in time.
* ``continuous-dy``  mesh approximation of the ratio formula that recovers
                     the continuous-time constant H^0.

Infinite index sets are truncated at a horizon chosen by a doubling policy;
per-replication values are evaluated at every doubling checkpoint of one
simulated path, so the reported stability diagnostic measures the actual
truncation effect under common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import engine
from .models import (
    GridSpec,
    Model,
    is_gaussian,
    levy_lambda,
    variance_at,
    w_matrix,
)

__all__ = [
    "TruncationPolicy",
    "EstimateResult",
    "CrosscheckReport",
    "default_horizon",
    "est_definitional",
    "est_exceedance",
    "est_difference",
    "est_argmax",
    "est_dieker_yakir",
    "est_time_reversed",
    "est_continuous_dy",
    "crosscheck",
    "EXACT_METHODS",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Horizon-doubling control for the infinite index sets.

    Starting from ``initial`` grid points, the horizon is doubled (factor
    ``growth``) until the estimate moves by less than ``rel_tol`` times its
    standard error, up to ``max_horizon`` points. A run that never
    stabilizes is still reported, flagged unstable.
    """

    initial: int = 64
    growth: int = 2
    rel_tol: float = 0.1
    max_horizon: int | None = None

    def __post_init__(self):
        if self.initial < 1:
            raise ValueError("initial horizon must be >= 1")
        if self.growth < 2:
            raise ValueError("growth factor must be >= 2")

    def levels(self) -> list[int]:
        cap = self.max_horizon if self.max_horizon is not None else self.initial * self.growth**3
        out = [self.initial]
        while out[-1] * self.growth <= cap:
            out.append(out[-1] * self.growth)
        return out


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with uncertainty and truncation diagnostics."""

    method: str
    delta: float
    estimate: float
    stderr: float
    replications: int
    horizon: int
    stable: bool
    seed: int
    mesh: float | None = None
    flags: tuple[str, ...] = ()

    def ci95(self) -> tuple[float, float]:
        return (self.estimate - 1.96 * self.stderr, self.estimate + 1.96 * self.stderr)

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "delta": self.delta,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "reps": self.replications,
            "horizon": self.horizon,
            "stable": self.stable,
            "seed": self.seed,
            "flags": list(self.flags),
        }
        if self.mesh is not None:
            d["mesh"] = self.mesh
        return d


def default_horizon(model: Model, delta: float, tail: float = 1e-6) -> int:
    """Grid points after which w is very unlikely to pop back above -E.

    Uses the closed form P{w(t) + E > 0} = 2 Phi(-sigma(t)/2) for Gaussian
    models and the tilted bound 2 exp(-lambda |t|) for Levy models, which
    holds on either side of the origin.
    """
    if is_gaussian(model):
        def point(n: int) -> float:
            s = math.sqrt(max(variance_at(model, n * delta), 0.0))
            return 2.0 * _ndtr(-0.5 * s)
    else:
        lam = levy_lambda(model)
        if lam <= 0:
            return 64

        def point(n: int) -> float:
            return 2.0 * math.exp(-lam * n * delta)

    n = 16
    while n < (1 << 16) and point(n) > tail:
        n *= 2
    return n


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _policy_or_default(policy: TruncationPolicy | None, model: Model, delta: float) -> TruncationPolicy:
    """Default: doubling levels that end at the certified tail horizon."""
    if policy is not None:
        return policy
    cap = default_horizon(model, delta)
    return TruncationPolicy(initial=max(16, cap // 4), max_horizon=cap)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# --- per-replication level values ------------------------------------------
# Each kernel maps what it reads of the simulated paths to a (count, n_levels)
# array of values whose mean estimates H^delta at the corresponding truncation
# horizon.


def _values_exceedance(cummax: np.ndarray, expo: np.ndarray, levels: np.ndarray, delta: float) -> np.ndarray:
    """Exceedance event over the lags ``cummax`` runs over: i >= 1, or i <= -1 for time reversal."""
    m = cummax[:, levels - 1]
    return (m + expo[:, None] <= 0.0).astype(float) / delta


def _values_difference(pos_cummax: np.ndarray, levels: np.ndarray, delta: float) -> np.ndarray:
    m = pos_cummax[:, levels - 1]
    return -np.expm1(np.minimum(m, 0.0)) / delta


def _values_argmax(pos_cummax: np.ndarray, neg_cummax: np.ndarray, levels: np.ndarray, delta: float) -> np.ndarray:
    mp = pos_cummax[:, levels - 1]
    mn = neg_cummax[:, levels - 1]
    return ((mn < 0.0) & (mp <= 0.0)).astype(float) / delta


@engine.by_row_blocks
def _values_ratio(w: np.ndarray, levels: np.ndarray, step: float) -> np.ndarray:
    """max exp(w) / (step * sum exp(w)) over |i| <= level, in log domain.

    ``w`` holds a symmetric two-sided grid, origin in the middle column.
    Shifting by the row maximum over the full grid keeps every exponential
    in [0, 1]; the shift cancels exactly in the ratio.
    """
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


@dataclass(frozen=True)
class _Kernel:
    """A value kernel and its inputs, passed in this order: the running maxima
    of w over positive lags ("pos") or negative lags ("neg"), or the whole
    two-sided path ("path"); then the exponential E if ``expo``; then the
    levels and the grid step."""

    values: Callable[..., np.ndarray]
    reads: tuple[str, ...]
    expo: bool = False


_KERNELS = {
    "exceedance": _Kernel(_values_exceedance, ("pos",), expo=True),
    "difference": _Kernel(_values_difference, ("pos",)),
    "argmax": _Kernel(_values_argmax, ("pos", "neg")),
    "dieker-yakir": _Kernel(_values_ratio, ("path",)),
    "time-reversed": _Kernel(_values_exceedance, ("neg",), expo=True),
}
EXACT_METHODS = tuple(_KERNELS)


# --- estimators --------------------------------------------------------------


def _shared_path_moments(model: Model, delta: float, reps: int, kernels: dict, levels: np.ndarray,
                         seed: int, threads: int | None) -> dict:
    """Means and standard errors per level of every kernel, all on the same paths.

    Paths hold w(delta i) for 1 <= i <= n when every kernel reads positive
    lags only, and for |i| <= n otherwise (n the last level). E is drawn
    after w, and only if some kernel reads it; only the running maxima that
    some kernel reads are built.
    """
    n = int(levels[-1])
    reads = {r for k in kernels.values() for r in k.reads}
    one_sided = reads == {"pos"}
    with_expo = any(k.expo for k in kernels.values())

    def worker(rng, count):
        if one_sided:
            w = w_matrix(model, GridSpec(delta, 0, n), rng, count)[:, 1:]
            paths = {"pos": np.maximum.accumulate(w, axis=1, out=w)}
        else:
            paths = {"path": w_matrix(model, GridSpec(delta, -n, n), rng, count)}
            if "pos" in reads:
                paths["pos"] = np.maximum.accumulate(paths["path"][:, n + 1:], axis=1)
            if "neg" in reads:
                paths["neg"] = np.maximum.accumulate(paths["path"][:, :n][:, ::-1], axis=1)
        expo = (rng.exponential(size=count),) if with_expo else ()
        return {name: k.values(*(paths[r] for r in k.reads), *(expo if k.expo else ()), levels, delta)
                for name, k in kernels.items()}

    return engine.run(worker, seed, reps, n if one_sided else 2 * n + 1, threads)


def _run_exact(model: Model, delta: float, reps: int, methods, policy: TruncationPolicy | None,
               seed: int, threads: int | None, extra: dict | None = None) -> tuple[dict, dict]:
    """Registry ``methods`` on shared paths, each at the level the doubling rule selects.

    Returns the EstimateResults and the raw moments of every kernel, which
    include those of the ``extra`` kernels evaluated on the same paths.
    """
    _require(delta > 0, "delta must be positive")
    _require(reps >= 2, "need at least two replications to form a standard error")
    policy = _policy_or_default(policy, model, delta)
    levels = np.asarray(policy.levels())
    kernels = {m: _KERNELS[m] for m in methods} | (extra or {})
    moments = _shared_path_moments(model, delta, reps, kernels, levels, seed, threads)
    results = {}
    for m in methods:
        means, ses = moments[m]
        lvl, stable = engine.select_level(means, ses, policy.rel_tol)
        flags = () if stable else ("truncation-unstable",)
        results[m] = EstimateResult(m, delta, float(means[lvl]), float(ses[lvl]), reps,
                                    int(levels[lvl]), stable, seed, flags=flags)
    return results, moments


def est_exceedance(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """H^delta = (1/delta) P{E + w(delta i) <= 0 for all i >= 1}.

    E is a fresh unit exponential per replication, independent of the path.
    """
    return _run_exact(model, delta, reps, ("exceedance",), policy, seed, threads)[0]["exceedance"]


def est_difference(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """H^delta = (1/delta) E (1 - sup_{i >= 1} exp(w(delta i)))_+ .

    With x(0) = 1 the per-sample identity max(1, s) - s = (1 - s)_+ makes
    this the one-step difference of grid sup expectations.
    """
    return _run_exact(model, delta, reps, ("difference",), policy, seed, threads)[0]["difference"]


def est_argmax(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """H^delta = (1/delta) P{sup_{i<0} w < 0 and sup_{i != 0} w <= 0}.

    Since w(0) = 0 the event says the two-sided grid supremum of w is
    attained, uniquely among negative indices, at 0.
    """
    return _run_exact(model, delta, reps, ("argmax",), policy, seed, threads)[0]["argmax"]


def est_dieker_yakir(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """H^delta = E[ max_i exp(w(delta i)) / (delta * sum_i exp(w(delta i))) ].

    Two-sided ratio representation; per-sample values are bounded by
    1/delta because the max is one summand of the sum.
    """
    return _run_exact(model, delta, reps, ("dieker-yakir",), policy, seed, threads)[0]["dieker-yakir"]


def est_time_reversed(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """H^delta = (1/delta) P{E + w(delta i) <= 0 for all i <= -1}.

    The exceedance formula applied to the time-reversed process, which
    shares the constant.
    """
    return _run_exact(model, delta, reps, ("time-reversed",), policy, seed, threads)[0]["time-reversed"]


def est_definitional(
    model: Model,
    delta: float,
    T: float,
    reps: int,
    *,
    mesh: float | None = None,
    seed: int = 0,
    threads: int | None = None,
) -> EstimateResult:
    """(1/T) E sup of exp(w) over the grid in [0, T].

    For finite T this dominates H^delta in expectation (the constant is the
    infimum over T), so it serves as an upper cross-check rather than an
    exact estimator. ``delta = 0`` with a ``mesh`` approximates the
    continuous-time functional; that limit is specific to the
    fractional-Brownian family and is flagged as such.
    """
    _require(T > 0, "T must be positive")
    _require(reps >= 2, "need at least two replications to form a standard error")
    flags: tuple[str, ...] = ()
    if delta == 0:
        _require(mesh is not None and mesh > 0, "delta = 0 requires a positive mesh")
        step = mesh
        flags = ("continuum-mesh", "family-specific-limit")
    else:
        _require(delta > 0, "delta must be nonnegative")
        step = delta
    k_max = int(math.floor(T / step + 1e-12))
    grid = GridSpec(step, 0, k_max)

    def worker(rng, count):
        return np.exp(w_matrix(model, grid, rng, count).max(axis=1)) / T

    mean, se = engine.run(worker, seed, reps, grid.n_points, threads)
    return EstimateResult("definitional", delta, float(mean[0]), float(se[0]),
                          reps, k_max, True, seed, mesh=mesh, flags=flags)


def est_continuous_dy(
    model: Model,
    eta: float,
    window: float,
    reps: int,
    *,
    seed: int = 0,
    threads: int | None = None,
    rel_tol: float = 0.1,
) -> EstimateResult:
    """Mesh estimate of H^0 via the ratio formula on [-window, window].

    Evaluates E[ max exp(w) / (eta * sum exp(w)) ] on the eta-mesh; the
    ratio formula is exact in eta for the sum, so the only mesh effect is
    the discrete sup, and the estimate converges to H^0 as eta -> 0. The
    estimate is recomputed on the half window; a change larger than
    ``rel_tol`` standard errors flags the window as too small.
    """
    _require(eta > 0, "eta must be positive")
    _require(window >= eta, "window must cover at least one mesh step")
    _require(reps >= 2, "need at least two replications to form a standard error")
    m = int(round(window / eta))
    levels = np.asarray(sorted({max(1, m // 2), m}))

    kernel = {"dieker-yakir": _KERNELS["dieker-yakir"]}
    means, ses = _shared_path_moments(model, eta, reps, kernel, levels, seed, threads)["dieker-yakir"]
    stable = bool(levels.size < 2 or abs(means[-1] - means[-2]) <= rel_tol * ses[-1])
    flags = () if stable else ("window-unstable",)
    return EstimateResult("continuous-dy", 0.0, float(means[-1]), float(ses[-1]), reps,
                          m, stable, seed, mesh=eta, flags=flags)


# --- cross-formula consistency ------------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    """Shared-path runs of the grid formulas plus their CI-overlap matrix.

    The overlap matrix covers the five exact representations. The
    definitional functional is reported alongside but enters only through
    its dominance property (it upper-bounds the constant in expectation
    and is heavy-tailed, so its finite-T estimate cannot be expected to
    match within CI width).
    """

    results: dict = field(default_factory=dict)
    overlap: dict = field(default_factory=dict)
    all_overlap: bool = True
    definitional_dominates: bool | None = None
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "results": {k: v.to_dict() for k, v in self.results.items()},
            "overlap": {f"{a}|{b}": bool(v) for (a, b), v in self.overlap.items()},
            "all_overlap": self.all_overlap,
            "definitional_dominates": self.definitional_dominates,
            "flags": list(self.flags),
        }


def _ci_overlap(a: EstimateResult, b: EstimateResult) -> bool:
    lo_a, hi_a = a.ci95()
    lo_b, hi_b = b.ci95()
    return lo_a <= hi_b and lo_b <= hi_a


def feasible_definitional_T(model: Model, delta: float, reps: int) -> float:
    """Largest horizon at which the definitional sup-mean is MC-estimable.

    The mean of sup exp(w) accumulates from sample paths with sup w up to
    sigma^2(T)/2, while ``reps`` replications only reach levels of order
    ln(reps); beyond that the plain average is badly biased low. When even
    two grid steps exceed that budget, a sub-delta horizon is returned:
    the grid then holds only the origin and the estimate is exactly 1/T,
    the elementary upper bound for H^delta.
    """
    if not is_gaussian(model):
        return 2.0 * delta
    cap = 2.0 * max(2.0, math.log(max(reps, 8)) - 4.0)
    if variance_at(model, 2.0 * delta) > cap:
        return 0.75 * delta
    t = 2.0 * delta
    while variance_at(model, 2.0 * t) <= cap and t < 1e6:
        t *= 2.0
    return t


def crosscheck(
    model: Model,
    delta: float,
    reps: int,
    *,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
    threads: int | None = None,
    T: float | None = None,
    include_definitional: bool = True,
) -> CrosscheckReport:
    """Run the grid formulas on shared paths and compare their CIs.

    A single two-sided path (and one exponential variate) per replication
    feeds every estimator, so disagreement is formula error rather than
    sampling noise. The five exact representations enter the pairwise
    overlap matrix; the definitional functional is checked for dominance
    instead, over [0, T] with T defaulting to the largest MC-feasible
    horizon.
    """
    _require(delta > 0, "delta must be positive")
    _require(reps >= 2, "need at least two replications to form a standard error")
    policy = _policy_or_default(policy, model, delta)
    n_max = policy.levels()[-1]
    horizon_T = T if T is not None else min(n_max * delta, feasible_definitional_T(model, delta, reps))
    # number of positive grid points inside [0, T]; 0 leaves only the origin
    k_T = min(n_max, int(math.floor(horizon_T / delta + 1e-12)))

    def definitional(pos, levels, delta):
        sup = np.maximum(pos[:, k_T - 1], 0.0) if k_T >= 1 else np.zeros(pos.shape[0])
        return np.exp(sup) / horizon_T

    extra = {"definitional": _Kernel(definitional, ("pos",))} if include_definitional else None
    results, moments = _run_exact(model, delta, reps, EXACT_METHODS, policy, seed, threads, extra)
    overlap = {}
    all_ok = True
    for i, a in enumerate(EXACT_METHODS):
        for b in EXACT_METHODS[i + 1:]:
            ok = _ci_overlap(results[a], results[b])
            overlap[(a, b)] = ok
            all_ok = all_ok and ok
    dominates = None
    if include_definitional:
        means, ses = moments["definitional"]
        d = results["definitional"] = EstimateResult("definitional", delta, float(means[0]), float(ses[0]),
                                                     reps, k_T, True, seed)
        dominates = all(
            d.estimate + 3.0 * math.hypot(d.stderr, results[m].stderr) >= results[m].estimate
            for m in EXACT_METHODS
        )
    flags = ("underpowered",) if reps < 1000 else ()
    return CrosscheckReport(results=results, overlap=overlap, all_overlap=all_ok,
                            definitional_dominates=dominates, flags=flags)
