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

``estimate`` runs any of the exact formulas by name; ``crosscheck`` runs
them all on shared paths. Their infinite index sets are truncated by one
rule: paths run to a horizon of H grid points (by default
``default_horizon``, past which w is certified not to return), the estimate
is read at H, and it is flagged unstable when doubling from H/2 moved it by
more than a tenth of its standard error. Both levels are read off the same
simulated paths, so the flag measures the actual truncation effect under
common random numbers.

A long horizon is read in two levels (multilevel Monte Carlo, Giles 2008).
The base level H0 is ``default_horizon`` certified at the tail
sqrt(HORIZON_TAIL). When 4 H0 <= H (and, in ``crosscheck``, [0, T] lies
within H0), every replication's path runs to H0 only, and
n1 = max(2, ceil(reps H0 / H)) long paths, drawn on their own streams, run
to H; on each long path every kernel returns v(H/2) - v(H0) and
v(H) - v(H0). The estimate at each level is the base mean plus the mean
correction, unbiased for the level's mean, with standard error
hypot(base SE, correction SE), and the doubling rule compares the two
levels so read. Such records carry ``base_horizon``, ``correction`` and
``correction_stderr`` (the correction at H); one-level records leave them
out.

A replication of a Gaussian model off the parametric alpha = 2 line, the
Brownian Levy model included, is read in several forms of one law
(antithetic variates, Glasserman 2004, section 4.2), at both levels of a
two-level run. Each side x of the drawn path, its positive or its negative
lags, is read as x and as its mirror -x - sigma^2, the side of -b, which
has the law of b. At alpha = 1, and for the Brownian Levy model, whose w
is the Gaussian with sigma^2(t) = diffusion^2 |t|, the two sides are
independent walks with i.i.d. steps and a linear drift, so each is also
read reversed, x(n) - x(n - k), and as the reversal's mirror: four forms a
side, sixteen a path. A replication's value is the mean over the
forms its kernel reads, all with the same E: the forms of its side for
exceedance, difference and time reversal; for argmax and dieker-yakir all
16 pairings of a positive and a negative form at alpha = 1, else the two
matched pairs; for crosscheck's definitional the matched pair w,
-w - sigma^2. ``crosscheck`` reads no reversals: its alpha = 1
replications are the pairs. ``reps`` counts drawn paths; they are
independent, so the standard error is the engine's. Exceedance,
difference, argmax and time reversal are monotone in b, so a mirror cannot
raise their variance. On the alpha = 2 line -b is the time reversal of b,
which the two-sided kernels already read, and jump laws are not symmetric,
so that line and the jump Levy models read each path once. Records read in
more than one form carry ``antithetic`` = true; others leave it out.

The alpha = 2 line b(t) = c t is read from its slope c = sqrt(scale) Z,
one normal a path, and no path matrix is built unless a kernel reads the
whole path (crosscheck's definitional). A side x(k) = c t_k - sigma^2(t_k) / 2
is a concave parabola in k, so its maxima at the levels are read in closed
form at the two integers around its vertex, and its sums of exp(x) from x
built a row block at a time; both equal, bit for bit, what the path
matrix would give.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import engine
from .models import (
    GridSpec,
    Model,
    antithetic_shift,
    independent_sides,
    is_gaussian,
    is_line,
    levy_lambda,
    line_maxima,
    line_slopes,
    side_forms,
    variance_at,
    w_matrix,
)
from .report import Record

__all__ = [
    "EstimateResult",
    "CrosscheckReport",
    "default_horizon",
    "estimate",
    "est_definitional",
    "est_continuous_dy",
    "crosscheck",
    "EXACT_METHODS",
]


@dataclass(frozen=True)
class EstimateResult(Record):
    """Point estimate with uncertainty and truncation diagnostics."""

    method: str
    delta: float
    estimate: float
    stderr: float
    reps: int
    horizon: int
    stable: bool
    seed: int
    flags: tuple[str, ...] = ()
    mesh: float | None = None
    base_horizon: int | None = None
    correction: float | None = None
    correction_stderr: float | None = None
    antithetic: bool | None = None

    def ci95(self) -> tuple[float, float]:
        return (self.estimate - 1.96 * self.stderr, self.estimate + 1.96 * self.stderr)


# default_horizon certifies the first power of two from 16 grid points on
# where P{w(t) + E > 0} falls below this; the base level of a two-level run
# is certified at its square root.
HORIZON_TAIL = 1e-6


def default_horizon(model: Model, delta: float, tail: float = HORIZON_TAIL) -> int:
    """Grid points after which w is very unlikely to pop back above -E.

    The first power of two from 16 on (at most 2^16) where
    P{w(t) + E > 0} falls below ``tail``. Uses the closed form
    P{w(t) + E > 0} = 2 Phi(-sigma(t)/2) for Gaussian models and the tilted
    bound 2 exp(-lambda |t|) for Levy models, which holds on either side of
    the origin.
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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# --- per-replication level values ------------------------------------------
# Each kernel maps what it reads of the simulated paths to a (count, n_levels)
# array of values whose mean estimates H^delta at the corresponding truncation
# horizon.


def _values_exceedance(m: np.ndarray, expo: np.ndarray, levels: np.ndarray, delta: float) -> np.ndarray:
    """Exceedance event {E + w(delta i) <= 0} from the maxima ``m`` of w over
    the lags 1 <= i <= level, or -level <= i <= -1 for time reversal, which
    shares the constant."""
    return (m + expo[:, None] <= 0.0).astype(float) / delta


def _values_difference(pos: np.ndarray, levels: np.ndarray, delta: float) -> np.ndarray:
    """(1 - sup_{i >= 1} exp(w(delta i)))_+ ; with x(0) = 1 the identity
    max(1, s) - s = (1 - s)_+ makes it the one-step difference of grid sup means."""
    return -np.expm1(np.minimum(pos, 0.0)) / delta


def _values_argmax(pos: np.ndarray, neg: np.ndarray, levels: np.ndarray, delta: float) -> np.ndarray:
    """The two-sided grid sup of w is attained at 0 (w(0) = 0), uniquely among negative lags."""
    return ((neg < 0.0) & (pos <= 0.0)).astype(float) / delta


def _values_ratio(pos: tuple, neg: tuple, levels: np.ndarray, step: float) -> np.ndarray:
    """max exp(w) / (step * sum exp(w)) over |i| <= level.

    Each side is read as its running maxima m and its running sums of exp(x)
    at the levels (``_read_side``); w(0) = 0 adds the 1. No shift by the
    maximum is needed: E exp(w(i)) = 1, so P{w(i) > u} <= exp(-u), and an
    exponential overflows with probability below exp(-709) per point. One
    that underflows is below 1e-308 of a sum that the origin keeps at
    least 1.
    """
    (m_pos, s_pos), (m_neg, s_neg) = pos, neg
    sums = np.add(1.0, s_pos)
    sums += s_neg
    sums *= step
    top = np.maximum(m_pos, m_neg)
    np.maximum(top, 0.0, out=top)
    np.exp(top, out=top)
    top /= sums
    return top


@dataclass(frozen=True)
class _Kernel:
    """A value kernel and its inputs, passed in this order: what it reads of
    the positive lags ("pos") or the negative lags ("neg") of a path out to
    each level, or the whole two-sided path ("path"); then the exponential E
    if ``expo``; then the levels and the grid step. A side is read as its
    running maxima at the levels, a (count, n_levels) array, or with
    ``sums`` as the pair of those maxima and the running sums of exp(x)."""

    values: Callable[..., np.ndarray]
    reads: tuple[str, ...]
    expo: bool = False
    sums: bool = False


_KERNELS = {
    "exceedance": _Kernel(_values_exceedance, ("pos",), expo=True),
    "difference": _Kernel(_values_difference, ("pos",)),
    "argmax": _Kernel(_values_argmax, ("pos", "neg")),
    "dieker-yakir": _Kernel(_values_ratio, ("pos", "neg"), sums=True),
    "time-reversed": _Kernel(_values_exceedance, ("neg",), expo=True),
}
EXACT_METHODS = tuple(_KERNELS)


# --- estimators --------------------------------------------------------------


def _read_side(x: np.ndarray, mirror: np.ndarray, forms: int, levels: np.ndarray, sums: bool) -> list:
    """What the kernels read of the side ``x``, rows of w(delta k) for
    1 <= k <= n (n the last level), in each of its first ``forms`` equal-law
    forms (``models.side_forms``): per form, a tuple of its running maxima at
    the levels and, with ``sums``, its running sums of exp(form), each a
    (count, n_levels) array, Fortran-ordered as ``engine.running_at``
    leaves it.

    The forms are built, and their exponentials taken, a row block at a time
    in two block buffers, reused for every block and form.
    """
    count, n = x.shape[0], int(levels[-1])
    blocks = engine.row_blocks(count, 8 * n * ((forms > 1) + sums))
    rows = blocks[-1].stop - blocks[-1].start
    # buffers run the way x runs in memory, so that a side read outward from the
    # origin against memory order (the negative lags) is walked in memory order
    step = 1 if x.strides[1] > 0 else -1
    form_buf = np.empty((rows, n))[:, ::step] if forms > 1 else None
    exps = np.empty((rows, n))[:, ::step] if sums else None
    parts = [[] for _ in range(forms)]
    for block in blocks:
        size = block.stop - block.start
        block_forms = side_forms(x[block], mirror, forms, None if form_buf is None else form_buf[:size])
        for part, form in zip(parts, block_forms):
            maxima = engine.running_at(np.maximum, form, levels)
            part.append((maxima, engine.running_at(np.add, np.exp(form, out=exps[:size]), levels)) if sums
                        else (maxima,))
    return [tuple(c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*part)) for part in parts]


def _read_line_side(c: np.ndarray, times: np.ndarray, drop: np.ndarray, curvature: float,
                    levels: np.ndarray, sums: bool) -> list:
    """``_read_side`` of a side of the alpha = 2 line, its one form, from the
    path slopes ``c`` (``models.line_slopes``): the side's rows t_k and drop_k,
    1 <= k <= n, give x(k) = c t_k - drop_k, as in the path matrix.

    The maxima are read in closed form (``models.line_maxima``). The sums
    are read from x built a row block at a time in one block buffer that
    runs the way the rows run in memory, as ``_read_side`` reads a side of
    the matrix, so they add in the same order.
    """
    maxima = line_maxima(c, times, drop, curvature, levels)
    if not sums:
        return [(maxima,)]
    n = int(levels[-1])
    blocks = engine.row_blocks(len(c), 8 * n)
    exps = np.empty((blocks[-1].stop - blocks[-1].start, n))[:, ::1 if times.strides[0] > 0 else -1]
    parts = []
    for block in blocks:
        x = np.multiply(c[block], times, out=exps[:block.stop - block.start])
        x -= drop
        parts.append(engine.running_at(np.add, np.exp(x, out=x), levels))
    return [(maxima, parts[0] if len(parts) == 1 else np.concatenate(parts))]


def _form_mean(values) -> np.ndarray:
    """The mean of a replication's values over the forms read, from an
    iterable of fresh arrays: summed in order into the first, then scaled by
    1, 1/2, 1/4 or 1/16, which is exact. One form's values are held at a
    time."""
    values = iter(values)
    total = next(values)
    count = 1
    for v in values:
        total += v
        count += 1
    total *= 1.0 / count
    return total


def _shared_path_run(model: Model, delta: float, reps: int, kernels: dict, levels,
                     seed: int, correction: bool = False, reversals: bool = True) -> tuple:
    """The engine run, ``(worker, seed, reps, n_cols, stream)``, whose
    ``engine.run`` gives the means and standard errors per level of every
    kernel, all on the same paths.

    Paths hold w(delta i) for 1 <= i <= n when every kernel reads positive
    lags only, and for |i| <= n otherwise (n the last level). E is drawn
    after w, and only if some kernel reads it. Each side that some kernel
    reads is read once for all kernels, at the levels only, in each of its
    equal-law forms (``_read_side``): the side itself on the alpha = 2 line,
    read from the path slopes where no kernel reads the whole path
    (``_read_line_side``), and for jump Levy models; where
    ``antithetic_shift`` applies also its mirror
    -x - sigma^2, the side of -b; and, with ``reversals``, where
    ``independent_sides`` holds also the reversals of both. A kernel's
    value is its mean over the forms it reads, with the same E: the forms
    of its side, or for a two-sided kernel the 16 pairings of a positive
    and a negative form where the sides are independent, else the matched
    pairs. The side reads and these kernels run a row group at a time, and
    each kernel sums its forms in place, so that a chunk holds one row
    group's reads and one form's values beside its paths. A kernel of the
    whole path reads w, then, where ``antithetic_shift`` applies, w turned
    in place into -w - sigma^2. With
    ``correction`` the paths are the long paths of a two-level run, on
    stream 1, and each kernel's values at the later levels less its value
    at the first are reduced.
    """
    levels = np.asarray(levels)
    n = int(levels[-1])
    reads = {r for k in kernels.values() for r in k.reads}
    one_sided = reads == {"pos"}
    with_expo = any(k.expo for k in kernels.values())
    sums = any(k.sums for k in kernels.values())
    grid = GridSpec(delta, 0, n) if one_sided else GridSpec(delta, -n, n)
    shift = antithetic_shift(model, grid)
    independent = reversals and shift is not None and independent_sides(model)
    forms = 4 if independent else 1 if shift is None else 2
    pairings = itertools.product if independent else zip
    # each side's mirror row, in its lag order, read by its forms past the first
    mirror = np.zeros(grid.n_points) if shift is None else shift
    mirrors = {"pos": mirror[-n:], "neg": mirror[n - 1::-1]}
    path = [name for name, k in kernels.items() if k.reads == ("path",)]
    side_reads = sorted(reads - {"path"})
    # a row group's side reads hold about half a row block: kept beside the
    # paths and a block buffer of exponentials, they raise the peak little
    group_bytes = 16 * len(levels) * forms * (1 + sums) * len(side_reads)
    if is_line(model) and not path:
        # a path of the line is its slope: each side is read from the slopes,
        # and no path matrix is built
        t = grid.times()
        half = 0.5 * variance_at(model, t)
        lines = {"pos": (t[-n:], half[-n:]), "neg": (t[n - 1::-1], half[n - 1::-1])}
        draw = functools.partial(line_slopes, model)

        def read_side(c, r):
            return _read_line_side(c, *lines[r], 0.5 * model.scale, levels, sums)
    else:
        draw = functools.partial(w_matrix, model, grid)

        def read_side(w, r):
            return _read_side(w[:, -n:] if r == "pos" else w[:, n - 1::-1], mirrors[r], forms, levels, sums)

    def call(k, inputs, expo):
        return k.values(*inputs, *(expo if k.expo else ()), levels, delta)

    def worker(rng, count):
        w = draw(rng, count)
        expo = (rng.exponential(size=count),) if with_expo else ()
        parts = {name: [] for name in kernels if name not in path}
        for group in engine.row_blocks(count, group_bytes):
            read = {r: read_side(w[group], r) for r in side_reads}
            group_expo = tuple(e[group] for e in expo)
            for name, part in parts.items():
                k = kernels[name]
                inputs = pairings(*([f if k.sums else f[0] for f in read[r]] for r in k.reads))
                part.append(_form_mean(call(k, i, group_expo) for i in inputs))
        values = {name: call(kernels[name], (w,), expo) for name in path}
        if path and shift is not None:
            np.subtract(shift, w, out=w)
            for name in path:
                values[name] = _form_mean((values[name], call(kernels[name], (w,), expo)))
        # the paths are freed before the groups' values are joined
        del w
        values |= {name: np.concatenate(part) for name, part in parts.items()}
        if correction:
            return {name: v[:, 1:] - v[:, :1] for name, v in values.items()}
        return values

    return worker, seed, reps, n if one_sided else 2 * n + 1, int(correction)


def _run_exact(model: Model, delta: float, reps: int, methods, horizon: int | None,
               seed: int, extra: dict | None = None, reach: int = 0,
               reversals: bool = True) -> tuple[dict, dict]:
    """Registry ``methods`` on shared paths, each read at ``horizon`` (default:
    ``default_horizon``) and checked against half of it by the doubling rule.

    The horizon H is read in two levels (see the module docstring) when the
    base level H0 has 4 H0 <= H and covers the ``reach`` positive lags that
    the ``extra`` kernels read. Returns the EstimateResults and the raw
    moments of the run that evaluates the ``extra`` kernels, on the same
    paths as ``methods`` (the base paths of a two-level run). Without
    ``reversals`` an alpha = 1 path is read as the antithetic pair only.
    """
    _require(delta > 0, "delta must be positive")
    if horizon is None:
        horizon = default_horizon(model, delta)
    _require(horizon >= 2, "horizon must be at least 2 grid points")
    kernels = {m: _KERNELS[m] for m in methods}
    shared = kernels | (extra or {})
    base = default_horizon(model, delta, math.sqrt(HORIZON_TAIL))
    antithetic = True if antithetic_shift(model, GridSpec(delta)) is not None else None
    if 4 * base > horizon or reach > base:
        moments = engine.run(*_shared_path_run(model, delta, reps, shared, [horizon // 2, horizon], seed,
                                               reversals=reversals))
        at, tail = moments, {}
    else:
        # the two levels are independent runs, so their chunks share one pool
        moments, long = engine.run_all([
            _shared_path_run(model, delta, reps, shared, [base], seed, reversals=reversals),
            _shared_path_run(model, delta, max(2, -(-reps * base // horizon)), kernels,
                             [base, horizon // 2, horizon], seed, correction=True, reversals=reversals),
        ])
        at = {m: (moments[m][0] + long[m][0], np.hypot(moments[m][1], long[m][1])) for m in methods}
        tail = {m: {"base_horizon": base, "correction": float(long[m][0][-1]),
                    "correction_stderr": float(long[m][1][-1])} for m in methods}
    results = {}
    for m in methods:
        means, ses = at[m]
        stable = engine.doubling_stable(means, ses)
        flags = () if stable else ("truncation-unstable",)
        results[m] = EstimateResult(m, delta, float(means[-1]), float(ses[-1]), reps, int(horizon),
                                    stable, seed, flags=flags, antithetic=antithetic, **tail.get(m, {}))
    return results, moments


def estimate(
    model: Model,
    method: str,
    delta: float,
    reps: int,
    *,
    horizon: int | None = None,
    seed: int = 0,
) -> EstimateResult:
    """H^delta by the exact formula ``method``, one of EXACT_METHODS.

    Paths run to ``horizon`` grid points (default: ``default_horizon``), the
    estimate is read there, and it is flagged unstable when doubling from
    half the horizon moved it by more than a tenth of its standard error. A
    long horizon is read in two levels (see the module docstring).
    """
    _require(method in _KERNELS, f"unknown method {method!r}; expected one of {', '.join(EXACT_METHODS)}")
    return _run_exact(model, delta, reps, (method,), horizon, seed)[0][method]


def est_definitional(
    model: Model,
    delta: float,
    T: float,
    reps: int,
    *,
    mesh: float | None = None,
    seed: int = 0,
) -> EstimateResult:
    """(1/T) E sup of exp(w) over the grid in [0, T].

    For finite T this dominates H^delta in expectation (the constant is the
    infimum over T), so it serves as an upper cross-check rather than an
    exact estimator. ``delta = 0`` with a ``mesh`` approximates the
    continuous-time functional; that limit is specific to the
    fractional-Brownian family and is flagged as such. For delta > 0 the
    grid step is delta, and ``mesh`` is neither used nor recorded.
    """
    _require(T > 0, "T must be positive")
    flags: tuple[str, ...] = ()
    if delta == 0:
        _require(mesh is not None and mesh > 0, "delta = 0 requires a positive mesh")
        step = mesh
        flags = ("continuum-mesh", "family-specific-limit")
    else:
        _require(delta > 0, "delta must be nonnegative")
        step, mesh = delta, None
    k_max = int(math.floor(T / step + 1e-12))
    grid = GridSpec(step, 0, k_max)

    def worker(rng, count):
        return np.exp(w_matrix(model, grid, rng, count).max(axis=1)) / T

    mean, se = engine.run(worker, seed, reps, grid.n_points)
    return EstimateResult("definitional", delta, float(mean[0]), float(se[0]),
                          reps, k_max, True, seed, mesh=mesh, flags=flags)


def est_continuous_dy(
    model: Model,
    eta: float,
    window: float,
    reps: int,
    *,
    seed: int = 0,
) -> EstimateResult:
    """Mesh estimate of H^0 via the ratio formula on [-window, window].

    Evaluates E[ max exp(w) / (eta * sum exp(w)) ] on the eta-mesh; the
    ratio formula is exact in eta for the sum, so the only mesh effect is
    the discrete sup, and the estimate converges to H^0 as eta -> 0. This
    is the dieker-yakir run of ``estimate`` at grid step eta and horizon
    window / eta, recorded as a delta = 0 estimate; a doubling-rule
    failure between the half and the full window flags the window as too
    small.
    """
    _require(eta > 0, "eta must be positive")
    m = int(round(window / eta))
    _require(m >= 2, "window must cover at least two mesh steps, so that it can be halved")
    base = estimate(model, "dieker-yakir", eta, reps, horizon=m, seed=seed)
    return replace(base, method="continuous-dy", delta=0.0, mesh=eta,
                   flags=() if base.stable else ("window-unstable",))


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

    results: dict
    overlap: dict
    all_overlap: bool
    definitional_dominates: bool
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Not the record rule: the overlap matrix is keyed by method pairs,
        written as "a|b", and the results are written as records."""
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
    horizon: int | None = None,
    seed: int = 0,
    T: float | None = None,
) -> CrosscheckReport:
    """Run the grid formulas on shared paths and compare their CIs.

    A single two-sided path (and one exponential variate) per replication
    feeds every estimator, so disagreement is formula error rather than
    sampling noise. The five exact representations, truncated as by
    ``estimate``, enter the pairwise overlap matrix; the definitional
    functional is checked for dominance instead, over [0, T] with T
    defaulting to the largest MC-feasible horizon. A two-level run reads
    [0, T] from the base paths, so it runs only where they cover it. At
    alpha = 1 a replication is the antithetic pair, not the sixteen forms
    of ``estimate``: the overlap gate compares 95% intervals pair by pair,
    with no family-wise level, so it stays on the reading it was set for.
    """
    _require(delta > 0, "delta must be positive")
    _require(T is None or T > 0, "T must be positive")
    if horizon is None:
        horizon = default_horizon(model, delta)
    horizon_T = T if T is not None else min(horizon * delta, feasible_definitional_T(model, delta, reps))
    # number of positive grid points inside [0, T]; 0 leaves only the origin
    k_T = min(horizon, int(math.floor(horizon_T / delta + 1e-12)))

    def definitional(w, levels, delta):
        # [0, T] from the origin, the middle column, where w = 0
        origin = w.shape[1] // 2
        return np.exp(w[:, origin:origin + k_T + 1].max(axis=1)) / horizon_T

    extra = {"definitional": _Kernel(definitional, ("path",))}
    results, moments = _run_exact(model, delta, reps, EXACT_METHODS, horizon, seed, extra, reach=k_T,
                                  reversals=False)
    overlap = {(a, b): _ci_overlap(results[a], results[b])
               for i, a in enumerate(EXACT_METHODS) for b in EXACT_METHODS[i + 1:]}
    means, ses = moments["definitional"]
    d = results["definitional"] = EstimateResult("definitional", delta, float(means[0]), float(ses[0]),
                                                 reps, k_T, True, seed,
                                                 antithetic=results[EXACT_METHODS[0]].antithetic)
    dominates = all(
        d.estimate + 3.0 * math.hypot(d.stderr, results[m].stderr) >= results[m].estimate
        for m in EXACT_METHODS
    )
    flags = ("underpowered",) if reps < 1000 else ()
    return CrosscheckReport(results=results, overlap=overlap, all_overlap=all(overlap.values()),
                            definitional_dominates=dominates, flags=flags)
