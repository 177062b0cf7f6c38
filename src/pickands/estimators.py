"""Monte Carlo estimators of the grid constant H^delta of a Brown-Resnick
stationary process, via independent formulas that must mutually agree.

For delta > 0 the target is

    H^delta = lim_{T -> inf} (1/T) E sup_{t in delta Z, 0 <= t <= T} exp(w(t)),

which lies in (0, 1/delta) and equals the extremal index of the associated
max-stable sequence divided by delta. Each estimator evaluates a different
exact representation of this constant:

* ``definitional``   c(k)/T by the ratio, at least H^delta at every T; a
                     dominance check.
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
them all on shared paths. The exact formulas' infinite index sets are
truncated by one rule: paths run to a horizon of H grid points (by
default ``default_horizon``, past which w is certified not to return), the
estimate is read at H, and it is flagged unstable when doubling from H/2
moved it by more than a tenth of its standard error. Both levels are read
off the same simulated paths, so the flag measures the actual truncation
effect under common random numbers.

A long horizon is read in two levels (multilevel Monte Carlo, Giles 2008).
The base level H0 is ``default_horizon`` certified at the tail
sqrt(HORIZON_TAIL). When 4 H0 <= H, every replication's path runs to H0
only, and n1 = max(2, ceil(reps H0 / H)) long paths, drawn on their own
streams, run to H; on each long path every kernel returns v(H/2) - v(H0)
and v(H) - v(H0). The estimate at each level is the base mean plus the mean
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
matched pairs. ``crosscheck``'s exact formulas read no reversals: their
alpha = 1 replications are the pairs. ``reps`` counts drawn paths; they are
independent, so the standard error is the engine's. Exceedance,
difference, argmax and time reversal are monotone in b, so a mirror cannot
raise their variance. On the alpha = 2 line -b is the time reversal of b,
which the two-sided kernels already read, and jump laws are not symmetric,
so that line and the jump Levy models read each path once. Records read in
more than one form carry ``antithetic`` = true; others leave it out.

The alpha = 2 line b(t) = c t is read from its slopes c = sqrt(scale) Z
(``models.LinePaths``), and no path matrix is built: a side's maxima at the
levels in closed form, and its sums of exp(x) from rows built a row block
at a time, both equal, bit for bit, to what the path matrix would give.

The window sup c(k) = E sup_{0<=i<=k} exp(w(delta i)) has one reader,
``_block_sup_values``, the shift-invariant ratio of Dieker and Yakir
(2014), each window's maximum and sum of exp(w) read outward from the
centre it holds: its value per path is at most k + 1, where the plain mean
of the sup is carried by rare, high paths. The definitional functional is
c(k) / T, k = floor(T / delta) (``est_definitional``), and the block
statistics of ``maxstable`` read c at their block lengths, all through one
run (``_window_sups``). By subadditivity c(k) >= (k + 1) delta H^delta, so
c(k) / T >= H^delta at every T. The kernel reads each path once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import engine
from .models import (
    GridSpec,
    LinePaths,
    Model,
    antithetic_shift,
    independent_sides,
    is_gaussian,
    is_line,
    levy_lambda,
    line_paths,
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


def _values_exceedance(m: np.ndarray, expo: np.ndarray, delta: float) -> np.ndarray:
    """Exceedance event {E + w(delta i) <= 0} from the maxima ``m`` of w over
    the lags 1 <= i <= level, or -level <= i <= -1 for time reversal, which
    shares the constant."""
    return (m + expo[:, None] <= 0.0).astype(float) / delta


def _values_difference(pos: np.ndarray, delta: float) -> np.ndarray:
    """(1 - sup_{i >= 1} exp(w(delta i)))_+ ; with x(0) = 1 the identity
    max(1, s) - s = (1 - s)_+ makes it the one-step difference of grid sup means."""
    return -np.expm1(np.minimum(pos, 0.0)) / delta


def _values_argmax(pos: np.ndarray, neg: np.ndarray, delta: float) -> np.ndarray:
    """The two-sided grid sup of w is attained at 0 (w(0) = 0), uniquely among negative lags."""
    return ((neg < 0.0) & (pos <= 0.0)).astype(float) / delta


def _values_ratio(pos: tuple, neg: tuple, step: float) -> np.ndarray:
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
    each level; then the exponential E if ``expo``; then the grid step. A
    side is read as its running maxima at the levels, a (count, n_levels)
    array, or with ``sums`` as the pair of those maxima and the running sums
    of exp(x)."""

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


def _read_line_side(side: LinePaths, levels: np.ndarray, sums: bool) -> list:
    """``_read_side`` of a side of the alpha = 2 line (``LinePaths.side``), its
    one form: its maxima in closed form, its sums from its rows built a row
    block at a time in one buffer that runs the way the rows run in memory,
    as ``_read_side`` reads a side of the matrix, so they add in the same order.
    """
    maxima = side.maxima(levels)
    if not sums:
        return [(maxima,)]
    count, n = side.shape
    blocks = engine.row_blocks(count, 8 * n)
    exps = np.empty((blocks[-1].stop - blocks[-1].start, n))[:, ::1 if side.times.strides[0] > 0 else -1]
    parts = []
    for block in blocks:
        x = side.rows(block, exps[:block.stop - block.start])
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


def _block_paths(model: Model, grid: GridSpec, rng: np.random.Generator,
                 count: int) -> np.ndarray | LinePaths:
    """``count`` paths on ``grid``, the one draw of every chunk worker here: on
    the alpha = 2 line their slopes (``models.line_paths``), else the path matrix."""
    if is_line(model):
        return line_paths(model, grid, rng, count)
    return w_matrix(model, grid, rng, count)


def _shared_path_run(model: Model, delta: float, reps: int, kernels: dict, levels,
                     seed: int, correction: bool = False, reversals: bool = True) -> tuple:
    """The engine run, ``(worker, seed, reps, n_cols, stream)``, whose
    ``engine.run`` gives the means and standard errors per level of every
    kernel, all on the same paths.

    Paths (``_block_paths``) hold w(delta i) for 1 <= i <= n when every
    kernel reads positive lags only, and for |i| <= n otherwise (n the last
    level). E is drawn after w, and only if some kernel reads it. Each side
    that some kernel reads is read once for all kernels, at the levels only,
    in each of its equal-law forms (``_read_side``): the side itself on the
    alpha = 2 line, read from the path slopes (``_read_line_side``), and for
    jump Levy models; where ``antithetic_shift`` applies also its mirror
    -x - sigma^2, the side of -b; and, with ``reversals``, where
    ``independent_sides`` holds also the reversals of both. A kernel's
    value is its mean over the forms it reads, with the same E: the forms
    of its side, or for a two-sided kernel the 16 pairings of a positive
    and a negative form where the sides are independent, else the matched
    pairs. The side reads and these kernels run a row group at a time, and
    each kernel sums its forms in place, so that a chunk holds one row
    group's reads and one form's values beside its paths. With
    ``correction`` the paths are the long paths of a two-level run, on
    stream 1, and each kernel's values at the later levels less its value
    at the first are reduced.
    """
    levels = np.asarray(levels)
    n = int(levels[-1])
    reads = sorted({r for k in kernels.values() for r in k.reads})
    one_sided = reads == ["pos"]
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
    # a row group's side reads hold about half a row block: kept beside the
    # paths and a block buffer of exponentials, they raise the peak little
    group_bytes = 16 * len(levels) * forms * (1 + sums) * len(reads)

    def read_side(w, r):
        if isinstance(w, LinePaths):
            return _read_line_side(w.side(r == "pos"), levels, sums)
        return _read_side(w[:, -n:] if r == "pos" else w[:, n - 1::-1], mirrors[r], forms, levels, sums)

    def worker(rng, count):
        w = _block_paths(model, grid, rng, count)
        expo = (rng.exponential(size=count),) if with_expo else ()
        parts = {name: [] for name in kernels}
        for group in engine.row_blocks(count, group_bytes):
            read = {r: read_side(w[group], r) for r in reads}
            group_expo = tuple(e[group] for e in expo)
            for name, part in parts.items():
                k = kernels[name]
                inputs = pairings(*([f if k.sums else f[0] for f in read[r]] for r in k.reads))
                part.append(_form_mean(k.values(*i, *(group_expo if k.expo else ()), delta) for i in inputs))
        # the paths are freed before the groups' values are joined
        del w
        values = {name: np.concatenate(part) for name, part in parts.items()}
        if correction:
            return {name: v[:, 1:] - v[:, :1] for name, v in values.items()}
        return values

    return worker, seed, reps, n if one_sided else 2 * n + 1, int(correction)


def _run_exact(model: Model, delta: float, reps: int, methods, horizon: int | None,
               seed: int, reversals: bool = True) -> dict:
    """Registry ``methods`` on shared paths, each read at ``horizon`` (default:
    ``default_horizon``) and checked against half of it by the doubling rule.

    The horizon H is read in two levels (see the module docstring) when the
    base level H0 has 4 H0 <= H. Returns the EstimateResults by method.
    Without ``reversals`` an alpha = 1 path is read as the antithetic pair
    only.
    """
    _require(delta > 0, "delta must be positive")
    if horizon is None:
        horizon = default_horizon(model, delta)
    _require(horizon >= 2, "horizon must be at least 2 grid points")
    kernels = {m: _KERNELS[m] for m in methods}
    base = default_horizon(model, delta, math.sqrt(HORIZON_TAIL))
    # records read in more than one form say so
    antithetic = True if antithetic_shift(model, GridSpec(delta)) is not None else None
    if 4 * base > horizon:
        at = engine.run(*_shared_path_run(model, delta, reps, kernels, [horizon // 2, horizon], seed,
                                          reversals=reversals))
        tail = {}
    else:
        # the two levels are independent runs, so their chunks share one pool
        moments, long = engine.run_all([
            _shared_path_run(model, delta, reps, kernels, [base], seed, reversals=reversals),
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
    return results


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
    return _run_exact(model, delta, reps, (method,), horizon, seed)[method]


# --- the window sup c(k) ------------------------------------------------------


# NumPy runs an accumulate along the rows of an array without holding the GIL
# only over more than 500 rows. The block kernel's row blocks hold that many
# where their buffers then take at most GIL_FREE_BYTES (paths up to [-129, 129]
# on the alpha = 2 line and [-195, 195] elsewhere), so that its chunks on
# several threads overlap.
GIL_FREE_ROWS = 501
GIL_FREE_BYTES = 3 << 20


def _block_sup_values(paths: np.ndarray | LinePaths, radii) -> np.ndarray:
    """Per-path estimates of c(r) = E sup_{0<=i<=r} exp(w(delta i)) for each r
    in ``radii``, read from the central window [-r, r] of the paths, as a
    (count, len(radii)) array.

    The paths are a path matrix, whose row blocks are read as views, or the
    slopes of the alpha = 2 line (``LinePaths``), whose row blocks are built
    in a row buffer. A window of r + 1 columns is the centre column r, k lags
    to its left and r - k to its right: its maximum is the larger of the
    running maxima outward from the centre at k and r - k, and its sum of
    exp(w) the sum of the running sums there less the centre's exp(0) = 1,
    counted in both; no shift is needed (``_values_ratio``). The rows are
    walked in blocks through the row buffer and four work buffers, allocated
    once per call and C-ordered, so each row adds in the same order whatever
    the number of rows.
    """
    count, n_cols = paths.shape
    centre = n_cols // 2
    line = isinstance(paths, LinePaths)
    top = max(radii)
    # a row takes 4 top + 4 floats of the buffers, and n_cols more on the line;
    # the rows split evenly into blocks of at least per_block rows, or one block
    per_block = max(2, min(GIL_FREE_ROWS, GIL_FREE_BYTES // (8 * (4 * top + 4 + line * n_cols))))
    n_blocks = max(1, count // per_block)
    edges = [count * i // n_blocks for i in range(n_blocks + 1)]
    size = -(-count // n_blocks)
    row_buf = np.empty((size, n_cols)) if line else None
    bufs = [np.empty(size * (top + 1)) for _ in range(4)]
    out = np.empty((count, len(radii)))
    for block in map(slice, edges, edges[1:]):
        n = block.stop - block.start
        rows = paths.rows(block, row_buf[:n]) if line else paths[block]
        for j, r in enumerate(radii):
            w = rows[:, centre - r:centre + r + 1]
            left_max, right_max, left_sum, right_sum = (buf[:n * (r + 1)].reshape(n, r + 1) for buf in bufs)
            # column k: the centre and the k lags to its left, or to its right;
            # each cumsum runs in place, each term read before it is written
            np.maximum.accumulate(w[:, r::-1], axis=1, out=left_max)
            np.maximum.accumulate(w[:, r:], axis=1, out=right_max)
            np.cumsum(np.exp(w[:, r::-1], out=left_sum), axis=1, out=left_sum)
            np.cumsum(np.exp(w[:, r:], out=right_sum), axis=1, out=right_sum)
            # the window of k lags to the left and r - k to the right covers grid
            # indices (0..r) - k, so the sum over k = 0..r is over all shifts
            np.maximum(left_max, right_max[:, ::-1], out=left_max)
            np.exp(left_max, out=left_max)
            np.add(left_sum, right_sum[:, ::-1], out=left_sum)
            left_sum -= 1.0
            out[block, j] = np.divide(left_max, left_sum, out=left_max).sum(axis=1)
    return out


def _window_sups(model: Model, step: float, radii, reps: int, seed: int,
                 combine: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``engine.run`` of ``combine`` applied to the block kernel's estimates of
    c(r) for each r in ``radii`` (``_block_sup_values``), one path a
    replication on the grid of step ``step`` on [-max r, max r]."""
    grid = GridSpec(step, -max(radii), max(radii))

    def worker(rng, count):
        return combine(_block_sup_values(_block_paths(model, grid, rng, count), radii))

    return engine.run(worker, seed, reps, grid.n_points)


def est_definitional(
    model: Model,
    delta: float,
    T: float | None,
    reps: int,
    *,
    mesh: float | None = None,
    seed: int = 0,
) -> EstimateResult:
    """(1/T) E sup of exp(w) over the grid in [0, T]: c(k) / T, with
    k = floor(T / step) and c(k) = E sup_{0<=i<=k} exp(w(step i)).

    c(k) is read by the block kernel's shift-invariant ratio
    (``_block_sup_values``) from one two-sided path on [-k, k], so the value
    per path is at most (k + 1) / T. It is at least H^delta at every T
    (the module docstring), which makes it a dominance check rather than
    an exact estimator. ``T`` None is the default horizon max(2, 2 delta).
    ``delta = 0`` with a ``mesh`` approximates the continuous-time
    functional; that limit is specific to the fractional-Brownian family
    and is flagged as such. For delta > 0 the grid step is delta, and
    ``mesh`` is neither used nor recorded. k = 0 leaves only the origin:
    the estimate is 1/T, with standard error 0, from no draw.
    """
    if T is None:
        T = max(2.0, 2.0 * delta)
    _require(T > 0, "T must be positive")
    flags: tuple[str, ...] = ()
    if delta == 0:
        _require(mesh is not None and mesh > 0, "delta = 0 requires a positive mesh")
        step = mesh
        flags = ("continuum-mesh", "family-specific-limit")
    else:
        _require(delta > 0, "delta must be nonnegative")
        step, mesh = delta, None
    k = int(math.floor(T / step + 1e-12))
    if k == 0:
        # a run that draws nothing still takes the engine's replication check
        engine.chunk_plan(reps, 1)
        mean, se = 1.0 / T, 0.0
    else:
        (mean,), (se,) = _window_sups(model, step, [k], reps, seed, lambda sups: sups[:, 0] / T)
    return EstimateResult("definitional", delta, float(mean), float(se), reps, k, True, seed,
                          mesh=mesh, flags=flags)


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
    definitional functional c(k) / T is at least H^delta at every T, so it
    enters through a one-sided test instead: ``definitional_dominates``.
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
    feeds every exact estimator, so disagreement is formula error rather
    than sampling noise. The five exact representations, truncated as by
    ``estimate``, enter the pairwise overlap matrix; the definitional
    functional c(k) / T, at least H^delta at every T, is checked for
    dominance instead, over [0, T], by default T = max(2, 2 delta). It is
    the ``est_definitional`` run of seed + 1, on paths independent of the
    exact routes', so the hypot of the two standard errors in the
    dominance test is the standard error of their difference. At
    alpha = 1 an exact route's replication is the antithetic pair, not the
    sixteen forms of ``estimate``: the overlap gate compares 95% intervals
    pair by pair, with no family-wise level, so it stays on the reading it
    was set for.
    """
    _require(delta > 0, "delta must be positive")
    _require(T is None or T > 0, "T must be positive")
    results = _run_exact(model, delta, reps, EXACT_METHODS, horizon, seed, reversals=False)
    overlap = {(a, b): _ci_overlap(results[a], results[b])
               for i, a in enumerate(EXACT_METHODS) for b in EXACT_METHODS[i + 1:]}
    d = results["definitional"] = est_definitional(model, delta, T, reps, seed=seed + 1)
    dominates = all(
        d.estimate + 3.0 * math.hypot(d.stderr, results[m].stderr) >= results[m].estimate
        for m in EXACT_METHODS
    )
    flags = ("underpowered",) if reps < 1000 else ()
    return CrosscheckReport(results=results, overlap=overlap, all_overlap=all(overlap.values()),
                            definitional_dominates=dominates, flags=flags)
