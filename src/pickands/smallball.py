"""Lower-tail probabilities of fractional Brownian motion on the
reciprocal grid {1/k : 0 < |k| <= K} and their scaled limit.

Self-similarity links these probabilities to the continuous-time grid
constant of the classical family:

    eta^(-2/alpha) P{ b_alpha(1/k) <= eta  for all 0 < |k| <= K -> inf }
        -> 2^(1/alpha) * H_{b_alpha}   as eta -> 0,

where b_alpha is standard fractional Brownian motion (variance |t|^alpha).

The process |t|^alpha b_alpha(1/t) is again standard fBm (time inversion),
so the event is {b_alpha(k) <= eta |k|^alpha for all 0 < |k| <= K} on the
integer grid. For alpha = 1 the two sides k > 0 and k < 0 are independent
Gaussian random walks; each is drawn step block by step block and stops at
its first crossing of eta k, and the probability is the product of the two
one-sided probabilities, each estimated from the same paths. At alpha = 2
b_alpha(k) = Z k is a line, so each side of Z k - eta k^2 is a parabola
with its vertex at Z / (2 eta), and its maximum is read in closed form from
Z. Other alphas draw whole paths on -K..K with the library's exact grid
sampler, since a path of correlated increments cannot be stopped part-way.
The probability is estimated by Monte Carlo at twice the given cutoff and
checked for stability against the cutoff itself; an affine-in-eta fit of
the scaled values extrapolates the eta -> 0 constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .estimators import _ndtr
from .models import (
    GridSpec,
    VarianceFunction,
    gaussian_b_matrix,
    independent_sides,
    is_line,
    line_maxima,
    line_slopes,
)
from .report import Record

__all__ = [
    "SmallBallEstimate",
    "SmallBallExtrapolation",
    "suggested_cutoff",
    "est_smallball_prob",
    "smallball_extrapolate",
]


@dataclass(frozen=True)
class SmallBallEstimate(Record):
    """Monte Carlo estimate of the reciprocal-grid lower-tail probability.

    ``scaled`` is eta^(-2/alpha) * prob, the quantity with a finite
    eta -> 0 limit, and ``scaled_stderr`` its standard error.
    """

    alpha: float
    eta: float
    cutoff: int
    prob: float
    stderr: float
    scaled: float
    scaled_stderr: float
    reps: int
    seed: int
    stable: bool
    factorized: bool
    flags: tuple[str, ...] = ()


# suggested_cutoff's tolerance for the discarded constraints, as a share of
# the probability scale eta^(2/alpha), and the largest cutoff it returns.
CUTOFF_TAIL_SHARE = 0.01
CUTOFF_CAP = 1 << 20
# Width of the first column block of an alpha = 1 side walk; later blocks
# double (see _walk_edges).
WALK_FIRST_BLOCK = 4


def _check_alpha_eta(alpha: float, eta: float) -> None:
    if not (0.0 < alpha <= 2.0 and eta > 0.0):
        raise ValueError(f"need 0 < alpha <= 2 and eta > 0, got alpha={alpha}, eta={eta}")


def suggested_cutoff(alpha: float, eta: float) -> int:
    """Smallest power-of-two K, from 64 up to CUTOFF_CAP, whose discarded
    constraints are negligible.

    Constraints at 1/k have marginal violation probability
    Phi(-eta k^(alpha/2)); K is the first power of two at which the summed
    tail is below CUTOFF_TAIL_SHARE of the expected probability scale
    eta^(2/alpha). A K whose terms up to 2K alone break the tolerance is
    passed over on one term. From the first K left, every term is computed
    once, 4096 at a time, until a block ends on a term below 1e-4 of the
    tolerance, and the tail at each power of two is read off their suffix
    sums. Raises ValueError when even CUTOFF_CAP leaves too large a tail.
    """
    _check_alpha_eta(alpha, eta)
    tail_tol = CUTOFF_TAIL_SHARE * eta ** (2.0 / alpha)
    k = 64
    # the K terms on (K, 2K] are each at least the one at 2K
    while k <= CUTOFF_CAP and k * _ndtr(-eta * (2 * k) ** (alpha / 2.0)) > tail_tol:
        k *= 2
    if k <= CUTOFF_CAP:
        first, blocks = k, []
        # a run of terms past 2 * CUTOFF_CAP means those on (CUTOFF_CAP, 2 * CUTOFF_CAP],
        # each above 1e-4 of the tolerance, already break it
        for start in range(first + 1, 2 * CUTOFF_CAP + 1, 4096):
            j = np.arange(start, start + 4096, dtype=float)
            blocks.append(np.fromiter(map(_ndtr, (-eta * j ** (alpha / 2.0)).tolist()), float, j.size))
            if blocks[-1][-1] < tail_tol * 1e-4:
                break
        tails = np.cumsum(np.concatenate(blocks)[::-1])[::-1]  # tails[i]: the terms past first + i
        while k <= CUTOFF_CAP:
            if k - first >= tails.size or tails[k - first] <= tail_tol:
                return k
            k *= 2
    raise ValueError(f"the constraints beyond the largest automatic cutoff {CUTOFF_CAP} are not "
                     f"negligible at alpha={alpha}, eta={eta}; pass an explicit cutoff (--cutoff)")


def _walk_edges(levels: np.ndarray) -> list[int]:
    """Column-block edges of an alpha = 1 side walk: WALK_FIRST_BLOCK doubling
    up to the last level, with every level an edge as well."""
    k_max = int(levels[-1])
    edges = {int(level) for level in levels}
    edge = WALK_FIRST_BLOCK
    while edge < k_max:
        edges.add(edge)
        edge *= 2
    return sorted(edges)


def _side_indicators(vf: VarianceFunction, eta: float, levels: np.ndarray,
                     rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2, levels.size) indicators of {b(1/k) <= eta for 0 < k <= L} (side 0)
    and {b(1/k) <= eta for -L <= k < 0} (side 1), one path per row, for each
    cutoff L in ``levels`` (increasing), where b has variance function
    ``vf = VarianceFunction.power(alpha, 1.0)``, i.e. sigma^2(t) = |t|^alpha.

    By time inversion b~(t) = |t|^alpha b(1/t) is again fBm, so the events are
    {b~(k) <= eta |k|^alpha}. At alpha = 1 each side of b~ is an independent
    random walk with N(0, 1) steps. It is drawn in column blocks
    (``_walk_edges``), and a row stops drawing once its walk has crossed
    eta k: survivors carry their position into the next block. All normals
    come from ``rng`` in a fixed order, side 0's blocks and then side 1's.
    At alpha = 2, b~(k) = z k, and each side's maxima of z k - eta k^2 at
    the levels are read in closed form, around the vertex z / (2 eta), from
    the one normal z of each path (``models.line_maxima``): the same
    indicators, from the same draws, as the path matrix. Other alphas read
    the events off exact draws of b~ on the integer grid -K..K, drawn one
    row block at a time, from each side's maxima of b~(k) - eta |k|^alpha
    read at the levels only (``engine.running_at``).
    """
    if independent_sides(vf):
        out = np.zeros((count, 2, levels.size))
        edges = _walk_edges(levels)
        for side in range(2):
            rows, pos, lo = np.arange(count), np.zeros(count), 0
            for hi in edges:
                walk = rng.standard_normal((rows.size, hi - lo))
                walk[:, 0] += pos
                np.cumsum(walk, axis=1, out=walk)
                below = np.all(walk <= eta * np.arange(lo + 1, hi + 1), axis=1)
                rows, pos, lo = rows[below], walk[below, -1], hi
                out[rows[:, None], side, np.flatnonzero(levels == hi)] = 1.0
        return out
    k_max = int(levels[-1])
    grid = GridSpec(1.0, -k_max, k_max)
    t = grid.times()
    barrier = eta * np.abs(t) ** vf.alpha
    # column j <-> |k| = j + 1, outward from the origin
    sides = (slice(k_max + 1, None), slice(k_max - 1, None, -1))
    out = np.empty((count, 2, levels.size))
    if is_line(vf):
        c = line_slopes(vf, rng, count)
        for side, s in enumerate(sides):
            out[:, side] = line_maxima(c, t[s], barrier[s], eta, levels) <= 0.0
        return out
    for block in engine.row_blocks(count, 8 * grid.n_points):
        x = gaussian_b_matrix(vf, grid, rng, block.stop - block.start)
        x -= barrier
        for side, s in enumerate(sides):
            out[block, side] = engine.running_at(np.maximum, x[:, s], levels) <= 0.0
    return out


def est_smallball_prob(
    alpha: float,
    eta: float,
    cutoff: int,
    reps: int,
    *,
    seed: int = 0,
) -> SmallBallEstimate:
    """P{b_alpha(1/k) <= eta for all 0 < |k| <= K} at K = 2 * cutoff.

    Since |t|^alpha b_alpha(1/t) is again fBm, the probability is that of
    {b_alpha(k) <= eta |k|^alpha for all 0 < |k| <= K} on the integer grid,
    which is sampled exactly. For alpha = 1 the two sides of the grid are
    independent Brownian motions, so the probability factorizes; it is then
    estimated by the product of the two side means of the same paths, which
    is unbiased and has less variance than the joint indicator's mean. Other
    alphas average the joint indicator. The result is flagged unstable
    when doubling K from ``cutoff`` moved it by more than the doubling rule
    allows (``engine.doubling_stable``).
    """
    _check_alpha_eta(alpha, eta)
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    vf = VarianceFunction.power(alpha, 1.0)  # one per run: the embedding cache keys on its identity
    factorized = independent_sides(vf)
    levels = np.asarray([cutoff, 2 * cutoff])
    k_max = int(levels[-1])

    def worker(rng, count):
        sides = _side_indicators(vf, eta, levels, rng, count)
        return sides if factorized else sides[:, 0] * sides[:, 1]

    means, ses = engine.run(worker, seed, reps, 2 * k_max + 1)
    if factorized:
        (q_pos, q_neg), (se_pos, se_neg) = means.reshape(2, -1), ses.reshape(2, -1)
        probs = q_pos * q_neg
        ses = np.sqrt((q_pos * se_neg) ** 2 + (q_neg * se_pos) ** 2)
    else:
        probs = means

    stable = engine.doubling_stable(probs, ses)
    flags = [] if stable else ["cutoff-unstable"]
    if probs[-1] == 0.0:
        flags.append("zero-probability; increase reps or eta")
    prob, stderr = float(probs[-1]), float(ses[-1])
    return SmallBallEstimate(
        alpha=alpha,
        eta=eta,
        cutoff=k_max,
        prob=prob,
        stderr=stderr,
        scaled=eta ** (-2.0 / alpha) * prob,
        scaled_stderr=eta ** (-2.0 / alpha) * stderr,
        reps=reps,
        seed=seed,
        stable=stable,
        factorized=factorized,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class SmallBallExtrapolation(Record):
    """Weighted affine fit of the scaled probabilities against eta."""

    intercept: float
    intercept_stderr: float
    slope: float
    slope_stderr: float
    flags: tuple[str, ...] = ()


def smallball_extrapolate(points, alpha: float) -> SmallBallExtrapolation:
    """Extrapolate eta^(-2/alpha) p(eta) to eta = 0 by a weighted line.

    ``points`` is a sequence of (eta, prob, stderr) triples with at least
    three decreasing etas. The limit has no established rate; the affine
    model is a pragmatic choice, and a sequence that is non-monotone
    beyond noise is flagged rather than rejected.
    """
    pts = sorted(((float(e), float(p), float(s)) for e, p, s in points), key=lambda r: -r[0])
    if len(pts) < 3:
        raise ValueError("need at least three (eta, prob, stderr) points")
    eta = np.array([r[0] for r in pts])
    if np.any(np.diff(eta) >= 0):
        raise ValueError("etas must be distinct")
    scale = eta ** (-2.0 / alpha)
    y = scale * np.array([r[1] for r in pts])
    se = scale * np.array([r[2] for r in pts])
    if np.any(se <= 0):
        raise ValueError("stderr values must be positive")
    w = 1.0 / se**2
    x = np.stack([np.ones_like(eta), eta], axis=1)
    xtwx = x.T @ (w[:, None] * x)
    cov = np.linalg.inv(xtwx)
    beta = cov @ (x.T @ (w * y))
    flags = []
    diffs = np.diff(y)
    trend = np.sign(diffs.sum()) or 1.0
    comb = np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
    if np.any((np.sign(diffs) == -trend) & (np.abs(diffs) > 3.0 * comb)):
        flags.append("fit-quality: non-monotone beyond noise")
    resid = (y - x @ beta) / se
    if np.any(np.abs(resid) > 3.0):
        flags.append("fit-quality: affine model misfit")
    return SmallBallExtrapolation(
        intercept=float(beta[0]),
        intercept_stderr=float(math.sqrt(cov[0, 0])),
        slope=float(beta[1]),
        slope_stderr=float(math.sqrt(cov[1, 1])),
        flags=tuple(flags),
    )
