"""Lower-tail probabilities of fractional Brownian motion on the
reciprocal grid {1/k : 0 < |k| <= K} and their scaled limit.

Self-similarity links these probabilities to the continuous-time grid
constant of the classical family:

    eta^(-2/alpha) P{ b_alpha(1/k) <= eta  for all 0 < |k| <= K -> inf }
        -> 2^(1/alpha) * H_{b_alpha}   as eta -> 0,

where b_alpha is standard fractional Brownian motion (variance |t|^alpha).

The process |t|^alpha b_alpha(1/t) is again standard fBm (time inversion),
so the event is {b_alpha(k) <= eta |k|^alpha for all 0 < |k| <= K} on the
integer grid, which the library's exact grid sampler draws for every
alpha. For alpha = 1 the two sides k > 0 and k < 0 are independent and the
probability is the product of the two one-sided probabilities, each
estimated from the same paths. The probability is estimated by Monte Carlo
with the cutoff K doubled until stable; an affine-in-eta fit of the scaled
values extrapolates the eta -> 0 constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import engine
from .models import GridSpec, VarianceFunction, gaussian_b_matrix

__all__ = [
    "SmallBallEstimate",
    "SmallBallExtrapolation",
    "suggested_cutoff",
    "est_smallball_prob",
    "smallball_extrapolate",
]


@dataclass(frozen=True)
class SmallBallEstimate:
    """Monte Carlo estimate of the reciprocal-grid lower-tail probability."""

    alpha: float
    eta: float
    prob: float
    stderr: float
    cutoff: int
    replications: int
    seed: int
    stable: bool
    factorized: bool
    flags: tuple[str, ...] = ()

    @property
    def scaled(self) -> float:
        """eta^(-2/alpha) * prob, the quantity with a finite eta -> 0 limit."""
        return self.eta ** (-2.0 / self.alpha) * self.prob

    @property
    def scaled_stderr(self) -> float:
        return self.eta ** (-2.0 / self.alpha) * self.stderr

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "eta": self.eta,
            "cutoff": self.cutoff,
            "prob": self.prob,
            "stderr": self.stderr,
            "scaled": self.scaled,
            "scaled_stderr": self.scaled_stderr,
            "reps": self.replications,
            "seed": self.seed,
            "stable": self.stable,
            "factorized": self.factorized,
            "flags": list(self.flags),
        }


def suggested_cutoff(alpha: float, eta: float, tail_tol: float | None = None) -> int:
    """Smallest power-of-two K whose discarded constraints are negligible.

    Constraints at 1/k have marginal violation probability
    Phi(-eta k^(alpha/2)); K is grown until the summed tail drops below
    ``tail_tol`` (default: 1% of the expected probability scale
    eta^(2/alpha)).
    """
    if tail_tol is None:
        tail_tol = 0.01 * eta ** (2.0 / alpha)
    k = 64
    while k < (1 << 20):
        tail = 0.0
        j = k + 1
        while True:
            block = np.arange(j, j + 4096, dtype=float)
            vals = ndtr(-eta * block ** (alpha / 2.0))
            tail += float(vals.sum())
            if vals[-1] < tail_tol * 1e-4 or tail > tail_tol:
                break
            j += 4096
        if tail <= tail_tol:
            return k
        k *= 2
    return k


def _side_indicators(alpha: float, eta: float, levels: np.ndarray,
                     rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2, levels.size) indicators of {b(1/k) <= eta for 0 < k <= L} (side 0)
    and {b(1/k) <= eta for -L <= k < 0} (side 1), one path per row, for each
    cutoff L in ``levels``.

    By time inversion b~(t) = |t|^alpha b(1/t) is again fBm, so the events are
    {b~(k) <= eta |k|^alpha}, read off exact draws of b~ on the integer grid
    -K..K. Paths are drawn and reduced one row block at a time.
    """
    k_max = int(levels[-1])
    vf = VarianceFunction.power(alpha, 1.0)
    grid = GridSpec(1.0, -k_max, k_max)
    barrier = eta * np.abs(grid.times()) ** alpha
    out = np.empty((count, 2, levels.size))
    for block in engine.row_blocks(count, 8 * grid.n_points):
        x = gaussian_b_matrix(vf, grid, rng, block.stop - block.start)
        x -= barrier
        # running maxima outward from the origin: column j <-> |k| = j + 1
        for side, run in enumerate((x[:, k_max + 1:], x[:, k_max - 1::-1])):
            np.maximum.accumulate(run, axis=1, out=run)
            out[block, side] = run[:, levels - 1] <= 0.0
    return out


def est_smallball_prob(
    alpha: float,
    eta: float,
    cutoff: int,
    reps: int,
    *,
    seed: int = 0,
    threads: int | None = None,
    doublings: int = 1,
    rel_tol: float = 0.1,
) -> SmallBallEstimate:
    """P{b_alpha(1/k) <= eta for all 0 < |k| <= K}, K doubled until stable.

    Since |t|^alpha b_alpha(1/t) is again fBm, the probability is that of
    {b_alpha(k) <= eta |k|^alpha for all 0 < |k| <= K} on the integer grid,
    which is sampled exactly. For alpha = 1 the two sides of the grid are
    independent Brownian motions, so the probability factorizes; it is then
    estimated by the product of the two side means of the same paths, which
    is unbiased and has less variance than the joint indicator's mean. Other
    alphas average the joint indicator.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if eta <= 0 or cutoff < 1 or reps < 2:
        raise ValueError("need eta > 0, cutoff >= 1 and reps >= 2")
    independent_sides = alpha == 1.0
    levels = np.asarray([cutoff * 2**j for j in range(max(1, doublings + 1))])
    k_max = int(levels[-1])

    def worker(rng, count):
        sides = _side_indicators(alpha, eta, levels, rng, count)
        return sides if independent_sides else sides[:, 0] * sides[:, 1]

    means, ses = engine.run(worker, seed, reps, 2 * k_max + 1, threads)
    if independent_sides:
        (q_pos, q_neg), (se_pos, se_neg) = means.reshape(2, -1), ses.reshape(2, -1)
        probs = q_pos * q_neg
        ses = np.sqrt((q_pos * se_neg) ** 2 + (q_neg * se_pos) ** 2)
    else:
        probs = means

    lvl, stable = engine.select_level(probs, ses, rel_tol)
    flags = [] if stable else ["cutoff-unstable"]
    if probs[lvl] == 0.0:
        flags.append("zero-probability; increase reps or eta")
    return SmallBallEstimate(
        alpha=alpha,
        eta=eta,
        prob=float(probs[lvl]),
        stderr=float(ses[lvl]),
        cutoff=int(levels[lvl]),
        replications=reps,
        seed=seed,
        stable=stable,
        factorized=independent_sides,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class SmallBallExtrapolation:
    """Weighted affine fit of the scaled probabilities against eta."""

    intercept: float
    intercept_stderr: float
    slope: float
    slope_stderr: float
    scaled: tuple = ()
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "intercept_stderr": self.intercept_stderr,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "flags": list(self.flags),
        }


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
        scaled=tuple(zip(eta.tolist(), y.tolist(), se.tolist())),
        flags=tuple(flags),
    )
