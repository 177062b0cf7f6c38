"""Lower-tail probabilities of fractional Brownian motion on the
reciprocal grid {1/k : 0 < |k| <= K} and their scaled limit.

Self-similarity links these probabilities to the continuous-time grid
constant of the classical family:

    eta^(-2/alpha) P{ b_alpha(1/k) <= eta  for all 0 < |k| <= K -> inf }
        -> 2^(1/alpha) * H_{b_alpha}   as eta -> 0,

where b_alpha is standard fractional Brownian motion (variance |t|^alpha).
The probability is estimated by Monte Carlo with the cutoff K doubled
until stable; an affine-in-eta fit of the scaled values extrapolates the
eta -> 0 constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import engine
from .models import _cholesky_factor

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


def _one_sided_indicators(eta: float, k_max: int, levels: np.ndarray,
                          rng: np.random.Generator, count: int) -> np.ndarray:
    """Indicators of {b(1/k) <= eta for all k <= K_level}, one Brownian path per row.

    Valid for alpha = 1 only: the increments over the ascending reciprocal
    times are independent, so the path is an exact cumulative sum. Paths are
    drawn and reduced one row block at a time.
    """
    t = 1.0 / np.arange(k_max, 0, -1, dtype=float)  # ascending times
    std = np.sqrt(np.diff(t, prepend=0.0))
    out = np.empty((count, levels.size))
    for block in engine.row_blocks(count, 8 * k_max):
        b = np.cumsum(rng.standard_normal((block.stop - block.start, k_max)) * std[None, :], axis=1)
        by_k = b[:, ::-1]  # column j <-> k = j + 1
        run = np.maximum.accumulate(by_k, axis=1)
        out[block] = run[:, levels - 1] <= eta
    return out


def _two_sided_indicators(eta: float, levels: np.ndarray, rng: np.random.Generator,
                          count: int, factor: np.ndarray) -> np.ndarray:
    z = rng.standard_normal((count, factor.shape[0]))
    b = z @ factor.T
    run = np.maximum.accumulate(b, axis=1)
    return (run[:, 2 * levels - 1] <= eta).astype(float)


def _reciprocal_factor(alpha: float, k_max: int) -> np.ndarray:
    """Cholesky factor of Cov b_alpha on (1/1, -1/1, 1/2, -1/2, ...).

    Columns are ordered by |k| so that nested cutoffs are prefixes. The
    times cluster at 0, so the covariance may need a diagonal jitter.
    """
    k = np.arange(1, k_max + 1, dtype=float)
    t = np.empty(2 * k_max)
    t[0::2] = 1.0 / k
    t[1::2] = -1.0 / k
    at = np.abs(t)
    return _cholesky_factor(
        0.5 * (at[:, None] ** alpha + at[None, :] ** alpha - np.abs(t[:, None] - t[None, :]) ** alpha))


def est_smallball_prob(
    alpha: float,
    eta: float,
    cutoff: int,
    reps: int,
    *,
    seed: int = 0,
    threads: int | None = None,
    factorize: bool | None = None,
    doublings: int = 1,
    rel_tol: float = 0.1,
) -> SmallBallEstimate:
    """P{b_alpha(1/k) <= eta for all 0 < |k| <= K}, K doubled until stable.

    For alpha = 1 the two sides of the grid are independent Brownian
    motions, so the probability factorizes; each side is then estimated
    from its own replications and the product taken (``factorize`` forces
    the choice). Other alphas sample the joint two-sided grid exactly from
    its covariance.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if eta <= 0 or cutoff < 1 or reps < 2:
        raise ValueError("need eta > 0, cutoff >= 1 and reps >= 2")
    if factorize is None:
        factorize = alpha == 1.0
    if factorize and alpha != 1.0:
        raise ValueError("side factorization is exact only for alpha = 1")
    levels = np.asarray([cutoff * 2**j for j in range(max(1, doublings + 1))])
    k_max = int(levels[-1])

    if factorize:
        def worker(rng, count):
            return _one_sided_indicators(eta, k_max, levels, rng, count)

        (q_pos, se_pos), (q_neg, se_neg) = (engine.run(worker, seed, reps, k_max, threads, salt=salt)
                                            for salt in (1, 2))
        probs = q_pos * q_neg
        ses = np.sqrt((q_pos * se_neg) ** 2 + (q_neg * se_pos) ** 2)
    else:
        factor = _reciprocal_factor(alpha, k_max)

        def worker(rng, count):
            return _two_sided_indicators(eta, levels, rng, count, factor)

        probs, ses = engine.run(worker, seed, reps, 2 * k_max, threads)

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
        factorized=factorize,
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
