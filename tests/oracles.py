"""Independent numerical oracles used to derive expected test values.

These deliberately avoid the library's sampling machinery: the random-walk
oracles integrate killed transition densities on a grid, and the
degenerate-family oracles reduce to one-dimensional quadrature over the
single Gaussian that drives the alpha = 2 family, and the random-walk
models also have a closed-form series by Spitzer's identity. Frozen
constants produced by these routines are pinned in FROZEN below and
re-verified by tests/test_oracles.py.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr


def alpha2_constant(delta: float) -> float:
    """Grid constant of the alpha = 2 family: (Phi(d/sqrt2) - Phi(-d/sqrt2)) / d."""
    z = delta / np.sqrt(2.0)
    return (ndtr(z) - ndtr(-z)) / delta


def _emg_cdf(a: float, mu: float, sigma: float) -> float:
    """P(E + N(mu, sigma^2) <= a) with E unit exponential."""
    z = (a - mu) / sigma
    return float(ndtr(z) - np.exp(0.5 * sigma**2 - (a - mu) + log_ndtr(z - sigma)))


def _killed_walk(mu: float, sigma: float, v: np.ndarray, x: np.ndarray, h: float,
                 x_min: float, safe0: float, tol_rel: float) -> float:
    """Total survival mass of a density iterated under N(mu, sigma^2) steps
    killed above 0; mass escaping below x_min counts as surviving (the
    return probability from there is exp(2 mu |x_min| / sigma^2))."""
    d = (x[:, None] - x[None, :] - mu) / sigma
    kernel = np.exp(-0.5 * d * d) / (np.sqrt(2.0 * np.pi) * sigma) * h
    escape = ndtr((x_min - x - mu) / sigma)
    safe = safe0
    for _ in range(2_000_000):
        safe += float(v @ escape)
        v = kernel @ v
        if v.sum() < tol_rel * max(safe, 1e-9):
            break
    return safe + float(v.sum())


def _default_x_min(mu: float, sigma: float, h: float) -> float:
    """Lower cut at least max(16, |mu| + 8 sigma) deep and a whole number of
    h-cells below the barrier 0, so the top cell ends exactly at 0 instead of
    overshooting it."""
    return -h * np.ceil(max(16.0, abs(mu) + 8.0 * sigma) / h)


def exceedance_probability(mu: float, sigma: float, h: float | None = None,
                           x_min: float | None = None, tol_rel: float = 1e-10) -> float:
    """P{E + S_i <= 0 for all i >= 1} for a Gaussian random walk S with
    N(mu, sigma^2) steps, mu < 0, and an independent unit exponential E.

    delta * H^delta equals this probability for any model whose w is a
    random walk on the grid (the alpha = 1 family: steps N(-delta,
    2 delta); the Brownian Levy model: steps N(-delta/2, delta))."""
    if h is None:
        h = min(0.01, sigma / 6.0)
    if x_min is None:
        x_min = _default_x_min(mu, sigma, h)
    x = np.arange(x_min, 0.0, h) + h / 2.0
    logf = 0.5 * sigma**2 - (x - mu) + log_ndtr((x - mu - sigma**2) / sigma)
    v = np.exp(logf) * h
    return _killed_walk(mu, sigma, v, x, h, x_min, _emg_cdf(x_min, mu, sigma), tol_rel)


def stay_below_probability(mu: float, sigma: float, h: float | None = None,
                           x_min: float | None = None, tol_rel: float = 1e-10) -> float:
    """q = P{S_i <= 0 for all i >= 1} (no exponential start).

    For the alpha = 1 family the two-sided argmax formula factorizes into
    independent sides, so H^delta = q^2 / delta as well."""
    if h is None:
        h = min(0.01, sigma / 6.0)
    if x_min is None:
        x_min = _default_x_min(mu, sigma, h)
    x = np.arange(x_min, 0.0, h) + h / 2.0
    v = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (np.sqrt(2.0 * np.pi) * sigma) * h
    return _killed_walk(mu, sigma, v, x, h, x_min, float(ndtr((x_min - mu) / sigma)), tol_rel)


def alpha1_constant(delta: float, **kw) -> float:
    """H^delta of the alpha = 1 family via the killed random walk."""
    return exceedance_probability(-delta, np.sqrt(2.0 * delta), **kw) / delta


def levy_brownian_constant(delta: float, **kw) -> float:
    """H^delta of the standard Brownian Levy model via the killed random walk."""
    return exceedance_probability(-delta / 2.0, np.sqrt(delta), **kw) / delta


def spitzer_probability(mu: float, sigma: float, tail: float = 12.0) -> float:
    """q^2 = exp(-2 sum_{k>=1} P{S_k > 0} / k) for a Gaussian random walk S with
    N(mu, sigma^2) steps, mu < 0, where P{S_k > 0} = Phi(-sqrt(k) |mu| / sigma).

    By Spitzer's identity q = P{S_k <= 0 for all k >= 1} = exp(-sum_k P{S_k > 0} / k).
    For the random-walk models (steps with 2 mu + sigma^2 = 0) the argmax
    formula factorizes into two independent sides with the law of S, so
    q^2 = delta * H^delta. The series stops where sqrt(k) |mu| / sigma passes
    ``tail``, beyond which Phi(-a) < 2e-33."""
    c = abs(mu) / sigma
    k = np.arange(1.0, np.ceil((tail / c) ** 2) + 1.0)
    return float(np.exp(-2.0 * np.sum(ndtr(-c * np.sqrt(k)) / k)))


def alpha1_series(delta: float) -> float:
    """H^delta of the alpha = 1 family by Spitzer's identity: a_k = sqrt(k delta / 2)."""
    return spitzer_probability(-delta, np.sqrt(2.0 * delta)) / delta


def levy_brownian_series(delta: float) -> float:
    """H^delta of the standard Brownian Levy model by Spitzer's identity: a_k = sqrt(k delta) / 2."""
    return spitzer_probability(-delta / 2.0, np.sqrt(delta)) / delta


def alpha2_sup_mean(T: float, delta: float) -> float:
    """E sup over the grid in [0, T] of exp(w) for the alpha = 2 family.

    One-dimensional quadrature over the driving normal; the exponent
    max_i(sqrt(2) d i l - (d i)^2) - l^2 / 2 is nonpositive, so the
    integrand never overflows."""
    ii = delta * np.arange(0, int(np.floor(T / delta + 1e-12)) + 1)

    def integrand(l):
        expo = np.max(np.sqrt(2.0) * ii * l - ii * ii) - 0.5 * l * l
        return np.exp(expo) / np.sqrt(2.0 * np.pi)

    edge = np.sqrt(2.0) * T
    total = 0.0
    for a, b in zip([-np.inf, -8.0, 0.0, edge, edge + 12.0],
                    [-8.0, 0.0, edge, edge + 12.0, np.inf]):
        val, _ = quad(integrand, a, b, limit=400)
        total += val
    return total


def alpha2_fdd_exponent(points, thresholds) -> float:
    """E max_j exp(w(t_j)) / x_j for the alpha = 2 family, w(t) = sqrt(2) t Z - t^2.

    One-dimensional quadrature over the driving normal Z; the finite-dimensional
    law of zeta is exp of minus this value."""
    t = np.asarray(points, dtype=float)
    log_x = np.log(np.asarray(thresholds, dtype=float))

    def integrand(l):
        return np.exp(np.max(np.sqrt(2.0) * t * l - t * t - log_x) - 0.5 * l * l) / np.sqrt(2.0 * np.pi)

    edge = np.sqrt(2.0) * float(np.max(np.abs(t)))
    val, _ = quad(integrand, -edge - 12.0, edge + 12.0, limit=400,
                  points=sorted({0.0, edge, -edge}), epsabs=1e-13)
    return val


def smallball_one_sided(eta: float, k_max: int, h: float = 0.004, x_min: float = -6.0) -> float:
    """q = P{B(1/k) <= eta for all 1 <= k <= k_max}, B standard Brownian.

    Killed density recursion over the ascending reciprocal times; the
    barrier sits at eta, and mass escaping below x_min counts as surviving
    (its chance of returning above eta within the remaining unit of time
    is about 2 Phi(-(eta - x_min)))."""
    times = 1.0 / np.arange(k_max, 0, -1, dtype=float)
    x = np.arange(x_min, eta, h) + h / 2.0
    sd0 = np.sqrt(times[0])
    v = np.exp(-0.5 * (x / sd0) ** 2) / (np.sqrt(2.0 * np.pi) * sd0) * h
    safe = float(ndtr(x_min / sd0))
    for dt in np.diff(times):
        sd = np.sqrt(dt)
        d = (x[:, None] - x[None, :]) / sd
        kernel = np.exp(-0.5 * d * d) / (np.sqrt(2.0 * np.pi) * sd) * h
        safe += float(v @ ndtr((x_min - x) / sd))
        v = kernel @ v
    return safe + float(v.sum())


def smallball_walk_probability(eta: float, k_max: int) -> float:
    """p_K = P{S_k <= eta k for all 1 <= k <= K}, S a random walk with N(0, 1)
    steps; by time inversion the quantity smallball_one_sided integrates.

    Spitzer's identity sum_n p_n s^n = exp(sum_k a_k s^k), with
    a_k = P{S_k <= eta k} / k = Phi(eta sqrt k) / k, differentiated in s gives
    the recursion n p_n = sum_{k=1..n} k a_k p_{n-k}, p_0 = 1. It is exact at
    every finite K."""
    k_a = ndtr(eta * np.sqrt(np.arange(1.0, k_max + 1.0)))
    p = np.empty(k_max + 1)
    p[0] = 1.0
    for n in range(1, k_max + 1):
        p[n] = k_a[:n] @ p[n - 1::-1] / n
    return float(p[k_max])


def smallball_cholesky(alpha: float, eta: float, levels, reps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """P{b(1/k) <= eta for all 0 < |k| <= L} and its standard error for each
    cutoff L in ``levels``, b fBm with variance |t|^alpha.

    Reference sampler on the reciprocal grid itself: the Cholesky factor of
    Cov b on (1/1, -1/1, 1/2, -1/2, ...), ordered by |k| so that nested
    cutoffs are prefixes; the times cluster at 0, so the factor may need a
    small diagonal jitter."""
    levels = np.asarray(levels)
    k = np.arange(1, int(levels[-1]) + 1, dtype=float)
    t = np.stack([1.0 / k, -1.0 / k], axis=1).ravel()
    at = np.abs(t)
    cov = 0.5 * (at[:, None] ** alpha + at[None, :] ** alpha - np.abs(t[:, None] - t[None, :]) ** alpha)
    jitter = 0.0
    for _ in range(5):
        try:
            factor = np.linalg.cholesky(cov + jitter * np.eye(t.size))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-12 * float(np.trace(cov)) if jitter == 0.0 else 10.0 * jitter
    else:
        raise np.linalg.LinAlgError("reciprocal-grid covariance is not positive definite")
    rng = np.random.default_rng(seed)
    hits = np.zeros(levels.size)
    for start in range(0, reps, 10_000):
        b = rng.standard_normal((min(10_000, reps - start), t.size)) @ factor.T
        hits += (np.maximum.accumulate(b, axis=1)[:, 2 * levels - 1] <= eta).sum(axis=0)
    p = hits / reps
    return p, np.sqrt(p * (1.0 - p) / reps)


# Values computed by the routines above (tests/test_oracles.py re-derives
# them from the series and the quadrature, including step-halving checks).
# Quoted to the digits that are stable under refinement; at delta = 0.002
# (alpha1) the quadrature at its default step is still off in the fifth
# digit, so that entry follows the series.
FROZEN = {
    ("alpha1", 0.5): 0.560374,
    ("alpha1", 1.0): 0.442979,
    ("alpha1", 2.0): 0.320435,
    ("alpha1", 0.002): 0.963825,
    ("levy-brownian", 1.0): 0.280187,
    ("levy-brownian", 8.0): 0.103740,
    ("levy-brownian", 16.0): 0.059569,
    ("levy-brownian", 32.0): 0.031104,
}
