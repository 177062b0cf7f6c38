"""Closed-form lower bounds for H^delta.

The Gaussian bound comes from a Bonferroni argument on the grid sup, whose
pair terms reduce to exp(-sigma^2(delta k) / 8) under stationary
increments; the Levy bound evaluates the same argument through the Laplace
exponent, where the pair terms form a geometric series with ratio
exp(-lambda delta), lambda = Phi(1)/2 - Phi(1/2) > 0 by strict convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import LevyModel, ModelError, VarianceFunction, levy_lambda, variance_at
from .report import Record

__all__ = [
    "BoundResult",
    "gaussian_lower_bound",
    "gaussian_power_bound",
    "levy_lower_bound",
    "levy_h0_bound",
]

SERIES_TAIL_TOL = 1e-12
MAX_SERIES_TERMS = 1 << 22


@dataclass(frozen=True)
class BoundResult(Record):
    """A lower bound for H^delta (or H^0), clamped at 0."""

    value: float
    formula: str
    inputs: dict = field(default_factory=dict)
    series_tail_bound: float = 0.0
    note: str = ""


def exponent_series(vf: VarianceFunction, delta: float):
    """sum_{k>=1} exp(-sigma^2(delta k) / 8) with a certified truncation tail.

    Returns (partial_sum, tail_bound, n_terms); tail_bound is inf when no
    bound is certified. For power kinds the tail is bounded by the integral
    of the decreasing integrand (geometric form for alpha = 1). For
    tabulated kinds the series is summed to the end of the table and
    continued geometrically with the last term ratio: an upper bound when
    sigma^2 is convex, so it is certified only when sigma^2 has nondecreasing
    increments on the table's delta grid and the last ratio is below 1.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if vf.parametric:
        a = vf.scale * delta**vf.alpha / 8.0  # exponent is a * k^alpha
        if vf.alpha == 1.0:
            q = math.exp(-a)
            return q / (1.0 - q), 0.0, 0
        # integral comparison: sum_{k > K} exp(-a k^alpha) <= int_K^inf exp(-a x^alpha) dx
        # = Gamma(s, y) / (alpha a^s), s = 1/alpha, y = a K^alpha. For t >= y, concavity of log gives
        # t^(s-1) <= y^(s-1) exp((s-1)(t-y)/y) (t^(s-1) <= y^(s-1) if s < 1), so for y > c = (s-1)_+,
        # Gamma(s, y) <= y^s e^-y / (y - c). As y^s / a^s = K, the bound is K e^-y / (alpha (y - c)),
        # free of Gamma(s) and a^s, which overflow and underflow at small alpha
        c = max(1.0 / vf.alpha - 1.0, 0.0)
        total, K = 0.0, 0
        while K < MAX_SERIES_TERMS:
            total += float(np.exp(-a * np.arange(K + 1, K + 1025, dtype=float) ** vf.alpha).sum())
            K += 1024
            y = a * K**vf.alpha
            tail = math.exp(-y) * K / vf.alpha / (y - c) if y > c else math.inf
            if tail < SERIES_TAIL_TOL or total > 4.0:
                break
        return total, tail, K
    # tabulated kind: sum until the table ends, then continue geometrically
    kmax = int(vf.table_t[-1] / delta)
    if kmax < 1:
        raise ModelError("table too short to evaluate the series at this delta")
    sigma2 = variance_at(vf, delta * np.arange(1, kmax + 1))
    log_terms = -sigma2 / 8.0
    total = float(np.exp(log_terms).sum())
    steps = np.diff(sigma2)
    convex = np.all(np.diff(steps) >= -1e-12 * sigma2[-1])
    if kmax < 2 or not convex or steps[-1] <= 0.0:
        return total, math.inf, kmax
    log_ratio = -steps[-1] / 8.0
    tail = math.exp(log_terms[-1] + log_ratio) / -math.expm1(log_ratio)
    return total, tail, kmax


def gaussian_lower_bound(vf: VarianceFunction, delta: float) -> BoundResult:
    """H^delta >= (1/delta) max(0, 1 - sum_{k>=1} exp(-sigma^2(delta k)/8)).

    The sum is taken at its certified upper end, the partial sum plus the
    bound on its truncation tail. A partial sum that reaches 1, or a tail
    that cannot be bounded, clamps the bound to 0 (too-slow growth of
    sigma^2 gives no information at this delta).
    """
    total, tail, _ = exponent_series(vf, delta)
    value = 0.0
    if total >= 1.0:
        note = "series exceeds 1; bound uninformative at this delta"
    elif not math.isfinite(tail):
        note = "series tail could not be certified; bound clamped to 0"
    else:
        value = max(0.0, (1.0 - total - tail) / delta)
        note = "" if value > 0.0 else "series straddles 1 within its tail bound"
    inputs = {"delta": delta, "kind": vf.kind}
    if vf.parametric:
        inputs |= {"alpha": vf.alpha, "scale": vf.scale}
    return BoundResult(
        value=value,
        formula="gaussian-series",
        inputs=inputs,
        series_tail_bound=tail if math.isfinite(tail) else 0.0,
        note=note,
    )


def gaussian_power_bound(c: float, kappa: float, delta: float) -> BoundResult:
    """H^delta >= (1/delta)(1 - (1/delta) Gamma(1/kappa) / (kappa (c^2/8)^(1/kappa))).

    Valid when sigma(delta k) >= c (delta k)^(kappa/2) for all k >= 1; the
    integral comparison makes this weaker than the series bound for matched
    power models.
    """
    if c <= 0 or kappa <= 0 or delta <= 0:
        raise ValueError("c, kappa and delta must be positive")
    bracket = 1.0 - (1.0 / delta) * math.gamma(1.0 / kappa) / (kappa * (c**2 / 8.0) ** (1.0 / kappa))
    return BoundResult(
        value=max(0.0, bracket / delta),
        formula="gaussian-power",
        inputs={"c": c, "kappa": kappa, "delta": delta},
    )


def levy_lower_bound(model: LevyModel, delta: float) -> BoundResult:
    """H^delta >= (1/delta) max(0, 1 - 2 e^{-lambda delta}) / (1 - e^{-lambda delta})."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    lam = levy_lambda(model)
    if lam <= 0:
        raise ModelError("degenerate Levy model: lambda = Phi(1)/2 - Phi(1/2) must be positive")
    q = math.exp(-lam * delta)
    return BoundResult(
        value=max(0.0, 1.0 - 2.0 * q) / (1.0 - q) / delta,
        formula="levy-geometric",
        inputs={"delta": delta, "lambda": lam},
    )


def levy_h0_bound(model: LevyModel) -> BoundResult:
    """H^0 >= lambda / 4 = (1/8)(Phi(1) - 2 Phi(1/2)) > 0."""
    lam = levy_lambda(model)
    if lam <= 0:
        raise ModelError("degenerate Levy model: lambda = Phi(1)/2 - Phi(1/2) must be positive")
    return BoundResult(value=lam / 4.0, formula="levy-continuum", inputs={"lambda": lam})
