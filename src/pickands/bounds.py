"""Closed-form lower bounds and positivity diagnostics for H^delta.

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
    "Ln8Report",
    "gaussian_lower_bound",
    "gaussian_power_bound",
    "levy_lower_bound",
    "levy_h0_bound",
    "check_ln8",
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


def gammaincc(s: float, y: float) -> float:
    """Regularized upper incomplete gamma Q(s, y) = Gamma(s, y) / Gamma(s), s > 0, y >= 0.

    1 - P(s, y) from the series of the lower function for y < s + 1, the
    continued fraction of the upper one (modified Lentz) otherwise, each
    run until its next term changes the result by under 1e-15.
    """
    if y <= 0.0:
        return 1.0
    front = math.exp(s * math.log(y) - y - math.lgamma(s))  # y^s e^-y / Gamma(s)
    if y < s + 1.0:
        # P(s, y) = front * sum_{n>=0} y^n / (s (s + 1) ... (s + n))
        term = total = 1.0 / s
        a = s
        while term > total * 1e-16:
            a += 1.0
            term *= y / a
            total += term
        return 1.0 - front * total
    # Q(s, y) = front / (y + 1 - s - 1 (1 - s) / (y + 3 - s - 2 (2 - s) / (y + 5 - s - ...)))
    tiny = 1e-300
    b = y + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            break
    return front * h


def exponent_series(vf: VarianceFunction, delta: float, tail_tol: float = SERIES_TAIL_TOL):
    """sum_{k>=1} exp(-sigma^2(delta k) / 8) with a certified truncation tail.

    Returns (partial_sum, tail_bound, n_terms). For power kinds the tail is
    bounded by the integral of the decreasing integrand (geometric form for
    alpha = 1); for other kinds the tail is bounded geometrically from the
    last observed decay ratio, valid once sigma^2 is nondecreasing.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if vf.parametric:
        a = vf.scale * delta**vf.alpha / 8.0  # exponent is a * k^alpha
        if vf.alpha == 1.0:
            q = math.exp(-a)
            return q / (1.0 - q), 0.0, 0
        total = 0.0
        k0 = 1
        block = 1024
        while k0 < MAX_SERIES_TERMS:
            k = np.arange(k0, k0 + block, dtype=float)
            total += float(np.exp(-a * k**vf.alpha).sum())
            k0 += block
            # integral comparison: sum_{k > K} <= int_K^inf exp(-a x^alpha) dx
            y = a * k0**vf.alpha
            tail = gammaincc(1.0 / vf.alpha, y) * math.gamma(1.0 / vf.alpha) / (vf.alpha * a ** (1.0 / vf.alpha))
            if tail < tail_tol or total > 4.0:
                return total, float(tail), k0 - 1
        return total, float(tail), k0 - 1
    # tabulated kind: sum until the table ends, then bound geometrically
    kmax = int(vf.table_t[-1] / delta)
    if kmax < 1:
        raise ModelError("table too short to evaluate the series at this delta")
    terms = np.exp(-variance_at(vf, delta * np.arange(1, kmax + 1)) / 8.0)
    ratio = float(terms[-1] / terms[-2]) if kmax >= 2 else 1.0
    if ratio >= 1.0:
        return float(terms.sum()), math.inf, kmax
    tail = float(terms[-1] * ratio / (1.0 - ratio))
    return float(terms.sum()), tail, kmax


def gaussian_lower_bound(vf: VarianceFunction, delta: float) -> BoundResult:
    """H^delta >= (1/delta) max(0, 1 - sum_{k>=1} exp(-sigma^2(delta k)/8)).

    The sum is taken at its certified upper end, the partial sum plus the
    bound on its truncation tail. Requires sigma^2 eventually nondecreasing
    so the tail can be bounded; a sum that may reach 1 clamps the bound to
    0 (too-slow growth of sigma^2 gives no information at this delta).
    """
    total, tail, _ = exponent_series(vf, delta)
    note = ""
    if not math.isfinite(tail):
        note = "series tail could not be certified; bound clamped to 0"
        value = 0.0
    else:
        value = max(0.0, (1.0 - total - tail) / delta)
        if value == 0.0:
            note = ("series straddles 1 within its tail bound" if total < 1.0
                    else "series exceeds 1; bound uninformative at this delta")
    return BoundResult(
        value=value,
        formula="gaussian-series",
        inputs={"delta": delta, "kind": vf.kind, "alpha": getattr(vf, "alpha", None), "scale": getattr(vf, "scale", None)},
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


@dataclass(frozen=True)
class Ln8Report:
    """Numerical check of liminf sigma^2(t) / ln(t) > 8 up to a horizon.

    Advisory only: a liminf cannot be decided from finite data, so the
    verdict reports the running minimum of the ratio beyond each grid
    point against the threshold 8.
    """

    holds: bool
    margin: float
    horizon: float
    t: np.ndarray = field(repr=False)
    ratio: np.ndarray = field(repr=False)
    running_min: np.ndarray = field(repr=False)

    @property
    def verdict(self) -> str:
        return "condition holds numerically" if self.holds else "condition fails numerically"


def check_ln8(vf: VarianceFunction, horizon: float, n_points: int = 200) -> Ln8Report:
    """Evaluate sigma^2(t)/ln(t) on a log-spaced grid up to ``horizon``."""
    if horizon <= math.e:
        raise ValueError("horizon must exceed e so that ln(t) > 1 on the grid")
    t = np.geomspace(math.e, horizon, n_points)
    ratio = variance_at(vf, t) / np.log(t)
    running_min = np.minimum.accumulate(ratio[::-1])[::-1]
    margin = float(running_min[-1] - 8.0)
    return Ln8Report(
        holds=bool(running_min[-1] > 8.0),
        margin=margin,
        horizon=horizon,
        t=t,
        ratio=ratio,
        running_min=running_min,
    )
