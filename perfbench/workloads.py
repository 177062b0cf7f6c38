"""Workloads of the time-to-precision benchmark.

Each workload is a fixed list of ``pickands`` CLI invocations. The harness
appends ``--seed`` (derived from the workload seed) and ``--out`` to every
invocation, reads the records back, takes the invocation's headline standard
error and checks the records against the reference its acceptance criterion
uses.

Time to precision of one invocation is ``wall * (se / tau) ** 2``: the wall
seconds the invocation would need to reach the fixed target standard error
``tau`` if its variance per second stayed what this run measured. A speed-up
cannot hide a variance increase in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# References. Closed forms, or the frozen quadrature values of the test
# oracles (FROZEN in the test-suite oracle module).
ALPHA2_DELTA1 = math.erf(0.5)              # H^1 of the alpha = 2 family, 0.520500
CONTINUUM_ALPHA2 = 1.0 / math.sqrt(math.pi)
LEVY_DELTA16 = 0.059569                    # FROZEN ("levy-brownian", 16.0)
ALPHA1_MESH0002 = 0.966662                 # FROZEN ("alpha1", 0.002); 5e-3 window-bias allowance
# Exact (n / r)(1 - exp(-E sup / n)) at n = 1e4, r = 100 for the alpha = 2
# family; E sup over the grid in [0, 100] from the one-dimensional quadrature
# oracle (alpha2_sup_mean(100, 1)).
BLOCKS_N1E4_R100 = 0.5290952122255943
LEVY_BOUND_DELTA16 = 0.052718
SMALLBALL_ALPHA1 = 2.0
SMALLBALL_ALPHA2 = math.sqrt(2.0 / math.pi)

# Tolerance, in standard errors, of every statistical check. Comparing two
# commits takes dozens of runs of several repetitions each, some 10^3 to 10^4
# checks in all, so at 3 SE (false-alarm rate 0.27% per check) a correct
# program would fail several of them every time. At 4.5 SE (7e-6 per check)
# the chance of any false alarm among 5000 checks is about 3%.
Z = 4.5
# The same family-wise level for the Kolmogorov-Smirnov p-values of the
# marginal check.
KS_LEVEL = 1e-5

EXACT_ROUTES = ("exceedance", "difference", "argmax", "dieker-yakir", "time-reversed")


def _last(records):
    return records[-1] if isinstance(records, list) else records


def _within(value: float, ref: float, se: float, slack: float = 0.0) -> tuple[bool, str]:
    gap = abs(value - ref)
    return gap <= Z * se + slack, f"{value:.6g} vs {ref:.6g} (gap {gap:.3g}, se {se:.3g})"


# --- headline standard errors -------------------------------------------------


def se_estimate(records) -> float:
    return float(_last(records)["stderr"])


def se_crosscheck(records) -> float:
    res = records["results"]
    return max(float(res[m]["stderr"]) for m in EXACT_ROUTES)


def se_smallball(records) -> float:
    return float(_last(records)["intercept_stderr"])


def se_fdd(records) -> float:
    return math.hypot(float(records["simulated_stderr"]), float(records["oracle_stderr"]))


# --- checks -------------------------------------------------------------------


def check_estimate(ref: float, slack: float = 0.0):
    def check(records):
        rec = _last(records)
        return _within(float(rec["estimate"]), ref, float(rec["stderr"]), slack)
    return check


def check_relative(ref: float, rel: float):
    def check(records):
        est = float(_last(records)["estimate"])
        return abs(est - ref) <= rel * ref, f"{est:.6g} vs {ref:.6g} (allowed {rel:.0%})"
    return check


def check_crosscheck(records):
    """Pairwise agreement of the five exact routes at the family-wise level."""
    res = records["results"]
    worst = 0.0
    for i, a in enumerate(EXACT_ROUTES):
        for b in EXACT_ROUTES[i + 1:]:
            gap = abs(res[a]["estimate"] - res[b]["estimate"])
            worst = max(worst, gap / (res[a]["stderr"] + res[b]["stderr"]))
    return worst <= Z, f"largest pairwise gap {worst:.2f} x (se_a + se_b)"


def check_smallball(ref: float):
    def check(records):
        fit = _last(records)
        return _within(float(fit["intercept"]), ref, float(fit["intercept_stderr"]))
    return check


def check_bound(records):
    rec = next(r for r in records if r.get("formula") == "levy-geometric")
    value = float(rec["value"])
    return abs(value - LEVY_BOUND_DELTA16) <= 5e-7, f"{value:.7f} vs {LEVY_BOUND_DELTA16}"


def check_fdd(records):
    return _within(float(records["simulated"]), float(records["oracle"]), se_fdd(records))


def check_marginal(records):
    pvals = [float(r["p_value"]) for r in records]
    return min(pvals) > KS_LEVEL, "KS p-values " + ", ".join(f"{p:.3g}" for p in pvals)


# --- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One CLI call.

    ``full`` and ``tiny`` hold its size options (replications, samples) for the
    benchmark and for the smoke test. ``tau`` is its target standard error, set
    near the one it reached at full size when the benchmark was written, so
    that its time to precision then read close to its wall time.
    """

    name: str
    args: tuple[str, ...]
    full: tuple[str, ...]
    tiny: tuple[str, ...]
    check: Callable
    se: Callable | None = None
    tau: float | None = None
    export: bool = False

    @property
    def alarm_exit(self) -> bool:
        """crosscheck and maxstable exit with 1 when their own fixed-level test fires."""
        return self.args[0] in ("crosscheck", "maxstable")

    def argv(self, size: str, seed: int, out: str, export: str | None) -> list[str]:
        argv = list(self.args) + list(self.full if size == "full" else self.tiny)
        argv += ["--seed", str(seed), "--out", out]
        if self.export:
            argv += ["--export", export]
        return argv


def _split(text: str) -> tuple[str, ...]:
    return tuple(text.split())


@dataclass(frozen=True)
class Workload:
    """A named list of invocations; why it was chosen is stated in BENCHMARK.json."""

    name: str
    invocations: tuple[Invocation, ...]


FDD_POINTS = "--check fdd --points 0,1,2 --thresholds 2,1.5,3"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slow-decay",
            (
                Invocation("crosscheck-fbm0.5",
                           _split("crosscheck --family fbm --alpha 0.5 --delta 0.5"),
                           _split("--reps 1000"), _split("--reps 48"),
                           check_crosscheck, se_crosscheck, tau=0.022),
                Invocation("continuous-dy-fbm1",
                           _split("estimate --family fbm --alpha 1 --delta 0 --mesh 0.002 "
                                  "--window 12 --method continuous-dy"),
                           _split("--reps 2000"), _split("--reps 64"),
                           check_estimate(ALPHA1_MESH0002, 5e-3), se_estimate, tau=0.0085),
                Invocation("smallball-fbm1",
                           _split("smallball --alpha 1 --eta 0.2,0.1,0.05"),
                           _split("--reps 1500"), _split("--reps 300"),
                           check_smallball(SMALLBALL_ALPHA1), se_smallball, tau=0.25),
            ),
        ),
        Workload(
            "fast-decay",
            (
                Invocation("exceedance-fbm2",
                           _split("estimate --family fbm --alpha 2 --delta 1 --method exceedance"),
                           _split("--reps 1000000"), _split("--reps 20000"),
                           check_estimate(ALPHA2_DELTA1), se_estimate, tau=5e-4),
                Invocation("dieker-yakir-fbm2",
                           _split("estimate --family fbm --alpha 2 --delta 1 --method dieker-yakir"),
                           _split("--reps 400000"), _split("--reps 20000"),
                           check_estimate(ALPHA2_DELTA1), se_estimate, tau=6e-5),
                Invocation("continuous-dy-fbm2",
                           _split("estimate --family fbm --alpha 2 --delta 0 --mesh 0.01 "
                                  "--method continuous-dy"),
                           _split("--reps 20000"), _split("--reps 1000"),
                           check_relative(CONTINUUM_ALPHA2, 0.03), se_estimate, tau=3e-8),
                Invocation("exceedance-levy16",
                           _split("estimate --family levy --brownian --delta 16 --method exceedance"),
                           _split("--reps 500000"), _split("--reps 20000"),
                           check_estimate(LEVY_DELTA16, 5e-7), se_estimate, tau=1.9e-5),
                Invocation("theta-blocks-fbm2",
                           _split("estimate --family fbm --alpha 2 --delta 1 --method theta-blocks"),
                           _split("--reps 40000"), _split("--reps 2000"),
                           check_estimate(BLOCKS_N1E4_R100, 1e-3), se_estimate, tau=1.9e-4),
                Invocation("crosscheck-fbm1.5",
                           _split("crosscheck --family fbm --alpha 1.5 --delta 1"),
                           _split("--reps 100000"), _split("--reps 5000"),
                           check_crosscheck, se_crosscheck, tau=1.6e-3),
                Invocation("smallball-fbm2",
                           _split("smallball --alpha 2 --eta 0.2,0.1,0.05"),
                           _split("--reps 20000"), _split("--reps 2000"),
                           check_smallball(SMALLBALL_ALPHA2), se_smallball, tau=0.028),
                Invocation("bound-levy16",
                           _split("bound --family levy --brownian --delta 16"),
                           (), (), check_bound),
            ),
        ),
        Workload(
            "maxstable",
            (
                Invocation("fdd-fbm2",
                           _split("maxstable --family fbm --alpha 2 --delta 1 " + FDD_POINTS),
                           _split("--samples 2000 --reps 1000000"), _split("--samples 100 --reps 20000"),
                           check_fdd, se_fdd, tau=0.0125),
                Invocation("fdd-levy",
                           _split("maxstable --family levy --brownian --delta 1 " + FDD_POINTS),
                           _split("--samples 2000 --reps 200000"), _split("--samples 100 --reps 20000"),
                           check_fdd, se_fdd, tau=0.011),
                Invocation("marginal-export-fbm1.5",
                           _split("maxstable --family fbm --alpha 1.5 --delta 1 --check marginal"),
                           _split("--samples 60"), _split("--samples 8"),
                           check_marginal, export=True),
            ),
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload. Written down before any optimisation, as the prediction a change
# to that layer is judged against.
LAYER_MAP = {
    "models.sample_s": ("wall_s, ttp_s", "slow-decay"),
    "models.points": ("wall_s", "slow-decay"),
    "models.points_per_s": ("wall_s", "slow-decay"),
    "models.calls": ("wall_s", "maxstable"),
    "models.embedding_s": ("wall_s", "slow-decay"),
    "models.iid_s": ("wall_s", "slow-decay"),
    "models.line_s": ("wall_s", "fast-decay"),
    "models.levy_s": ("wall_s", "fast-decay"),
    "estimators.kernel_s": ("wall_s", "fast-decay, slow-decay"),
    "engine.chunks": ("wall_s", "fast-decay"),
    "engine.threads": ("wall_s", "slow-decay"),
    "engine.map_s": ("wall_s", "slow-decay, fast-decay"),
    "engine.busy_s": ("wall_s", "slow-decay, fast-decay"),
    "engine.utilisation": ("wall_s", "slow-decay"),
    "engine.overhead_s": ("wall_s", "fast-decay"),
    "engine.reduce_s": ("wall_s", "fast-decay"),
    "maxstable.batch_s": ("wall_s", "maxstable"),
    "maxstable.paths_per_sample": ("wall_s, ttp_s", "maxstable"),
    "maxstable.capped_share": ("wall_s, ttp_s", "maxstable"),
    "maxstable.kernel_s": ("wall_s", "maxstable (fdd oracle), fast-decay (theta-blocks windows)"),
    "maxstable.export_s": ("wall_s", "maxstable"),
    "smallball.factorised_s": ("wall_s", "slow-decay"),
    "smallball.joint_s": ("wall_s", "fast-decay"),
    "bounds.bound_s": ("none expected", "fast-decay"),
    "cli.other_s": ("wall_s", "all"),
    "trace.overhead_s": ("none (cost of tracing itself)", "all"),
}
