"""Command-line interface.

Subcommands: estimate, crosscheck, bound, maxstable, smallball. Every run
is reproducible from its configuration and seed; records embed the
configuration hash. The worker-thread count has one setting, the
PICKANDS_THREADS environment variable (unset: the CPUs the process may run
on; 1 runs serially); it never changes numerical output, and peak memory
grows with it, about one chunk per thread.

Exit codes: 0 success, 1 a requested check failed (its records are still
written), 2 invalid usage or input, such as a float option that is not a
finite number, fewer than two --reps or --samples or a nonpositive --T,
--cutoff or --rn (never read as a request for the default), a theta check's
--level below 1, a smallball alpha outside (0, 2], a nonpositive eta, a
repeated eta in a sweep of three or more or an eta that no automatic cutoff
reaches (give --cutoff), a model flag that the family does not read (such
as --scale for fbm, or --phi-jump with --brownian), a method flag that the
estimate method or the maxstable check does not read (such as --T for
exceedance, --delta 5 for continuous-dy, --level for the fdd check or
--reps for the marginal check), a --reps for bound, a --phi-jump with more
values than its law takes, or a bound run with only one of --kappa and
--cbound, or with either for a Levy model.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import engine
from .bounds import gaussian_lower_bound, gaussian_power_bound, levy_h0_bound, levy_lower_bound
from .estimators import (
    EXACT_METHODS,
    _ci_overlap,
    _run_exact,
    crosscheck,
    est_continuous_dy,
    est_definitional,
    estimate,
)
from .maxstable import (
    _boundary_corrected_theta,
    _containing_grid,
    est_candidate_theta,
    est_extremal_index_blocks,
    fdd_probability,
    frechet_cdf,
    max_stable_batch,
)
from .models import (
    GridSpec,
    JumpLaw,
    LevyModel,
    VarianceFunction,
)
from .report import config_hash, parse_config_file, write_records
from .smallball import _check_alpha_eta, est_smallball_prob, smallball_extrapolate, suggested_cutoff

# the methods of `estimate`, in the order `--method all` runs them
ESTIMATORS = ("definitional", *EXACT_METHODS, "continuous-dy", "theta-candidate", "theta-blocks")
# the methods that take delta = 0, all others need a positive grid step
CONTINUUM_METHODS = ("definitional", "continuous-dy")
# their mesh when --mesh is not given
DEFAULT_MESH = 0.01
HORIZON_HELP = ("truncation horizon H in grid points for the exact formulas: the estimate is "
                "read at H and flagged unstable if it moved from H/2 (default: certified from the model). "
                "When H is at least 4 H0, H0 the horizon certified at the square root of the default tail, "
                "every path runs to H0 only and ceil(reps H0 / H) long paths, at least 2, add the "
                "correction from H0 to H; the record then gives base_horizon, correction and "
                "correction_stderr")
REPS_HELP = ("replications, counted as drawn paths. On a Gaussian model off the alpha = 2 line, and on the "
             "Brownian Levy model, each path is read in several forms of one law and its values averaged: the "
             "exact formulas, continuous-dy and theta-candidate read it in 16 at alpha = 1 and on the Brownian "
             "Levy model (each side as x, -x - sigma^2, its reversal and the reversal's mirror), and "
             "otherwise, as crosscheck's exact formulas do, as the antithetic pair w, -w - sigma^2; the "
             "records say antithetic: true")


def _finite(text: str) -> float:
    """The argparse type of every float option: a finite float, so that inf
    and nan are a usage error (exit 2) and not run."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str, option: str) -> list[float]:
    """A comma-separated option's values, each a finite float by ``_finite``;
    a bad one is invalid input (exit 2), named in the message."""
    try:
        return [_finite(v) for v in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{option}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pickands",
        description="Monte Carlo estimation of Pickands-type constants and extremal indices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_model: bool = True, reps_help: str | None = None) -> None:
        p.add_argument("--config", help="key = value file, read as flags; flags on the line override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--reps", type=int, default=100_000, help=reps_help)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if with_model:
            p.add_argument("--family", choices=("fbm", "power", "levy"), default="fbm")
            p.add_argument("--alpha", type=_finite, default=1.0)
            p.add_argument("--scale", type=_finite, default=2.0)
            p.add_argument("--brownian", action="store_true",
                           help="shortcut for the standard Brownian Levy model")
            p.add_argument("--phi-diffusion", type=_finite, default=1.0)
            p.add_argument("--phi-jump-rate", type=_finite, default=0.0)
            p.add_argument("--phi-jump", default=None,
                           help="jump law, e.g. constant:1.0, normal:0,1 or exponential:2")

    p_est = sub.add_parser("estimate", help="estimate H^delta (or H^0) by one or all formulas")
    add_common(p_est, reps_help=REPS_HELP)
    p_est.add_argument("--delta", type=_finite, default=1.0)
    p_est.add_argument("--mesh", type=_finite, help=f"mesh for delta = 0 runs (default {DEFAULT_MESH})")
    p_est.add_argument("--method", default="exceedance",
                       choices=sorted(ESTIMATORS) + ["all"])
    p_est.add_argument("--horizon", type=int, help=HORIZON_HELP)
    p_est.add_argument("--T", type=_finite, help="definitional horizon in time units (default max(2, 2 delta))")
    p_est.add_argument("--window", type=_finite, default=10.0, help="half-width for continuous-dy")
    p_est.add_argument("--level", type=_finite, dest="level", default=1e4,
                       help="exceedance level n for theta-blocks")
    p_est.add_argument("--rn", type=int, help="block length r_n for theta-blocks")

    p_x = sub.add_parser("crosscheck", help="run all exact formulas on shared paths")
    add_common(p_x, reps_help=REPS_HELP)
    p_x.add_argument("--delta", type=_finite, default=1.0)
    p_x.add_argument("--horizon", type=int, help=HORIZON_HELP)
    p_x.add_argument("--T", type=_finite, help="definitional horizon in time units (default max(2, 2 delta))")

    p_b = sub.add_parser("bound", help="closed-form lower bounds")
    add_common(p_b)
    p_b.add_argument("--delta", type=_finite, default=1.0)
    p_b.add_argument("--kappa", type=_finite, help="power-bound exponent")
    p_b.add_argument("--cbound", type=_finite, help="power-bound constant c")

    p_m = sub.add_parser("maxstable", help="max-stable simulation and its checks")
    add_common(p_m, reps_help="replications of the fdd oracle and of the theta check's candidate, which "
                              "counts pairs where estimate reads antithetic pairs; the theta check's blocks "
                              "take reps // 100, at least 100")
    p_m.add_argument("--delta", type=_finite, default=1.0)
    p_m.add_argument("--check", choices=("fdd", "marginal", "theta"), default="fdd")
    p_m.add_argument("--points", default=None, help="comma-separated times (fdd check)")
    p_m.add_argument("--thresholds", default=None, help="comma-separated thresholds (fdd check)")
    p_m.add_argument("--samples", type=int, default=20_000)
    p_m.add_argument("--level", type=_finite, default=1e4,
                     help="sets the default --rn, isqrt(level) (theta check)")
    p_m.add_argument("--rn", type=int, help="block length r_n (theta check)")
    p_m.add_argument("--export", help="write simulated samples as CSV (index,t,zeta)")

    p_s = sub.add_parser("smallball", help="reciprocal-grid lower-tail probabilities")
    add_common(p_s, with_model=False)
    p_s.add_argument("--alpha", type=_finite, required=True)
    p_s.add_argument("--eta", required=True, help="comma-separated eta values")
    p_s.add_argument("--cutoff", type=int, help="initial constraint cutoff K (default: automatic)")
    return parser


def _config_flags(path: str) -> list[str]:
    """The lines of a configuration file as flags: ``--key=value``, a bare
    ``--key`` for true and nothing for false."""
    return [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
            for key, value in parse_config_file(path).items() if value is not False]


def _refuse_unread(what: str, flags) -> None:
    """Invalid input: a flag of the (flag, given, read) triples ``flags`` given,
    that is, not at its default, but not read by ``what``."""
    unread = [flag for flag, given, read in flags if given and not read]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")


def build_model(args: argparse.Namespace):
    """The model of the family flags. A model flag that the family does not read is
    invalid input, not dropped; --brownian means the --phi defaults, so it reads no --phi flag."""
    levy = args.family == "levy"
    phi = levy and not args.brownian
    _refuse_unread(f"--family {args.family}" + (" --brownian" if args.brownian and levy else ""), (
        ("--alpha", args.alpha != 1.0, not levy),
        ("--scale", args.scale != 2.0, args.family == "power"),
        ("--brownian", args.brownian, levy),
        ("--phi-diffusion", args.phi_diffusion != 1.0, phi),
        ("--phi-jump-rate", args.phi_jump_rate != 0.0, phi),
        ("--phi-jump", args.phi_jump is not None, phi),
    ))
    if args.family == "fbm":
        return VarianceFunction.fbm(args.alpha)
    if args.family == "power":
        return VarianceFunction.power(args.alpha, args.scale)
    return LevyModel(args.phi_diffusion, args.phi_jump_rate, parse_jump_law(args.phi_jump))


JUMP_PARAMS = {"constant": ("value",), "normal": ("mean", "sd"), "exponential": ("rate",)}


def parse_jump_law(text: str | None) -> JumpLaw | None:
    """``kind[:v1,v2]``: up to the law's own number of values, in JUMP_PARAMS order;
    the ones left out keep JumpLaw's defaults."""
    if text is None:
        return None
    kind, _, params = text.partition(":")
    if kind not in JUMP_PARAMS:
        raise ValueError(f"unknown jump law {text!r}; expected constant, normal or exponential")
    vals = _floats(params, "--phi-jump") if params else []
    names = JUMP_PARAMS[kind]
    if len(vals) > len(names):
        raise ValueError(f"jump law {kind} takes at most {len(names)} value(s), got {text!r}")
    return JumpLaw(kind, **dict(zip(names, vals)))


def _stamp(args: argparse.Namespace) -> dict:
    """The fields added to every record of a run: the hash of its configuration
    (every option given or defaulted, except where the output goes), and the
    seed for bound and maxstable, whose results do not record one."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "config", "out", "format", "export") and v is not None}
    stamp = {"config_hash": config_hash(args.command, options)}
    if args.command in ("bound", "maxstable"):
        stamp["seed"] = args.seed
    return stamp


def _run_single_estimate(args, model, method: str) -> dict:
    seed, reps = args.seed, args.reps
    mesh = args.mesh if args.mesh is not None else DEFAULT_MESH
    if method == "definitional":
        res = est_definitional(model, args.delta, args.T, reps, mesh=mesh, seed=seed)
    elif method == "continuous-dy":
        res = est_continuous_dy(model, mesh, args.window, reps, seed=seed)
    elif method == "theta-blocks":
        res = est_extremal_index_blocks(model, args.delta, int(args.level), reps,
                                        r_n=args.rn, seed=seed)
    elif method == "theta-candidate":
        res = est_candidate_theta(model, args.delta, reps, horizon=args.horizon, seed=seed)
    else:
        res = estimate(model, method, args.delta, reps, horizon=args.horizon, seed=seed)
    return res.to_dict()


def cmd_estimate(args) -> tuple[list[dict], str | None]:
    # --method all runs them all, and at delta = 0 those that take it
    methods = {args.method} if args.method != "all" else set(ESTIMATORS if args.delta else CONTINUUM_METHODS)
    _refuse_unread(f"--method {args.method} at --delta {args.delta:g}", (
        ("--T", args.T is not None, "definitional" in methods),
        ("--window", args.window != 10.0, "continuous-dy" in methods),
        ("--level", args.level != 1e4, "theta-blocks" in methods),
        ("--rn", args.rn is not None, "theta-blocks" in methods),
        ("--horizon", args.horizon is not None, bool(methods & {*EXACT_METHODS, "theta-candidate"})),
        # continuous-dy is a delta = 0 run on its mesh
        ("--delta", args.delta not in (0.0, 1.0), methods != {"continuous-dy"}),
        # the definitional's grid step is delta unless delta = 0
        ("--mesh", args.mesh is not None,
         "continuous-dy" in methods or "definitional" in methods and not args.delta),
    ))
    model = build_model(args)
    if args.method != "all":
        return [_run_single_estimate(args, model, args.method)], None
    if args.delta == 0:
        return [_run_single_estimate(args, model, method) for method in CONTINUUM_METHODS], None
    # the exact formulas once, on shared paths
    exact = _run_exact(model, args.delta, args.reps, EXACT_METHODS, args.horizon, args.seed)
    return [exact[m].to_dict() if m in exact else _run_single_estimate(args, model, m) for m in ESTIMATORS], None


def cmd_crosscheck(args) -> tuple[list[dict], str | None]:
    model = build_model(args)
    report = crosscheck(model, args.delta, args.reps, horizon=args.horizon,
                        seed=args.seed, T=args.T)
    bad = ", ".join(f"{a}~{b}" for (a, b), ok in report.overlap.items() if not ok)
    return [report.to_dict()], None if report.all_overlap else f"crosscheck: non-overlapping pairs: {bad}"


def cmd_bound(args) -> tuple[list[dict], str | None]:
    _refuse_unread("bound", (("--reps", args.reps != 100_000, False),))
    model = build_model(args)
    power = (args.kappa is not None, args.cbound is not None)
    if any(power) and not isinstance(model, VarianceFunction):
        raise ValueError("--kappa and --cbound set the Gaussian power bound; a Levy model takes neither")
    if any(power) and not all(power):
        raise ValueError("the power bound needs both --kappa and --cbound")
    if not isinstance(model, VarianceFunction):
        return [levy_lower_bound(model, args.delta).to_dict(), levy_h0_bound(model).to_dict()], None
    records = [gaussian_lower_bound(model, args.delta).to_dict()]
    if all(power):
        records.append(gaussian_power_bound(args.cbound, args.kappa, args.delta).to_dict())
    return records, None


def cmd_maxstable(args) -> tuple[list[dict], str | None]:
    theta, fdd = args.check == "theta", args.check == "fdd"
    _refuse_unread(f"--check {args.check}" + (" --export" if args.export else ""), (
        ("--points", args.points is not None, fdd),
        ("--thresholds", args.thresholds is not None, fdd),
        # --level sets the default --rn only
        ("--level", args.level != 1e4, theta and args.rn is None),
        ("--rn", args.rn is not None, theta or args.export),
        ("--samples", args.samples != 20_000, not theta or args.export),
        # the marginal check draws --samples only, and the fdd check's times are --points if given
        ("--reps", args.reps != 100_000, args.check != "marginal"),
        ("--delta", args.delta != 1.0, not (fdd and args.points) or args.export),
    ))
    if args.level < 1:
        raise ValueError("--level must be at least 1")
    # the engine's rule, checked before the fdd oracle draws
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    if args.rn is not None and args.rn < 1:
        raise ValueError("--rn must be at least 1")
    model = build_model(args)
    if args.check == "fdd":
        points = _floats(args.points, "--points") if args.points else [0.0, args.delta]
        thresholds = _floats(args.thresholds, "--thresholds") if args.thresholds else [2.0, 3.0][: len(points)]
        oracle = fdd_probability(model, points, thresholds, args.reps, seed=args.seed + 1)
        grid, cols = _containing_grid(np.asarray(points))

        def below(rng, count):
            zeta, _ = max_stable_batch(model, grid, rng, count)
            return np.all(zeta[:, cols] <= np.asarray(thresholds), axis=1)

        mean, se = engine.run(below, args.seed, args.samples, grid.n_points)
        emp, se_emp = float(mean[0]), float(se[0])
        ok = abs(emp - oracle.probability) <= 3.0 * float(np.hypot(se_emp, oracle.stderr))
        records = [{"check": "fdd", "points": points, "thresholds": thresholds,
                    "simulated": emp, "simulated_stderr": se_emp,
                    "oracle": oracle.probability, "oracle_stderr": oracle.stderr, "within_3se": ok}]
    elif args.check == "marginal":
        grid = GridSpec(args.delta, 0, 1)
        zeta = _max_stable_samples(model, grid, args.seed, args.samples)
        tests = [(float(t), *ks_test(zeta[:, j], frechet_cdf)) for j, t in enumerate(grid.times())]
        records = [{"check": "marginal", "t": t, "ks_stat": stat, "p_value": pvalue,
                    "passes_1pct": pvalue > 0.01} for t, stat, pvalue in tests]
        ok = all(rec["passes_1pct"] for rec in records)
    else:
        r_n = args.rn if args.rn is not None else math.isqrt(int(args.level))
        blocks = _boundary_corrected_theta(model, args.delta, r_n, max(args.reps // 100, 100),
                                           seed=args.seed)
        # its own seed, as the fdd oracle's: the overlap test needs independent sides
        cand = est_candidate_theta(model, args.delta, args.reps, seed=args.seed + 1)
        ok = _ci_overlap(blocks, cand)
        records = [{"check": "theta", "blocks": blocks.to_dict(),
                    "candidate": cand.to_dict(), "ci_overlap": ok}]
    if args.export:
        _export_samples(args, model)
    return records, None if ok else f"maxstable: {args.check} check failed"


def _max_stable_samples(model, grid: GridSpec, seed: int, n: int, stream: int = 0) -> np.ndarray:
    """``n`` exact draws of zeta on ``grid``, drawn in the engine's chunks of
    run ``(seed, stream)`` and stacked in chunk order."""

    def batch(rng, count):
        return max_stable_batch(model, grid, rng, count)[0]

    return np.concatenate(engine.map_chunks(batch, seed, n, grid.n_points, stream))


def smirnov(n: int, d: float) -> float:
    """P{D+ >= d}, the exact one-sided Kolmogorov-Smirnov tail for a sample of n.

    Birnbaum and Tingey (1951):

        d * sum_{0 <= j <= n(1 - d)} C(n, j) (1 - d - j/n)^(n - j) (d + j/n)^(j - 1),

    each term taken in log space, with log C(n, j) a cumulative sum of logs.
    A term with 1 - d - j/n = 0 is zero and is dropped.
    """
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    j = np.arange(math.floor(n * (1.0 - d)) + 1.0)
    # C(n, j) / C(n, j - 1) = (n - j + 1) / j
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - j[:-1]) / j[1:]))))
    rest = 1.0 - d - j / n
    keep = rest > 0.0
    j, log_binom, rest = j[keep], log_binom[keep], rest[keep]
    return d * float(np.exp(log_binom + (n - j) * np.log(rest) + (j - 1.0) * np.log(d + j / n)).sum())


def ks_test(sample: np.ndarray, cdf) -> tuple[float, float]:
    """Two-sided Kolmogorov-Smirnov statistic D of ``sample`` against ``cdf``, and its p-value.

    The p-value is min(1, 2 P{D+ >= D}) with the exact one-sided tail of
    Birnbaum and Tingey (``smirnov``); it matches the exact two-sided value
    wherever that is small, which is where a test decision is made.
    """
    x = np.sort(sample)
    n = x.size
    cdfvals = cdf(x)
    d = max((np.arange(1.0, n + 1) / n - cdfvals).max(), (cdfvals - np.arange(0.0, n) / n).max())
    return float(d), min(1.0, 2.0 * float(smirnov(n, d)))


def _export_samples(args, model) -> None:
    """Up to 1000 samples of zeta on [0, --rn] (default 8) as CSV, on the seed's stream 1."""
    grid = GridSpec(args.delta, 0, args.rn if args.rn is not None else 8)
    zeta = _max_stable_samples(model, grid, args.seed, min(args.samples, 1000), stream=1)
    rows = [{"sample": s, "index": int(i), "t": float(t), "zeta": float(z)}
            for s, path in enumerate(zeta)
            for i, t, z in zip(grid.indices(), grid.times(), path)]
    write_records(rows, args.export, "csv")


def cmd_smallball(args) -> tuple[list[dict], str | None]:
    etas = _floats(args.eta, "--eta")
    # every eta is checked, and its cutoff found, before the first is drawn
    for eta in etas:
        _check_alpha_eta(args.alpha, eta)
    if len(etas) >= 3 and len(set(etas)) < len(etas):
        raise ValueError(f"the etas of an extrapolated sweep must be distinct, got {args.eta}")
    cutoffs = [args.cutoff if args.cutoff is not None else max(64, suggested_cutoff(args.alpha, eta) // 2)
               for eta in etas]
    records, triples = [], []
    for index, (eta, cutoff) in enumerate(zip(etas, cutoffs)):
        # one seed per eta, distinct within the sweep, so the etas' estimates
        # are independent; the record keeps it
        seed = args.seed * len(etas) + index
        res = est_smallball_prob(args.alpha, eta, cutoff, args.reps, seed=seed)
        triples.append((eta, res.prob, res.stderr))
        records.append(res.to_dict())
    if len(etas) >= 3:
        records.append(smallball_extrapolate(triples, args.alpha).to_dict())
    return records, None


COMMANDS = {
    "estimate": cmd_estimate,
    "crosscheck": cmd_crosscheck,
    "bound": cmd_bound,
    "maxstable": cmd_maxstable,
    "smallball": cmd_smallball,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    if args.config:
        # the file's flags go after the subcommand, before the user's, so the user's win
        try:
            flags = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        args = parser.parse_args([argv[0], *flags, *argv[1:]])
    try:
        records, failure = COMMANDS[args.command](args)
        write_records(records, args.out, args.format, _stamp(args))
    except ValueError as exc:  # ModelError included
        print(f"pickands: {exc}", file=sys.stderr)
        return 2
    if failure:
        print(failure, file=sys.stderr)
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
