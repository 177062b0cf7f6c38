"""Command-line interface.

Subcommands: estimate, crosscheck, bound, maxstable, smallball. Every run
is reproducible from its configuration and seed; records embed the
configuration hash. Worker-thread count comes from PICKANDS_THREADS (unset:
the CPUs the process may run on; 1 runs serially) and never changes
numerical output; peak memory grows with it, about one chunk per thread.

Exit codes: 0 success, 1 a requested check failed, 2 invalid usage or
input.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np
from scipy.special import smirnov

from . import engine
from .bounds import gaussian_lower_bound, gaussian_power_bound, levy_h0_bound, levy_lower_bound
from .estimators import (
    TruncationPolicy,
    crosscheck,
    est_argmax,
    est_continuous_dy,
    est_definitional,
    est_dieker_yakir,
    est_difference,
    est_exceedance,
    est_time_reversed,
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
from .report import RunConfig, parse_config_file, write_records
from .smallball import est_smallball_prob, smallball_extrapolate, suggested_cutoff

ESTIMATORS = {
    "definitional": est_definitional,
    "exceedance": est_exceedance,
    "difference": est_difference,
    "argmax": est_argmax,
    "dieker-yakir": est_dieker_yakir,
    "time-reversed": est_time_reversed,
    "continuous-dy": est_continuous_dy,
    "theta-candidate": est_candidate_theta,
    "theta-blocks": est_extremal_index_blocks,
}
# the methods that take delta = 0, all others need a positive grid step
CONTINUUM_METHODS = ("definitional", "continuous-dy")
# their mesh when --mesh is not given
DEFAULT_MESH = 0.01


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pickands",
        description="Monte Carlo estimation of Pickands-type constants and extremal indices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_model: bool = True) -> None:
        p.add_argument("--config", help="key = value file; command-line flags override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--reps", type=int, default=100_000)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if with_model:
            p.add_argument("--family", choices=("fbm", "power", "levy"), default="fbm")
            p.add_argument("--alpha", type=float, default=1.0)
            p.add_argument("--scale", type=float, default=2.0)
            p.add_argument("--brownian", action="store_true",
                           help="shortcut for the standard Brownian Levy model")
            p.add_argument("--phi-diffusion", type=float, default=1.0)
            p.add_argument("--phi-jump-rate", type=float, default=0.0)
            p.add_argument("--phi-jump", default=None,
                           help="jump law, e.g. constant:1.0, normal:0,1 or exponential:2")

    p_est = sub.add_parser("estimate", help="estimate H^delta (or H^0) by one or all formulas")
    add_common(p_est)
    p_est.add_argument("--delta", type=float, default=1.0)
    p_est.add_argument("--mesh", type=float, help=f"mesh for delta = 0 runs (default {DEFAULT_MESH})")
    p_est.add_argument("--method", default="exceedance",
                       choices=sorted(ESTIMATORS) + ["all"])
    p_est.add_argument("--horizon", type=int, help="initial truncation horizon (grid points)")
    p_est.add_argument("--T", type=float, help="definitional horizon in time units")
    p_est.add_argument("--window", type=float, default=10.0, help="half-width for continuous-dy")
    p_est.add_argument("--level", type=float, dest="level", default=1e4,
                       help="exceedance level n for theta-blocks")
    p_est.add_argument("--rn", type=int, help="block length r_n for theta-blocks")

    p_x = sub.add_parser("crosscheck", help="run all exact formulas on shared paths")
    add_common(p_x)
    p_x.add_argument("--delta", type=float, default=1.0)
    p_x.add_argument("--horizon", type=int)
    p_x.add_argument("--T", type=float)

    p_b = sub.add_parser("bound", help="closed-form lower bounds")
    add_common(p_b)
    p_b.add_argument("--delta", type=float, default=1.0)
    p_b.add_argument("--kappa", type=float, help="power-bound exponent")
    p_b.add_argument("--cbound", type=float, help="power-bound constant c")

    p_m = sub.add_parser("maxstable", help="max-stable simulation and its checks")
    add_common(p_m)
    p_m.add_argument("--delta", type=float, default=1.0)
    p_m.add_argument("--check", choices=("fdd", "marginal", "theta"), default="fdd")
    p_m.add_argument("--points", default=None, help="comma-separated times (fdd check)")
    p_m.add_argument("--thresholds", default=None, help="comma-separated thresholds (fdd check)")
    p_m.add_argument("--samples", type=int, default=20_000)
    p_m.add_argument("--level", type=float, default=1e4, help="exceedance level n (theta check)")
    p_m.add_argument("--rn", type=int, help="block length r_n (theta check)")
    p_m.add_argument("--export", help="write simulated samples as CSV (index,t,zeta)")

    p_s = sub.add_parser("smallball", help="reciprocal-grid lower-tail probabilities")
    add_common(p_s, with_model=False)
    p_s.add_argument("--alpha", type=float, required=True)
    p_s.add_argument("--eta", required=True, help="comma-separated eta values")
    p_s.add_argument("--cutoff", type=int, help="initial constraint cutoff K (default: automatic)")
    return parser


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Apply file values for every option not explicitly given on the line."""
    if not getattr(args, "config", None):
        return
    values = parse_config_file(args.config)
    for key, value in values.items():
        if key in ("config", "command"):
            continue
        if not hasattr(args, key):
            raise SystemExit(f"unknown configuration key {key!r}")
        flag = "--" + key.replace("_", "-")
        explicit = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if not explicit:
            setattr(args, key, value)


def build_model(args: argparse.Namespace):
    if args.family in ("fbm", "power"):
        if args.family == "fbm":
            return VarianceFunction.fbm(args.alpha)
        return VarianceFunction.power(args.alpha, args.scale)
    if args.brownian or (args.phi_jump_rate == 0 and args.phi_jump is None):
        return LevyModel.brownian(args.phi_diffusion if not args.brownian else 1.0)
    return LevyModel(
        diffusion=args.phi_diffusion,
        jump_rate=args.phi_jump_rate,
        jump_law=parse_jump_law(args.phi_jump),
    )


def parse_jump_law(text: str | None) -> JumpLaw | None:
    if text is None:
        return None
    kind, _, params = text.partition(":")
    vals = [float(v) for v in params.split(",")] if params else []
    if kind == "constant":
        return JumpLaw("constant", value=vals[0] if vals else 1.0)
    if kind == "normal":
        return JumpLaw("normal", mean=vals[0] if vals else 0.0, sd=vals[1] if len(vals) > 1 else 1.0)
    if kind == "exponential":
        return JumpLaw("exponential", rate=vals[0] if vals else 1.0)
    raise SystemExit(f"unknown jump law {text!r}")


def _config(args: argparse.Namespace, skip=("config", "out", "format")) -> RunConfig:
    options = {k: v for k, v in vars(args).items() if k not in skip and k != "command" and v is not None}
    return RunConfig(command=args.command, options=options)


def _policy(args: argparse.Namespace) -> TruncationPolicy | None:
    horizon = getattr(args, "horizon", None)
    return TruncationPolicy(initial=horizon) if horizon else None


def _run_single_estimate(args, model, method: str) -> dict:
    seed, reps = args.seed, args.reps
    if method == "definitional":
        T = args.T if args.T is not None else max(2.0, 2.0 * args.delta)
        mesh = DEFAULT_MESH if args.mesh is None and args.delta == 0 else args.mesh
        res = est_definitional(model, args.delta, T, reps, mesh=mesh, seed=seed)
    elif method == "continuous-dy":
        mesh = args.mesh if args.mesh is not None else DEFAULT_MESH
        res = est_continuous_dy(model, mesh, args.window, reps, seed=seed)
    elif method == "theta-blocks":
        res = est_extremal_index_blocks(model, args.delta, int(args.level), reps,
                                        r_n=args.rn, seed=seed)
    elif method == "theta-candidate":
        res = est_candidate_theta(model, args.delta, reps, policy=_policy(args), seed=seed)
    else:
        res = ESTIMATORS[method](model, args.delta, reps, policy=_policy(args), seed=seed)
    return res.to_dict()


def cmd_estimate(args) -> int:
    model = build_model(args)
    if args.method != "all":
        methods = [args.method]
    else:
        methods = list(CONTINUUM_METHODS if args.delta == 0 else ESTIMATORS)
    records = []
    config = _config(args)
    for method in methods:
        rec = _run_single_estimate(args, model, method)
        rec["config_hash"] = config.hash
        records.append(rec)
    write_records(records, args.out, args.format)
    return 0


def cmd_crosscheck(args) -> int:
    model = build_model(args)
    report = crosscheck(model, args.delta, args.reps, policy=_policy(args),
                        seed=args.seed, T=args.T)
    payload = report.to_dict()
    payload["config_hash"] = _config(args).hash
    write_records([payload], args.out, args.format)
    if not report.all_overlap:
        bad = [f"{a}~{b}" for (a, b), ok in report.overlap.items() if not ok]
        print(f"crosscheck: non-overlapping pairs: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def cmd_bound(args) -> int:
    model = build_model(args)
    config = _config(args)
    records = []
    if isinstance(model, VarianceFunction):
        records.append(gaussian_lower_bound(model, args.delta).to_dict())
        if args.kappa is not None and args.cbound is not None:
            records.append(gaussian_power_bound(args.cbound, args.kappa, args.delta).to_dict())
    else:
        records.append(levy_lower_bound(model, args.delta).to_dict())
        records.append(levy_h0_bound(model).to_dict())
    for rec in records:
        rec["config_hash"] = config.hash
        rec["seed"] = args.seed
    write_records(records, args.out, args.format)
    return 0


def cmd_maxstable(args) -> int:
    model = build_model(args)
    config = _config(args)
    records = []
    ok = True
    if args.check == "fdd":
        points = [float(v) for v in args.points.split(",")] if args.points else [0.0, args.delta]
        thresholds = ([float(v) for v in args.thresholds.split(",")] if args.thresholds
                      else [2.0, 3.0][: len(points)])
        oracle = fdd_probability(model, points, thresholds, args.reps, seed=args.seed + 1)
        grid, cols = _containing_grid(np.asarray(points))
        rng = engine.chunk_stream(args.seed, 0)
        zeta, _ = max_stable_batch(model, grid, rng, args.samples)
        zeta = zeta[:, cols]
        emp = float(np.mean(np.all(zeta <= np.asarray(thresholds)[None, :], axis=1)))
        se_emp = float(np.sqrt(max(emp * (1 - emp), 1e-12) / args.samples))
        gap = abs(emp - oracle.probability)
        combined = float(np.hypot(se_emp, oracle.stderr))
        ok = gap <= 3.0 * combined
        records.append({
            "check": "fdd", "points": points, "thresholds": thresholds,
            "simulated": emp, "simulated_stderr": se_emp,
            "oracle": oracle.probability, "oracle_stderr": oracle.stderr,
            "within_3se": ok,
        })
    elif args.check == "marginal":
        grid = GridSpec(args.delta, 0, 1)
        rng = engine.chunk_stream(args.seed, 0)
        zeta, _ = max_stable_batch(model, grid, rng, args.samples)
        for j, t in enumerate(grid.times()):
            stat, pvalue = ks_test(zeta[:, j], frechet_cdf)
            ok = ok and pvalue > 0.01
            records.append({
                "check": "marginal", "t": float(t), "ks_stat": stat,
                "p_value": pvalue, "passes_1pct": bool(pvalue > 0.01),
            })
    else:
        r_n = args.rn or math.isqrt(int(args.level))
        blocks = _boundary_corrected_theta(model, args.delta, r_n, max(args.reps // 100, 100),
                                           seed=args.seed)
        cand = est_candidate_theta(model, args.delta, args.reps, seed=args.seed)
        lo = max(blocks.ci95()[0], cand.ci95()[0])
        hi = min(blocks.ci95()[1], cand.ci95()[1])
        ok = lo <= hi
        records.append({"check": "theta", "blocks": blocks.to_dict(),
                        "candidate": cand.to_dict(), "ci_overlap": ok})
    if args.export:
        _export_samples(args, model)
    for rec in records:
        rec["config_hash"] = config.hash
        rec["seed"] = args.seed
    write_records(records, args.out, args.format)
    if not ok:
        print(f"maxstable: {args.check} check failed", file=sys.stderr)
    return 0 if ok else 1


def ks_test(sample: np.ndarray, cdf) -> tuple[float, float]:
    """Two-sided Kolmogorov-Smirnov statistic D of ``sample`` against ``cdf``, and its p-value.

    The p-value is min(1, 2 P{D+ >= D}) with the exact one-sided tail
    (scipy.special.smirnov); it matches the exact two-sided value wherever
    that is small, which is where a test decision is made.
    """
    x = np.sort(sample)
    n = x.size
    cdfvals = cdf(x)
    d = max((np.arange(1.0, n + 1) / n - cdfvals).max(), (cdfvals - np.arange(0.0, n) / n).max())
    return float(d), min(1.0, 2.0 * float(smirnov(n, d)))


def _export_samples(args, model) -> None:
    grid = GridSpec(args.delta, 0, max(1, args.rn or 8))
    rng = engine.chunk_stream(args.seed, 1)
    zeta, _ = max_stable_batch(model, grid, rng, min(args.samples, 1000))
    rows = [{"sample": s, "index": int(i), "t": float(t), "zeta": float(z)}
            for s, path in enumerate(zeta)
            for i, t, z in zip(grid.indices(), grid.times(), path)]
    write_records(rows, args.export, "csv")


def cmd_smallball(args) -> int:
    etas = [float(v) for v in args.eta.split(",")]
    config = _config(args)
    records = []
    triples = []
    for eta in etas:
        cutoff = args.cutoff if args.cutoff else max(64, suggested_cutoff(args.alpha, eta) // 2)
        res = est_smallball_prob(args.alpha, eta, cutoff, args.reps, seed=args.seed)
        triples.append((eta, res.prob, res.stderr))
        rec = res.to_dict()
        rec["config_hash"] = config.hash
        records.append(rec)
    if len(etas) >= 3:
        fit = smallball_extrapolate(triples, args.alpha)
        rec = fit.to_dict()
        rec["config_hash"] = config.hash
        records.append(rec)
    write_records(records, args.out, args.format)
    return 0


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
    _apply_config_file(args, argv)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:  # ModelError included
        print(f"pickands: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
