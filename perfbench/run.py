"""Time-to-precision benchmark of the pickands CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload slow-decay --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1        # every workload in turn

A run repeats its workload as long as the next repetition, at the last
one's pace, would end within ``--seconds`` (at least four repetitions; the
first only warms the page cache and is checked but not timed). Each repetition is one fresh child process that imports
``pickands.cli`` from ``src/`` once and calls ``pickands.cli.main(argv)`` for
every invocation of the workload; the records each invocation writes with
``--out`` are read back, hashed and checked against their references.
Repetition r uses seed set max(0, r - 1), so the first two repetitions share
their inputs and the rest add fresh seeds. The sha256 of every invocation's
output is recorded; two repetitions of one run that give the same seed
different outputs count as a failure. Every ``--seed`` passed to the CLI is
derived from the workload seed. ``PICKANDS_THREADS`` is removed from the
children's environment, so the library default is measured.

``--trace 0`` reports the end-to-end metrics (medians over repetitions):
``ttp_s``, ``wall_s``, ``setup_s`` and ``peak_rss_mb``; ``setup_s`` also
counts one extra child per timed repetition that imports ``pickands.cli``
and runs no invocation. ``--trace 1`` runs
pairs of repetitions on one seed set, one plain and one with the layer
wrappers of ``spans.py`` installed, and prints every per-layer metric of the
traced ones plus the tracing overhead. The last line of standard output is
one JSON object that carries the metrics ``BENCHMARK.json`` lists for the
mode: the per-layer ones listed there are those defined on every workload, so
that none is a time that reads zero on every run of some workload. A
detailed result, with provenance, per-invocation rows, every metric and
output hashes, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import METRICS, layer_metrics
from workloads import LAYER_MAP, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

END_TO_END_UNITS = {"ttp_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPETITIONS = 4
# A run starts no repetition that would, at the last one's pace, end after
# this; with one hung child, CHILD_TIMEOUT_S still ends the run within three
# minutes.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 100.0
UNITS = {**END_TO_END_UNITS, **{m: unit for m, (unit, _) in METRICS.items()}, "trace.overhead_s": "s"}
SHOWN_BY_INVOCATION = [m for m, (unit, _) in METRICS.items() if unit == "s"] + [
    "models.points", "maxstable.paths_per_sample", "maxstable.capped_share"]


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


def derive_seed(seed: int, seed_set: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{seed_set}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def run_child(invocations: list[dict], trace: bool, workdir: Path) -> tuple[float, dict]:
    """Run one child; return its set-up seconds and its result."""
    workdir.mkdir(parents=True)
    spec = workdir / "spec.json"
    result = workdir / "child.json"
    spec.write_text(json.dumps({"src": str(SRC), "trace": trace, "result": str(result),
                                "invocations": invocations}))
    env = dict(os.environ)
    env.pop("PICKANDS_THREADS", None)
    with open(workdir / "stderr.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(spec)], cwd=workdir, env=env,
                                stdout=subprocess.PIPE, stderr=log)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            setup = time.perf_counter() - start
            if line.strip() != b"ready":
                raise HarnessError(f"child did not start: {(workdir / 'stderr.log').read_text()[-2000:]}")
            proc.wait(timeout=CHILD_TIMEOUT_S - setup)
        except subprocess.TimeoutExpired:
            pass  # killed below; its invocations count as failed
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or not result.exists():
        return setup, {"rows": []}  # every invocation of a crashed child counts as failed
    return setup, json.loads(result.read_text())


def evaluate(inv, path: Path, export: Path, code) -> dict:
    """Read back one invocation's records; headline SE, check verdict and hash."""
    row = {"code": code, "ok": False, "alarm": False, "se": None, "detail": "", "sha256": None}
    if code not in (0, 1) or (code == 1 and not inv.alarm_exit) or not path.exists():
        row["detail"] = f"exit code {code}"
        return row
    digest = hashlib.sha256(path.read_bytes())
    if inv.export:
        digest.update(export.read_bytes() if export.exists() else b"")
    row["sha256"] = digest.hexdigest()
    try:
        records = json.loads(path.read_text())
        row["ok"], row["detail"] = inv.check(records)
        row["se"] = inv.se(records) if inv.se else None
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        row["ok"], row["detail"] = False, f"unreadable records: {exc!r}"
    row["alarm"] = code == 1
    return row


def run_repetition(workload, seed: int, seed_set: int, trace: bool, size: str, workdir: Path) -> dict:
    # Paths relative to the child's working directory, so that the export path,
    # which enters the record's configuration hash, is the same in every repetition.
    invocations = [{"name": inv.name, "argv": inv.argv(size, derive_seed(seed, seed_set, inv.name),
                                                       f"{inv.name}.out", f"{inv.name}.csv")}
                   for inv in workload.invocations]
    setup, result = run_child(invocations, trace, workdir)
    by_name = {r["name"]: r for r in result["rows"]}
    rows = []
    for inv, spec in zip(workload.invocations, invocations):
        child_row = by_name.get(inv.name, {"code": None, "wall_s": 0.0})
        row = evaluate(inv, workdir / f"{inv.name}.out", workdir / f"{inv.name}.csv", child_row["code"])
        row.update(name=inv.name, seed=int(spec["argv"][spec["argv"].index("--seed") + 1]),
                   wall_s=child_row["wall_s"], tau=inv.tau)
        if child_row.get("error"):
            row["detail"] = child_row["error"].strip().splitlines()[-1]
        if row["se"] is not None and inv.tau:
            row["ttp_s"] = row["wall_s"] * (row["se"] / inv.tau) ** 2
        rows.append(row)
    return {"seed_set": seed_set, "traced": trace, "setup_s": setup, "rows": rows,
            "wall_s": sum(r["wall_s"] for r in rows),
            "ttp_s": sum(r.get("ttp_s", 0.0) for r in rows),
            "peak_rss_mb": result.get("peak_rss_mb"),
            "versions": result.get("versions"), "child_trace": result.get("trace")}


def summary(values: list[float]) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, versions: dict | None) -> dict:
    return {
        **(versions or {}),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "pickands_threads": "unset in the children (library default); parent environment: "
                            + os.environ.get("PICKANDS_THREADS", "unset"),
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


def run_workload(name: str, why: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{trace}-{size}"
    shutil.rmtree(workdir, ignore_errors=True)
    reps, setups = [], []
    start = last = time.perf_counter()
    while True:
        r, now = len(reps), time.perf_counter()
        # Stop before a repetition that would overrun --seconds at the last one's
        # pace, once the minimum is reached; below it, stop only near the limit
        # (three repetitions give one warm-up, one plain and one traced).
        finish = now - start + (now - last)
        if finish > seconds and r >= MIN_REPETITIONS or finish > RUN_LIMIT_S and r >= 3:
            break
        last = now
        traced = bool(trace) and r % 2 == 1
        seed_set = r // 2 if trace else max(0, r - 1)
        reps.append(run_repetition(workload, seed, seed_set, traced, size, workdir / f"rep{r}"))
        if r and not trace:
            # One more set-up, by a child that runs no invocation: set-up time
            # varies more from spawn to spawn than the workload does, so its
            # median takes twice the samples.
            setups.append(run_child([], False, workdir / f"setup{r}")[0])

    # Outputs of one seed must be byte-identical in every repetition of the run.
    hashes = {}
    for rep in reps:
        for row in rep["rows"]:
            key = f"{row['name']}:{row['seed']}"
            if row["sha256"] is not None and hashes.setdefault(key, row["sha256"]) != row["sha256"]:
                row["ok"] = False
                row["detail"] += "; output differs from another repetition of the same seed"
    rows = [row for rep in reps for row in rep["rows"]]
    failed = sum(not row["ok"] for row in rows)
    # Repetition 0 warms the page cache and is checked but not timed.
    plain = [rep for rep in reps[1:] if not rep["traced"]]
    timed = [row for rep in plain for row in rep["rows"]]
    end_to_end = {m: summary([rep[m] for rep in plain]) for m in END_TO_END_UNITS}
    end_to_end["setup_s"] = summary([rep["setup_s"] for rep in plain] + setups)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "why": why,
        "provenance": provenance(seed, reps[0]["versions"]),
        "repetitions": len(reps), "attempted": len(rows), "failed": failed,
        "alarms": sum(row["alarm"] for row in rows),
        "end_to_end": end_to_end,
        "invocations": {inv.name: {"wall_s": summary([r["wall_s"] for r in timed if r["name"] == inv.name]),
                                   "se": summary([r["se"] for r in timed if r["name"] == inv.name]),
                                   "tau": inv.tau}
                        for inv in workload.invocations},
        "rows": rows,
        "layer_map": LAYER_MAP,
        "details": str((workdir / "result.json").relative_to(ROOT)),
    }
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        per_rep, absent, per_inv = [], set(), {}
        for rep in traced:
            metrics, missing = layer_metrics(rep["child_trace"])
            per_rep.append(metrics)
            absent.update(missing)
            for inv in workload.invocations:
                per_inv.setdefault(inv.name, []).append(layer_metrics(rep["child_trace"], inv.name)[0])
        layers = {m: summary([p.get(m) for p in per_rep]) for m in METRICS if m not in absent}
        traced_wall = summary([rep["wall_s"] for rep in traced])["median"]
        layers["trace.overhead_s"] = {"median": traced_wall - end_to_end["wall_s"]["median"],
                                      "n": len(traced)}
        report["per_layer"] = layers
        report["absent"] = sorted(absent)
        report["by_invocation"] = {inv: {m: statistics.median(p[m] for p in parts) for m in parts[0]
                                         if all(m in p for p in parts)}
                                   for inv, parts in per_inv.items()}
    (workdir / "result.json").write_text(json.dumps(report, indent=1, default=str))
    return report


def print_report(report: dict, listed: set[str]) -> dict:
    """Print the human-readable summary; return the ``listed`` metrics for the result line."""
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"repetitions {report['repetitions']}  ({report['why']})")
    print(f"provenance {json.dumps(report['provenance'])}")
    fail_share = report["failed"] / report["attempted"]
    print(f"  fail_share    {fail_share:.4f} share  ({report['failed']} of {report['attempted']} invocations; "
          f"{report['alarms']} passed here after a fixed-level CLI check exited 1)")
    for row in report["rows"]:
        if not row["ok"]:
            print(f"  FAILED {row['name']} seed {row['seed']}: {row['detail']}")
    table = report["per_layer"] if report["trace"] else report["end_to_end"]
    metrics = {}
    for name, s in table.items():
        if s["median"] is None:  # no repetition measured it, e.g. every child crashed
            print(f"  {name:27s} absent")
            continue
        spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
        print(f"  {name:27s} {s['median']:.6g} {UNITS[name]}  (median of {s['n']}{spread})")
        if name in listed:
            metrics[name] = {"value": s["median"], "unit": UNITS[name]}
    if report["trace"]:
        if report["absent"]:
            print(f"  absent (not reached on this workload, or entry point missing or changed): "
                  f"{', '.join(report['absent'])}")
        print("  per invocation (medians over traced repetitions; zero metrics left out):")
        for inv, parts in report["by_invocation"].items():
            cells = "  ".join(f"{k} {v:.4g}" for k, v in parts.items() if v and k in SHOWN_BY_INVOCATION)
            print(f"    {inv:24s} {cells}")
    else:
        print("  per invocation (median wall s, median se, tau):")
        for inv, s in report["invocations"].items():
            se = s["se"]["median"]
            print(f"    {inv:24s} {s['wall_s']['median']:.4f}  "
                  f"{'-' if se is None else f'{se:.4g}'}  {s['tau'] or '-'}")
    print(f"  details: {report['details']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every invocation, for the harness smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "pickands" / "cli.py").is_file():
        print(f"no pickands sources under {SRC}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            report = run_workload(name, whys[name], args.seed, args.seconds, args.trace, args.size)
            for metric, value in print_report(report, listed).items():
                metrics[metric if len(names) == 1 else f"{name}/{metric}"] = value
            attempted += report["attempted"]
            failed += report["failed"]
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
