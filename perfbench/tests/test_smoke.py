"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload once with tracing off and once with tracing on, and
checks that the result line carries each metric BENCHMARK.json lists with its
unit, that the report prints every metric of the mode with its unit (or, for a
layer the workload does not reach, lists it as absent), and that no invocation
failed. It makes no timing assertions.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import END_TO_END_UNITS, UNITS  # noqa: E402
from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert any(line.startswith("  fail_share    0.0000 share") for line in lines)
    # Per-layer metrics of layers the workload does not reach may be listed as absent.
    absent = next((line.split(": ", 1)[1].split(", ") for line in lines
                   if line.startswith("  absent (")), [])
    for name in [*METRICS, "trace.overhead_s"] if trace else END_TO_END_UNITS:
        pattern = rf"  {re.escape(name)} +-?[0-9.e+-]+ {re.escape(UNITS[name])} "
        assert any(re.match(pattern, line) for line in lines) or name in absent, name
