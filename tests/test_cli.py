"""Command-line interface: dispatch, record schema, exit codes,
reproducibility across thread counts."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from pickands.cli import ESTIMATORS, ks_test, main
from pickands.maxstable import frechet_cdf
from pickands.report import RunConfig, parse_config_file


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, env=None, check=True, cwd=None):
    full_env = dict(os.environ)
    full_env.pop("PICKANDS_THREADS", None)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "pickands.cli", *args],
        capture_output=True, text=True, env=full_env, cwd=cwd,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


class TestEstimate:
    def test_record_schema(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["estimate", "--family", "fbm", "--alpha", "2", "--delta", "1",
                 "--method", "exceedance", "--reps", "20000", "--seed", "7",
                 "--out", str(out)])
        rec = json.loads(out.read_text())
        for key in ("method", "delta", "estimate", "stderr", "reps", "horizon", "seed", "config_hash", "flags"):
            assert key in rec
        assert rec["method"] == "exceedance"
        assert abs(rec["estimate"] - 0.5205) < 0.02

    def test_byte_identical_repeats(self, tmp_path):
        args = ["estimate", "--family", "fbm", "--alpha", "1.5", "--delta", "1",
                "--method", "dieker-yakir", "--reps", "20000", "--seed", "3"]
        a = run_cli(args).stdout
        b = run_cli(args).stdout
        assert a == b

    def test_thread_count_invariance(self):
        args = ["estimate", "--family", "fbm", "--alpha", "1.5", "--delta", "1",
                "--method", "difference", "--reps", "30000", "--seed", "5"]
        a = run_cli(args, env={"PICKANDS_THREADS": "1"}).stdout
        b = run_cli(args, env={"PICKANDS_THREADS": "4"}).stdout
        assert a == b

    def test_unsupported_combination_exits_2(self):
        # grid formulas need a positive step
        proc = run_cli(["estimate", "--family", "levy", "--brownian", "--delta", "0",
                        "--method", "time-reversed", "--reps", "100"], check=False)
        assert proc.returncode == 2
        assert "delta must be positive" in proc.stderr

    def test_method_all_runs_every_method_for_levy(self, tmp_path):
        out = tmp_path / "all.json"
        run_cli(["estimate", "--family", "levy", "--brownian", "--delta", "2",
                 "--method", "all", "--reps", "5000", "--seed", "1", "--out", str(out)])
        recs = json.loads(out.read_text())
        assert [r["method"] for r in recs] == list(ESTIMATORS)

    def test_definitional_delta_zero_default_mesh(self):
        proc = run_cli(["estimate", "--family", "fbm", "--alpha", "1", "--delta", "0",
                        "--method", "definitional", "--reps", "200", "--seed", "1"])
        assert json.loads(proc.stdout)["mesh"] == 0.01

    def test_method_all_at_delta_zero(self, tmp_path):
        # only definitional and continuous-dy are defined at delta = 0
        out = tmp_path / "all0.json"
        args = ["estimate", "--family", "fbm", "--alpha", "1", "--mesh", "0.05",
                "--method", "all", "--reps", "200", "--seed", "1"]
        run_cli([*args, "--delta", "0", "--out", str(out)])
        recs = json.loads(out.read_text())
        assert [r["method"] for r in recs] == ["definitional", "continuous-dy"]
        assert all(r["mesh"] == 0.05 for r in recs)
        assert run_cli([*args, "--delta", "-1"], check=False).returncode == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["estimate", "--family", "fbm", "--alpha", "1", "--delta", "1",
                 "--method", "exceedance", "--reps", "5000", "--seed", "2",
                 "--format", "csv", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["method", "delta"]
        assert len(lines) == 2


class TestCrosscheck:
    def test_overlap_and_exit_zero(self):
        proc = run_cli(["crosscheck", "--family", "fbm", "--alpha", "1.5", "--delta", "1",
                        "--reps", "30000", "--seed", "11"])
        payload = json.loads(proc.stdout)
        assert payload["all_overlap"] is True
        assert payload["definitional_dominates"] is True
        assert len(payload["overlap"]) == 10

    def test_underpowered_flagged(self):
        proc = run_cli(["crosscheck", "--family", "fbm", "--alpha", "2", "--delta", "1",
                        "--reps", "10", "--seed", "1"], check=False)
        payload = json.loads(proc.stdout)
        assert "underpowered" in payload["flags"]


class TestBound:
    def test_levy_brownian_value(self):
        proc = run_cli(["bound", "--family", "levy", "--brownian", "--delta", "16"])
        recs = json.loads(proc.stdout)
        geometric = next(r for r in recs if r["formula"] == "levy-geometric")
        assert geometric["value"] == pytest.approx(0.052718, abs=5e-7)

    def test_gaussian_with_power(self):
        proc = run_cli(["bound", "--family", "power", "--alpha", "1", "--scale", "2",
                        "--delta", "10", "--kappa", "1", "--cbound", str(np.sqrt(2.0))])
        recs = json.loads(proc.stdout)
        by_formula = {r["formula"]: r["value"] for r in recs}
        assert by_formula["gaussian-series"] == pytest.approx(0.0910575, abs=5e-7)
        assert by_formula["gaussian-power"] == pytest.approx(0.06)


class TestMaxstable:
    def test_fdd_check_passes(self):
        proc = run_cli(["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1",
                        "--check", "fdd", "--reps", "100000", "--samples", "20000",
                        "--seed", "3"])
        rec = json.loads(proc.stdout)
        assert rec["within_3se"] is True

    def test_marginal_check(self):
        proc = run_cli(["maxstable", "--family", "fbm", "--alpha", "1.5", "--delta", "1",
                        "--check", "marginal", "--samples", "20000", "--seed", "4"])
        recs = json.loads(proc.stdout)
        assert all(r["passes_1pct"] for r in recs)

    def test_theta_check_passes(self):
        # the blocks side is boundary-corrected; the raw block value reads 0.548
        # here against delta H = erf(1/2) = 0.5205
        proc = run_cli(["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1",
                        "--check", "theta", "--reps", "20000", "--level", "1000", "--seed", "8"])
        rec = json.loads(proc.stdout)
        assert rec["ci_overlap"] is True
        assert rec["blocks"]["horizon"] == 31
        assert rec["blocks"]["flags"] == ["boundary-corrected"]

    def test_export_csv(self, tmp_path):
        out = tmp_path / "zeta.csv"
        run_cli(["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1",
                 "--check", "marginal", "--samples", "2000", "--seed", "5",
                 "--export", str(out), "--rn", "4"])
        header = out.read_text().splitlines()[0]
        assert header.split(",")[1:] == ["index", "t", "zeta"]


class TestKsTest:
    @pytest.mark.parametrize("n", [8, 60, 5000])
    def test_matches_scipy(self, n):
        # Frechet samples stretched by up to 40%, so that many p-values are small
        rng = np.random.default_rng(n)
        small = 0
        for stretch in np.linspace(1.0, 1.4, 40):
            x = stretch / rng.exponential(size=n)
            stat, p = ks_test(x, frechet_cdf)
            ref = stats.kstest(x, frechet_cdf)
            assert stat == ref.statistic
            if ref.pvalue < 0.1:
                small += 1
                assert abs(p - ref.pvalue) <= 1e-4
            assert (p > 0.01) == (ref.pvalue > 0.01)
        assert small >= 5

    def test_marginal_run_does_not_import_scipy_stats(self, tmp_path):
        code = ("import sys; from pickands.cli import main; "
                f"main(['maxstable', '--check', 'marginal', '--samples', '50', '--out', {str(tmp_path / 'm.json')!r}]); "
                "print('scipy.stats' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestSmallball:
    def test_rows_and_extrapolation(self, tmp_path):
        out = tmp_path / "sb.json"
        run_cli(["smallball", "--alpha", "2", "--eta", "0.2,0.1,0.05", "--cutoff", "16",
                 "--reps", "20000", "--seed", "6", "--out", str(out)])
        recs = json.loads(out.read_text())
        assert len(recs) == 4  # three rows plus the extrapolation
        for rec in recs[:3]:
            for key in ("eta", "cutoff", "prob", "stderr", "scaled"):
                assert key in rec
        assert abs(recs[-1]["intercept"] - np.sqrt(2.0 / np.pi)) < 0.1


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\ndelta = 1\nreps = 5000\nmethod = exceedance\n# comment\n")
        a = run_cli(["estimate", "--config", str(cfg), "--seed", "9"]).stdout
        rec = json.loads(a)
        assert rec["method"] == "exceedance" and rec["reps"] == 5000
        b = run_cli(["estimate", "--config", str(cfg), "--seed", "9", "--reps", "1000"]).stdout
        assert json.loads(b)["reps"] == 1000

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("alpha = 1.5\nfamily = fbm\nphi-jump = constant:1\n")
        values = parse_config_file(str(cfg))
        assert values == {"alpha": 1.5, "family": "fbm", "phi_jump": "constant:1"}

    def test_config_hash_stable(self):
        c1 = RunConfig("estimate", {"alpha": 2, "delta": 1})
        c2 = RunConfig("estimate", {"delta": 1, "alpha": 2})
        assert c1.hash == c2.hash


def test_main_returns_int():
    assert main(["bound", "--family", "levy", "--brownian", "--delta", "16",
                 "--out", "/dev/null"]) == 0


def readme_commands() -> list[list[str]]:
    """Arguments of every distinct ``pickands`` command in the README's shell blocks."""
    commands = {}
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pickands "):
                commands[tuple(shlex.split(line, comments=True)[1:])] = None
    return [list(c) for c in commands]


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_command_runs(args, tmp_path):
    # small runs: only usage is checked, so a failed statistical check (1) is allowed
    small = {"--reps": "2000"} | ({"--samples": "500"} if args[0] == "maxstable" else {})
    args = list(args)
    for flag, value in small.items():
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    proc = run_cli(args, check=False, cwd=tmp_path)
    assert proc.returncode in (0, 1), proc.stderr
