"""Command-line interface: dispatch, record schema, exit codes,
reproducibility across thread counts."""

import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from pickands import cli, engine
from pickands.cli import ESTIMATORS, ks_test, main, parse_jump_law, smirnov
from pickands.maxstable import frechet_cdf
from pickands.models import JumpLaw
from pickands.report import config_hash, parse_config_file
from pickands.smallball import CUTOFF_CAP, est_smallball_prob


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


def reads_reps(args):
    """Whether the command ``args`` reads --reps: bound draws nothing, and the
    marginal check draws --samples only."""
    return args[0] != "bound" and "marginal" not in args


def with_reps(args, reps):
    """``args`` and ``--reps reps``, unless they give --reps or do not read it."""
    return [*args, "--reps", str(reps)] if reads_reps(args) and "--reps" not in args else list(args)


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

    def test_method_all_reads_the_exact_formulas_on_shared_paths(self, tmp_path):
        # the five exact records are crosscheck's, drawn once on the same paths;
        # the others are their single-method records
        common = ["--family", "fbm", "--alpha", "1.5", "--delta", "1", "--reps", "3000", "--seed", "4"]

        def records(*args):
            out = tmp_path / "r.json"
            run_cli([*args, *common, "--out", str(out)])
            recs = json.loads(out.read_text())
            return [{k: v for k, v in r.items() if k != "config_hash"} for r in (recs if isinstance(recs, list)
                                                                                   else [recs])]

        recs = records("estimate", "--method", "all")
        assert [r["method"] for r in recs] == list(ESTIMATORS)
        shared = records("crosscheck")[0]["results"]
        for r in recs:
            if r["method"] in shared and r["method"] != "definitional":
                assert r == shared[r["method"]] and r["antithetic"] is True
            else:
                assert [r] == records("estimate", "--method", r["method"])

    def test_definitional_delta_zero_default_mesh(self):
        proc = run_cli(["estimate", "--family", "fbm", "--alpha", "1", "--delta", "0",
                        "--method", "definitional", "--reps", "200", "--seed", "1"])
        assert json.loads(proc.stdout)["mesh"] == 0.01

    def test_definitional_records_the_grid_step_it_used(self, tmp_path):
        # at delta > 0 the grid step is delta, so a given --mesh is not recorded;
        # --method all still hands the mesh to continuous-dy
        out = tmp_path / "all.json"
        run_cli(["estimate", "--family", "fbm", "--alpha", "1", "--delta", "1", "--mesh", "0.5",
                 "--method", "all", "--reps", "200", "--seed", "1", "--out", str(out)])
        recs = {r["method"]: r for r in json.loads(out.read_text())}
        assert "mesh" not in recs["definitional"]
        assert recs["continuous-dy"]["mesh"] == 0.5

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
        # the columns are the record fields in order, then what the CLI adds
        def csv_rows(args):
            out = tmp_path / "r.csv"
            run_cli([*args, "--format", "csv", "--out", str(out)])
            with open(out, newline="") as fh:
                reader = csv.DictReader(fh)
                return reader.fieldnames, list(reader)

        estimate = ["method", "delta", "estimate", "stderr", "reps", "horizon", "stable", "seed", "flags"]
        header, rows = csv_rows(["estimate", "--family", "fbm", "--alpha", "1", "--delta", "1",
                                 "--method", "exceedance", "--reps", "5000", "--seed", "2"])
        # paired paths are said so last, and only on paired records
        assert header == [*estimate, "antithetic", "config_hash"] and len(rows) == 1
        header, _ = csv_rows(["estimate", "--family", "fbm", "--alpha", "1", "--delta", "0",
                              "--method", "definitional", "--reps", "200", "--seed", "2"])
        # the definitional reads each path once, by the block kernel: a mesh and no antithetic column
        assert header == [*estimate, "mesh", "config_hash"]
        header, _ = csv_rows(["bound", "--family", "power", "--alpha", "1", "--scale", "2",
                              "--delta", "10"])
        # a nested dict is spread into dotted columns
        assert header == ["value", "formula", "inputs.delta", "inputs.kind", "inputs.alpha", "inputs.scale",
                          "series_tail_bound", "note", "config_hash", "seed"]
        header, rows = csv_rows(["crosscheck", "--family", "fbm", "--alpha", "1.5", "--delta", "1",
                                 "--reps", "5000", "--seed", "2"])
        exact = ["exceedance", "difference", "argmax", "dieker-yakir", "time-reversed"]
        result = ["method", "delta", "estimate", "stderr", "reps", "horizon", "stable", "seed", "flags"]
        assert header == [*(f"results.{m}.{f}" for m in exact for f in [*result, "antithetic"]),
                          *(f"results.definitional.{f}" for f in result),
                          *(f"overlap.{a}|{b}" for i, a in enumerate(exact) for b in exact[i + 1:]),
                          "all_overlap", "definitional_dominates", "flags", "config_hash"]
        assert len(rows) == 1 and rows[0]["results.exceedance.method"] == "exceedance"
        header, rows = csv_rows(["smallball", "--alpha", "2", "--eta", "0.2,0.1,0.05",
                                 "--cutoff", "16", "--reps", "2000", "--seed", "2"])
        per_eta = ["alpha", "eta", "cutoff", "prob", "stderr", "scaled", "scaled_stderr", "reps",
                   "seed", "stable", "factorized", "flags", "config_hash"]
        fit = ["intercept", "intercept_stderr", "slope", "slope_stderr"]
        assert header == [*per_eta, *fit] and len(rows) == 4
        for row in rows[:3]:
            assert all(row[k] for k in per_eta if k != "flags") and not any(row[f] for f in fit)
        # the fit row fills only its own fields, its flags and the config hash
        assert all(rows[3][f] for f in fit) and not any(rows[3][k] for k in per_eta[:-2])
        assert rows[3]["config_hash"] == rows[0]["config_hash"]


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

    def test_theta_sides_draw_disjoint_streams(self, tmp_path, monkeypatch):
        # the CI-overlap test assumes the blocks and candidate estimates independent
        side, keys = [None], {"blocks": set(), "candidate": set()}
        chunk_stream = engine.chunk_stream

        def spy(seed, chunk, stream=0):
            keys[side[0]].add((seed, stream, chunk))
            return chunk_stream(seed, chunk, stream)

        def labelled(name, fn):
            def call(*args, **kwargs):
                side[0] = name
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(engine, "chunk_stream", spy)
        monkeypatch.setattr(cli, "_boundary_corrected_theta", labelled("blocks", cli._boundary_corrected_theta))
        monkeypatch.setattr(cli, "est_candidate_theta", labelled("candidate", cli.est_candidate_theta))
        main(["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1", "--check", "theta",
              "--reps", "2000", "--level", "1000", "--seed", "8", "--out", str(tmp_path / "r.json")])
        assert keys["blocks"] and keys["candidate"]
        assert not keys["blocks"] & keys["candidate"]

    def test_export_and_theta_blocks_draw_disjoint_streams(self, tmp_path, monkeypatch):
        # 10460 block paths of 401 points split into two chunks, (8, 0, 0) and
        # (8, 0, 1); the export draws on stream 1 of the seed
        side, keys = [None], {"blocks": set(), "export": set()}
        chunk_stream = engine.chunk_stream

        def spy(seed, chunk, stream=0):
            if side[0] in keys:
                keys[side[0]].add((seed, stream, chunk))
            return chunk_stream(seed, chunk, stream)

        def labelled(name, fn):
            def call(*args, **kwargs):
                side[0] = name
                try:
                    return fn(*args, **kwargs)
                finally:
                    side[0] = None
            return call

        monkeypatch.setattr(engine, "chunk_stream", spy)
        monkeypatch.setattr(cli, "_boundary_corrected_theta", labelled("blocks", cli._boundary_corrected_theta))
        monkeypatch.setattr(cli, "_export_samples", labelled("export", cli._export_samples))
        main(["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1", "--check", "theta",
              "--reps", "1046000", "--seed", "8", "--export", str(tmp_path / "zeta.csv"),
              "--out", str(tmp_path / "r.json")])
        assert len(keys["blocks"]) == 2 and keys["export"] == {(8, 1, 0)}
        assert not keys["blocks"] & keys["export"]

    @pytest.mark.parametrize("check", ["fdd", "marginal"])
    def test_one_chunk_batch_is_the_stream_zero_batch(self, check, tmp_path, monkeypatch):
        # a batch the engine keeps in one chunk draws on (seed, 0, 0), as one
        # direct call on that stream does, byte for byte
        calls, batch = [], cli.max_stable_batch

        def spy(model, grid, rng, count):
            out = batch(model, grid, rng, count)
            calls.append((model, grid, count, out[0]))
            return out

        monkeypatch.setattr(cli, "max_stable_batch", spy)
        out = tmp_path / "r.json"
        argv = ["maxstable", "--family", "fbm", "--alpha", "1.5", "--delta", "1", "--check", check]
        main([*with_reps(argv, 2000), "--samples", "300", "--seed", "6", "--out", str(out)])
        (model, grid, count, zeta), = calls
        ref, _ = batch(model, grid, engine.chunk_stream(6, 0), 300)
        assert count == 300 and zeta.tobytes() == ref.tobytes()
        recs = json.loads(out.read_text())
        if check == "fdd":
            # the default check: times 0 and delta, thresholds 2 and 3
            assert recs["simulated"] == float(np.mean(np.all(ref <= [2.0, 3.0], axis=1)))
        else:
            assert [r["ks_stat"] for r in recs] == [ks_test(ref[:, j], frechet_cdf)[0] for j in range(2)]

    def test_two_chunk_marginal_thread_count_invariance(self):
        assert engine.chunk_plan(70000, 2) == [65536, 4464]
        args = ["maxstable", "--family", "fbm", "--alpha", "1.5", "--delta", "1", "--check", "marginal",
                "--samples", "70000", "--seed", "2"]
        a = run_cli(args, env={"PICKANDS_THREADS": "1"}).stdout
        b = run_cli(args, env={"PICKANDS_THREADS": "3"}).stdout
        assert a == b

    def test_export_csv(self, tmp_path):
        out = tmp_path / "zeta.csv"
        run_cli(["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1",
                 "--check", "marginal", "--samples", "2000", "--seed", "5",
                 "--export", str(out), "--rn", "4"])
        header = out.read_text().splitlines()[0]
        assert header.split(",")[1:] == ["index", "t", "zeta"]

    def test_export_path_leaves_config_hash(self, tmp_path, monkeypatch):
        # where the samples go is not part of the configuration
        monkeypatch.chdir(tmp_path)
        hashes = []
        for name in ("a", "b"):
            args = ["maxstable", "--family", "fbm", "--alpha", "2", "--check", "marginal",
                    "--samples", "20", "--seed", "1", "--export", f"{name}.csv", "--out", f"{name}.json"]
            assert main(args) in (0, 1)
            hashes.append({rec["config_hash"] for rec in json.loads(Path(f"{name}.json").read_text())})
        assert len(hashes[0]) == 1 and hashes[0] == hashes[1]


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

    @pytest.mark.parametrize("n", [1, 8, 60, 5000])
    def test_one_sided_tail_matches_scipy(self, n):
        # a grid of d with both ends, and values d = 1 - j/n exactly, where a term of the sum is 0
        ds = [*np.linspace(0.0, 1.0, 101), *(1.0 - np.arange(n + 1) / n)[:: max(1, n // 40)]]
        for d in ds:
            ref = float(special.smirnov(n, d))
            assert smirnov(n, d) == pytest.approx(ref, rel=1e-10, abs=1e-300), d
        assert smirnov(n, 0.0) == 1.0 and smirnov(n, 1.0) == 0.0
        # scipy gives nan outside [0, 1]; the tail is 1 below and 0 above
        assert smirnov(n, -0.5) == 1.0 and smirnov(n, 1.5) == 0.0


def test_import_loads_no_scipy():
    code = "import sys, pickands.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    # scipy is a test dependency only: one command of each kind runs with it unimportable
    commands = [
        ["estimate", "--reps", "2000"],
        ["crosscheck", "--reps", "2000"],
        ["bound", "--family", "fbm", "--alpha", "1.5", "--kappa", "1.5", "--cbound", "1.2"],
        ["bound", "--family", "levy", "--brownian"],
        ["maxstable", "--check", "fdd", "--reps", "20000", "--samples", "2000"],
        ["maxstable", "--check", "marginal", "--samples", "200"],
        ["maxstable", "--family", "fbm", "--alpha", "2", "--check", "theta", "--reps", "20000",
         "--level", "1000"],
        ["smallball", "--alpha", "2", "--eta", "0.2,0.1,0.05", "--reps", "2000"],
    ]
    code = ("import json, sys; sys.modules['scipy'] = None\n"
            "from pickands.cli import main\n"
            f"print(json.dumps([main([*argv, '--seed', '8', '--out', {str(tmp_path / 'r')!r}]) "
            f"for argv in {commands!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands), proc.stderr


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

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_each_eta_reproduces_from_its_record(self, alpha, tmp_path):
        # every eta of a sweep draws from its own seed, which its record keeps
        out = tmp_path / "sb.json"
        run_cli(["smallball", "--alpha", str(alpha), "--eta", "0.2,0.1,0.05", "--reps", "2000",
                 "--seed", "6", "--out", str(out)])
        recs = json.loads(out.read_text())[:3]
        assert len({rec["seed"] for rec in recs}) == 3
        for rec in recs:
            rec.pop("config_hash")
            res = est_smallball_prob(alpha, rec["eta"], rec["cutoff"] // 2, rec["reps"], seed=rec["seed"])
            assert res.to_dict() == rec

    def test_eta_beyond_the_cutoff_cap_exits_2(self):
        proc = run_cli(["smallball", "--alpha", "0.5", "--eta", "0.1", "--reps", "200"], check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert str(CUTOFF_CAP) in proc.stderr and "--cutoff" in proc.stderr


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\ndelta = 1\nreps = 5000\nmethod = exceedance\n# comment\n")
        a = run_cli(["estimate", "--config", str(cfg), "--seed", "9"]).stdout
        rec = json.loads(a)
        assert rec["method"] == "exceedance" and rec["reps"] == 5000
        b = run_cli(["estimate", "--config", str(cfg), "--seed", "9", "--reps", "1000"]).stdout
        assert json.loads(b)["reps"] == 1000

    def test_file_hashes_as_its_flags(self, tmp_path):
        # the file is read as the same flags, with the same types, so the
        # output, config_hash included, is that of the flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\ndelta = 1\nreps = 2000\n")
        a = run_cli(["estimate", "--config", str(cfg)]).stdout
        b = run_cli(["estimate", "--alpha", "2", "--delta", "1", "--reps", "2000"]).stdout
        assert a == b

    def test_abbreviated_flag_overrides_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\nreps = 2000\n")
        rec = json.loads(run_cli(["estimate", "--config", str(cfg), "--rep", "3000"]).stdout)
        assert rec["reps"] == 3000

    @pytest.mark.parametrize("line,message", [
        ("reps = abc", "argument --reps: invalid int value"),
        # rejected before the estimate runs, not when the records are written
        ("format = xml", "argument --format: invalid choice"),
        ("bogus = 1", "unrecognized arguments: --bogus=1"),
        ("delta 1", "expected 'key = value'"),
    ])
    def test_bad_file_exits_2(self, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = 2\nreps = 2000\n{line}\n")
        proc = run_cli(["estimate", "--config", str(cfg)], check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("alpha = 1.5\nfamily = fbm\nphi-jump = constant:1\n")
        values = parse_config_file(str(cfg))
        assert values == {"alpha": 1.5, "family": "fbm", "phi_jump": "constant:1"}

    @pytest.mark.parametrize("text, law", [
        ("constant:2", JumpLaw("constant", value=2.0)),
        ("normal:0.5,2", JumpLaw("normal", mean=0.5, sd=2.0)),
        ("normal:0.5", JumpLaw("normal", mean=0.5)),
        ("exponential:3", JumpLaw("exponential", rate=3.0)),
        ("exponential", JumpLaw("exponential")),
    ])
    def test_parse_jump_law_full_arity(self, text, law):
        assert parse_jump_law(text) == law

    def test_config_hash_stable(self):
        c1 = config_hash("estimate", {"alpha": 2, "delta": 1})
        c2 = config_hash("estimate", {"delta": 1, "alpha": 2})
        assert c1 == c2


@pytest.mark.parametrize("args", [
    ["estimate", "--reps", "1"],
    ["estimate", "--family", "levy", "--phi-jump-rate", "1", "--phi-jump", "bogus:1"],
    # each jump law takes at most its own number of values; extra ones are not dropped
    ["estimate", "--family", "levy", "--phi-jump-rate", "1", "--phi-jump", "constant:1,2,3"],
    ["estimate", "--family", "levy", "--phi-jump-rate", "1", "--phi-jump", "normal:0,1,5"],
    ["bound", "--family", "levy", "--phi-jump-rate", "1", "--phi-jump", "exponential:2,3", "--delta", "2"],
    ["crosscheck", "--T", "-1"],
    ["crosscheck", "--T", "0"],
    ["smallball", "--alpha", "1", "--eta", "0.1", "--cutoff", "0"],
    # alpha and eta are checked before the automatic cutoff is searched for
    ["smallball", "--alpha", "0", "--eta", "0.1"],
    ["smallball", "--alpha", "1.5", "--eta", "-0.1"],
    ["smallball", "--alpha", "1", "--eta", "0"],
    # a model flag that the family does not read is not dropped
    ["bound", "--family", "levy", "--brownian", "--phi-jump-rate", "2", "--phi-jump", "normal:0,1",
     "--delta", "16"],
    ["bound", "--family", "levy", "--brownian", "--phi-diffusion", "0.5", "--delta", "16"],
    ["bound", "--family", "fbm", "--scale", "7"],
    ["bound", "--family", "levy", "--alpha", "1.5"],
    ["bound", "--family", "power", "--brownian"],
    ["estimate", "--family", "fbm", "--phi-jump-rate", "1", "--phi-jump", "constant:1"],
    ["maxstable", "--check", "theta", "--rn", "0"],
    ["maxstable", "--samples", "0"],
    # a check on one time given twice is not a two-point check
    ["maxstable", "--check", "fdd", "--delta", "0"],
    ["maxstable", "--check", "fdd", "--points", "1,1"],
    # the power bound needs both of its parameters, and a Gaussian model
    ["bound", "--family", "power", "--alpha", "1", "--delta", "10", "--kappa", "1"],
    ["bound", "--family", "power", "--alpha", "1", "--delta", "10", "--cbound", "1.4"],
    ["bound", "--family", "levy", "--brownian", "--delta", "16", "--kappa", "1", "--cbound", "1.4"],
], ids=" ".join)
def test_out_of_range_input_exits_2(args):
    # a value outside an option's range is invalid input: it is neither
    # replaced by the default nor run, and it is not a failed check (exit 1)
    proc = run_cli(with_reps(args, 200), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("pickands: ")


@pytest.mark.parametrize("args", [
    # the engine's two-sample rule, checked before the fdd oracle draws
    ["maxstable", "--check", "fdd", "--samples", "1"],
    # every eta is checked, and its cutoff found, before the first is drawn
    ["smallball", "--alpha", "1", "--eta", "0.05,-0.1"],
    ["smallball", "--alpha", "1", "--eta", "0.05,0.05,0.1"],
    ["smallball", "--alpha", "0.5", "--eta", "0.2,0.01"],
], ids=" ".join)
def test_bad_input_exits_2_with_nothing_drawn(args, monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(engine, "chunk_stream", lambda *key: drawn.append(key))
    assert main([*args, "--reps", "2000"]) == 2
    assert not drawn and capsys.readouterr().out == ""


@pytest.mark.parametrize("args, message", [
    (["estimate", "--method", "exceedance", "--T", "5", "--window", "3", "--rn", "4"],
     "--method exceedance at --delta 1 does not read --T, --window, --rn"),
    (["estimate", "--method", "definitional", "--horizon", "99"], "does not read --horizon"),
    (["estimate", "--method", "theta-candidate", "--T", "5"], "does not read --T"),
    (["estimate", "--method", "theta-blocks", "--window", "3"], "does not read --window"),
    (["estimate", "--method", "continuous-dy", "--level", "1000"], "does not read --level"),
    (["estimate", "--method", "dieker-yakir", "--rn", "4"], "does not read --rn"),
    (["estimate", "--method", "theta-blocks", "--horizon", "16"], "does not read --horizon"),
    # at a delta above 0 the definitional's grid step is delta
    (["estimate", "--method", "definitional", "--delta", "1", "--mesh", "0.1"],
     "--method definitional at --delta 1 does not read --mesh"),
    (["estimate", "--method", "exceedance", "--mesh", "0.1"], "does not read --mesh"),
    # at delta = 0 --method all runs definitional and continuous-dy only
    (["estimate", "--method", "all", "--delta", "0", "--horizon", "16", "--rn", "4"],
     "--method all at --delta 0 does not read --rn, --horizon"),
    (["maxstable", "--check", "fdd", "--rn", "3", "--level", "7"], "--check fdd does not read --level, --rn"),
    (["maxstable", "--check", "marginal", "--points", "0,1"], "--check marginal does not read --points"),
    (["maxstable", "--check", "theta", "--thresholds", "2,3"], "--check theta does not read --thresholds"),
    # --level sets the default --rn only
    (["maxstable", "--check", "theta", "--rn", "3", "--level", "7"], "--check theta does not read --level"),
    (["maxstable", "--check", "marginal", "--rn", "3"], "--check marginal does not read --rn"),
    (["maxstable", "--check", "theta", "--samples", "500"], "--check theta does not read --samples"),
    (["maxstable", "--check", "theta", "--level", "-5"], "--level must be at least 1"),
    (["maxstable", "--check", "theta", "--level", "0.5"], "--level must be at least 1"),
    # the marginal check and --export draw --samples only
    (["maxstable", "--check", "marginal", "--samples", "50", "--reps", "7"], "--check marginal does not read --reps"),
    (["maxstable", "--check", "marginal", "--samples", "50", "--reps", "7", "--export", "zeta.csv"],
     "--check marginal --export does not read --reps"),
    # continuous-dy is a delta = 0 run, and would record delta 0
    (["estimate", "--method", "continuous-dy", "--delta", "5", "--mesh", "0.05", "--window", "1"],
     "--method continuous-dy at --delta 5 does not read --delta"),
    (["bound", "--reps", "7"], "bound does not read --reps"),
    # given --points and no --export, the fdd check's times are the points
    (["maxstable", "--check", "fdd", "--points", "0,1", "--thresholds", "2,3", "--delta", "3"],
     "--check fdd does not read --delta"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_unread_method_flag_exits_2(args, message, monkeypatch, capsys):
    # a method flag that the method or check does not read is not dropped
    drawn = []
    monkeypatch.setattr(engine, "chunk_stream", lambda *key: drawn.append(key))
    assert main(with_reps(args, 2000)) == 2
    out, err = capsys.readouterr()
    assert not drawn and out == ""
    assert err.startswith("pickands: ") and err.rstrip().endswith(message)


@pytest.mark.parametrize("args", [
    # --method all reads every flag that a method it runs reads
    ["estimate", "--method", "all", "--T", "3", "--window", "2", "--level", "1000", "--rn", "5",
     "--horizon", "16", "--mesh", "0.05"],
    ["estimate", "--method", "all", "--delta", "0", "--T", "3", "--window", "2", "--mesh", "0.05"],
    ["maxstable", "--check", "fdd", "--points", "0,1", "--thresholds", "2,3", "--samples", "50"],
    ["maxstable", "--check", "theta", "--rn", "5"],
    # --export reads --rn and --samples
    ["maxstable", "--check", "theta", "--export", "zeta.csv", "--rn", "2", "--samples", "20"],
    ["maxstable", "--check", "marginal", "--export", "zeta.csv", "--rn", "2", "--samples", "20"],
    # continuous-dy reads --delta 0, and --export the fdd check's --delta
    ["estimate", "--method", "continuous-dy", "--delta", "0", "--mesh", "0.05", "--window", "1"],
    ["maxstable", "--check", "fdd", "--points", "0,1", "--delta", "2", "--export", "zeta.csv", "--samples", "20"],
], ids=" ".join)
def test_read_method_flags_run(args, tmp_path, monkeypatch):
    # on the alpha = 2 line, where runs are quick; a failed check exits 1
    monkeypatch.chdir(tmp_path)
    argv = [args[0], "--family", "fbm", "--alpha", "2", *args[1:]]
    assert main([*with_reps(argv, 2000), "--seed", "1", "--out", "r.json"]) in (0, 1)


@pytest.mark.parametrize("args", [
    ["estimate", "--method", "theta-blocks", "--level", "inf"],
    ["maxstable", "--check", "theta", "--level", "inf"],
    ["estimate", "--method", "continuous-dy", "--window", "inf"],
    ["estimate", "--method", "definitional", "--T", "inf"],
    # an infinite grid step is not run into a zero estimate
    ["estimate", "--family", "fbm", "--alpha", "2", "--delta", "inf", "--method", "exceedance"],
    ["estimate", "--alpha", "nan"],
], ids=" ".join)
def test_non_finite_float_option_exits_2(args, monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(engine, "chunk_stream", lambda *key: drawn.append(key))
    with pytest.raises(SystemExit) as stop:
        main([*args, "--reps", "2000"])
    out, err = capsys.readouterr()
    assert stop.value.code == 2 and not drawn and out == ""
    assert "expected a finite number" in err


@pytest.mark.parametrize("args, bad", [
    (["smallball", "--alpha", "1", "--eta", "inf"], "'inf'"),
    (["estimate", "--family", "levy", "--phi-jump-rate", "1", "--phi-jump", "normal:nan,1"], "'nan'"),
    (["maxstable", "--check", "fdd", "--points", "0,1", "--thresholds", "1,nan"], "'nan'"),
    (["maxstable", "--check", "fdd", "--points", "0,inf"], "'inf'"),
], ids=" ".join)
def test_non_finite_list_value_exits_2(args, bad, monkeypatch, capsys):
    # each value of a comma-separated float option is read by the float options' type
    drawn = []
    monkeypatch.setattr(engine, "chunk_stream", lambda *key: drawn.append(key))
    assert main([*args, "--reps", "200"]) == 2
    out, err = capsys.readouterr()
    assert not drawn and out == ""
    assert f"{args[-2]}: expected a finite number, got {bad}" in err


def test_every_float_option_is_finite():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    types = {action.type for sub in subparsers.choices.values() for action in sub._actions}
    assert float not in types and cli._finite in types


@pytest.mark.parametrize("command, verdict", [
    (["crosscheck", "--family", "fbm", "--alpha", "1.5", "--delta", "1", "--reps", "2000"],
     "pickands.estimators._ci_overlap"),
    (["maxstable", "--family", "fbm", "--alpha", "2", "--delta", "1", "--check", "theta",
      "--reps", "20000", "--level", "1000"], "pickands.cli._ci_overlap"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_failed_check_writes_its_record_and_exits_1(command, verdict, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verdict, lambda a, b: False)
    out = tmp_path / "r.json"
    assert main([*command, "--seed", "3", "--out", str(out)]) == 1
    rec = json.loads(out.read_text())
    assert rec.get("all_overlap", rec.get("ci_overlap")) is False and "config_hash" in rec
    assert capsys.readouterr().err.startswith(f"{command[0]}: ")


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
    # --reps and --samples where the command reads them: the theta check reads --samples
    # only with --export
    samples = args[0] == "maxstable" and ("theta" not in args or "--export" in args)
    small = ({"--reps": "2000"} if reads_reps(args) else {}) | ({"--samples": "500"} if samples else {})
    args = list(args)
    for flag, value in small.items():
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    proc = run_cli(args, check=False, cwd=tmp_path)
    assert proc.returncode in (0, 1), proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_readme_headline_is_stable():
    # the first headline command at full size: the certified horizon of this
    # model is 16, and doubling to it must not read as truncation-unstable
    headline = README.read_text().split("## Reproducing the headline numbers")[1]
    line = next(l for l in headline.splitlines() if l.startswith("pickands estimate"))
    rec = json.loads(run_cli(shlex.split(line)[1:]).stdout)
    assert rec["horizon"] == 16
    assert rec["stable"] is True and rec["flags"] == []


def readme_python_blocks() -> list[str]:
    """Every ``python`` block of the README, with each ``reps=`` argument cut to 2000."""
    return [re.sub(r"\breps=[\d_]+", "reps=2000", block)
            for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)]


@pytest.mark.parametrize("code", readme_python_blocks(), ids=lambda code: code.splitlines()[0])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_has_python_blocks():
    assert readme_python_blocks()
