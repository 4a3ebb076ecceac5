"""End-to-end tests of the command-line front end and its file contracts."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import cwsoc
import cwsoc.cli as cli
from cwsoc import samplers
from cwsoc.cli import main
from cwsoc.limit_law import QuarticLaw, normalizer
from cwsoc.samplers import chain_rng
from cwsoc.verification import TOLERANCES


def read(path):
    return path.read_text()


def interrupt_a_long_run(args):
    """Runs the CLI with `args` in a child process, sends its process group
    SIGINT half a second after sampling starts, and asserts that it exits
    nonzero within 10 s."""
    script = (
        "import sys, cwsoc.cli as cli\n"
        "inner = cli.run\n"
        "def run(chain, sweeps):\n"
        "    sys.stdout.write('sampling\\n')\n"
        "    sys.stdout.flush()\n"
        "    return inner(chain, sweeps)\n"
        "cli.run = run\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(cwsoc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, start_new_session=True,
    )
    try:
        # chain threads may write it at once, so their lines may run together
        assert proc.stdout.readline().startswith("sampling")
        time.sleep(0.5)
        assert proc.poll() is None
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=10)
        assert proc.returncode != 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()


class TestSimulate:
    def test_zero_sweeps_header_only(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n", "8", "--sweeps", "0", "--out", str(out)]) == 0
        assert read(out / "samples.csv") == "chain,sweep,s,t,s_scaled,t_scaled\n"
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["output_paths"] == ["samples.csv"]
        assert manifest["params"]["n"] == 8
        assert "simulate" in manifest["command"]

    def test_identical_flags_byte_identical_csv(self, tmp_path):
        flags = ["simulate", "--n", "12", "--sweeps", "50", "--seed", "3", "--chains", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_chain_output_independent_of_chain_count(self, tmp_path):
        # chain 0's rows depend only on (seed, chain_id), not on --chains
        base = ["simulate", "--n", "12", "--sweeps", "40", "--seed", "3"]
        solo, multi = tmp_path / "solo", tmp_path / "multi"
        assert main(base + ["--chains", "1", "--out", str(solo)]) == 0
        assert main(base + ["--chains", "3", "--out", str(multi)]) == 0
        solo_rows = read(solo / "samples.csv").splitlines()[1:]
        multi_rows = [r for r in read(multi / "samples.csv").splitlines()[1:] if r.startswith("0,")]
        assert solo_rows == multi_rows

    def test_csv_schema_and_scaling_columns(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n", "16", "--sweeps", "5", "--out", str(out)]) == 0
        lines = read(out / "samples.csv").splitlines()
        assert lines[0] == "chain,sweep,s,t,s_scaled,t_scaled"
        chain, sweep, s, t, s_scaled, t_scaled = lines[1].split(",")
        assert chain == "0" and sweep == "1"
        assert float(s_scaled) == float(s) / 16**0.75
        assert float(t_scaled) == float(t) / 16

    def test_pinned_samples_digest(self, tmp_path):
        # criterion 10's manifest; the digest pins the stream contract (draw
        # order and kernel arithmetic), which a run-against-run comparison
        # cannot see.  numpy does not promise Generator streams across versions:
        # measured with numpy 2.4.
        flags = ["simulate", "--n", "24", "--sigma", "1.5", "--sweeps", "200", "--burn-in", "50",
                 "--thin", "2", "--chains", "4", "--seed", "12345", "--out", str(tmp_path)]
        assert main(flags) == 0
        digest = hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest()
        assert digest == "7e70c7c8cb101ae602f8697847666d5f7f3e89b7c0df0c5f4d2603a5651712c5"

    def test_manifest_command_and_sampler_pinned(self, tmp_path, monkeypatch):
        # written by the CLI before simulate and convergence shared their settings code
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 2.0\nsweeps = 37\nburn_in = 5\nthin = 3\nproposal_scale = 1.7\nchains = 3\nn = 10\n")
        monkeypatch.setenv("CWSOC_SEED", "314")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        manifest = json.loads(read(tmp_path / "run" / "manifest.json"))
        assert manifest["command"] == (
            "simulate --n 10 --sigma 2.0 --sweeps 37 --burn-in 5 --thin 3 --chains 3 --seed 314 --proposal-scale 1.7"
        )
        assert manifest["sampler"] == {
            "burn_in_sweeps": 5, "chains": 3, "proposal_scale": 1.7, "seed": 314, "sweeps": 37, "thin_sweeps": 3,
            "translate_scale": 0.0,
        }
        assert manifest["params"] == {"n": 10, "sigma": 2.0}

    def test_ctrl_c_stops_a_long_run_at_once(self, tmp_path):
        # each chain needs well over 30 s; the run must not wait for them after SIGINT
        sweeps = "3000000"
        interrupt_a_long_run(
            ["simulate", "--n", "256", "--sweeps", sweeps, "--burn-in", sweeps, "--chains", "2",
             "--out", str(tmp_path / "run")]
        )

    def test_invalid_flag_exits_2(self, tmp_path):
        assert main(["simulate", "--n", "not-a-number", "--out", str(tmp_path)]) == 2

    def test_missing_out_exits_2(self):
        assert main(["simulate", "--n", "8"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_sigma_whose_square_overflows_exits_2(self, tmp_path, capsys, command):
        where = ["--n", "8"] if command == "simulate" else ["--n-list", "8"]
        out = tmp_path / "run"
        assert main([command, *where, "--sigma", "1e200", "--sweeps", "10", "--out", str(out)]) == 2
        assert "finite normal double" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_negative_sweeps_exits_2(self, tmp_path, capsys, command):
        where = ["--n", "8"] if command == "simulate" else ["--n-list", "8"]
        out = tmp_path / "run"
        assert main([command, *where, "--sweeps", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sweeps must be a nonnegative integer, got -1\n"
        assert not out.exists()

    def test_chains_recorded_in_id_order(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n", "8", "--sweeps", "3", "--chains", "3", "--out", str(out)]) == 0
        chain_col = [line.split(",")[0] for line in read(out / "samples.csv").splitlines()[1:]]
        assert chain_col == sorted(chain_col)
        assert set(chain_col) == {"0", "1", "2"}

    def test_chains_share_the_usable_cpus(self, tmp_path, monkeypatch):
        # one usable CPU: one chain thread runs all three chains, with the same bytes
        threads = []
        inner = cli.run

        def recording_run(chain, sweeps):
            threads.append(threading.get_ident())
            return inner(chain, sweeps)

        monkeypatch.setattr(cli, "run", recording_run)
        outputs = {}
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            threads.clear()
            out = tmp_path / str(cpus)
            assert main(["simulate", "--n", "8", "--sweeps", "40", "--chains", "3", "--out", str(out)]) == 0
            outputs[cpus] = (out / "samples.csv").read_bytes()
            if cpus == 1:
                assert len(threads) == 3 and len(set(threads)) == 1
        assert outputs[1] == outputs[3]

    def test_t_scaled_concentrates_at_desk_scale(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n", "256", "--sweeps", "20000", "--burn-in", "1000",
                     "--thin", "5", "--seed", "6", "--out", str(out)]) == 0
        t_scaled = [float(line.split(",")[5]) for line in read(out / "samples.csv").splitlines()[1:]]
        assert 0.9 <= sum(t_scaled) / len(t_scaled) <= 1.1


class TestLimit:
    def test_cdf_at_zero(self, capsys):
        assert main(["limit", "--cdf", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_quantile_median(self, capsys):
        assert main(["limit", "--quantile", "0.5"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_density_matches_library(self, capsys):
        assert main(["limit", "--density", "0.7", "--sigma", "2.0"]) == 0
        printed = float(capsys.readouterr().out)
        assert printed == pytest.approx(QuarticLaw(2.0).density(0.7), rel=1e-15)

    def test_seventeen_significant_digits_round_trip(self, capsys):
        assert main(["limit", "--density", "0.3"]) == 0
        text = capsys.readouterr().out.strip()
        assert float(text) == QuarticLaw(1.0).density(0.3)

    def test_sample_count_and_determinism(self, capsys):
        assert main(["limit", "--sample", "10", "--seed", "5"]) == 0
        first = capsys.readouterr().out.splitlines()
        assert main(["limit", "--sample", "10", "--seed", "5"]) == 0
        second = capsys.readouterr().out.splitlines()
        assert len(first) == 10
        assert first == second

    def test_mutually_exclusive_queries(self):
        assert main(["limit", "--cdf", "0", "--quantile", "0.5"]) == 2

    def test_out_of_domain_quantile_is_usage_error(self):
        assert main(["limit", "--quantile", "1.5"]) == 2

    @pytest.mark.parametrize("flag", ["--density", "--cdf"])
    def test_nan_point_is_usage_error_naming_the_flag(self, capsys, flag):
        assert main(["limit", flag, "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{flag} must be a number" in err

    # sigma^4 lies outside the double range at each of these sigma
    @pytest.mark.parametrize(
        "sigma, flag, point, printed",
        [
            ("1e100", "--density", "0", 1.0 / (1e100 * normalizer(1.0))),
            ("1e-170", "--density", "0", 1.0 / (1e-170 * normalizer(1.0))),
            ("1e-170", "--density", "1", 0.0),
            ("1e200", "--cdf", "1", 0.5),
            ("1e-170", "--cdf", "1", 1.0),
            ("1e100", "--quantile", "0.75", 1e100 * QuarticLaw(1.0).quantile(0.75)),
        ],
    )
    def test_extreme_sigma(self, capsys, sigma, flag, point, printed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["limit", "--sigma", sigma, flag, point]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(printed, rel=1e-14)

    def test_extreme_sigma_sample(self, capsys):
        assert main(["limit", "--sigma", "1e100", "--sample", "2"]) == 0
        draws = [float(v) for v in capsys.readouterr().out.split()]
        unit = QuarticLaw(1.0).sample(chain_rng(0, 0), size=2)
        assert draws == pytest.approx(1e100 * unit, rel=1e-15)

    def test_density_far_out_is_zero(self, capsys):
        # x^4 lies beyond the double range
        assert main(["limit", "--density", "1e100"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    @pytest.mark.parametrize(
        "flag, point, printed",
        [("--density", "inf", 0.0), ("--density", "-inf", 0.0), ("--cdf", "inf", 1.0), ("--cdf", "-inf", 0.0)],
    )
    def test_infinite_point_is_valid(self, capsys, flag, point, printed):
        assert main(["limit", f"{flag}={point}"]) == 0
        assert float(capsys.readouterr().out) == printed

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_unsigned_bits_exits_2(self, capsys, seed):
        # the rule simulate's seeds follow
        assert main(["limit", "--sample", "3", "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "64 unsigned bits" in err

    def test_largest_seed_accepted(self, capsys):
        assert main(["limit", "--sample", "3", "--seed", str(2**64 - 1)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestVerify:
    def test_complex_suite_report_and_exit(self, tmp_path, capsys):
        assert main(["verify", "--suite", "complex", "--out", str(tmp_path)]) == 0
        reports = json.loads(read(tmp_path / "report.json"))
        assert reports, "report.json must not be empty"
        for item in reports:
            assert set(item) == {"name", "value", "expected", "tolerance", "pass", "details"}
            assert item["pass"] is True
        stdout = capsys.readouterr().out
        assert "PASS" in stdout and "FAIL" not in stdout

    def test_laplace_suite_report_is_plain_json(self, tmp_path):
        assert main(["verify", "--suite", "laplace", "--n-list", "5", "--out", str(tmp_path)]) == 0
        reports = json.loads(read(tmp_path / "report.json"))
        assert all(item["pass"] is True for item in reports)

    def test_unknown_suite_exits_2(self, tmp_path):
        assert main(["verify", "--suite", "nonsense", "--out", str(tmp_path)]) == 2

    def test_bad_tol_override_exits_2(self, tmp_path):
        assert main(["verify", "--suite", "complex", "--tol", "garbage", "--out", str(tmp_path)]) == 2
        assert main(["verify", "--suite", "complex", "--tol", "nope=1e-3", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("name, suite", [("complex_quad_tol", "complex"), ("inversion_tol", "density")])
    def test_meaningless_tol_value_exits_2_without_report(self, tmp_path, capsys, name, suite, value):
        out = tmp_path / "verify"
        assert main(["verify", "--suite", suite, "--tol", f"{name}={value}", "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("n_list", ["3,4", "3,6"])
    def test_n_list_below_5_exits_2_without_report(self, tmp_path, capsys, n_list):
        out = tmp_path / "verify"
        assert main(["verify", "--suite", "density", "--n-list", n_list, "--out", str(out)]) == 2
        assert "at least 5" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_repeated_n_list_order_exits_2_without_report(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "--suite", "density", "--n-list", "5,5", "--out", str(out)]) == 2
        assert "distinct, got [5]" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_repeated_tol_name_exits_2_without_report(self, tmp_path, capsys):
        out = tmp_path / "verify"
        argv = ["verify", "--suite", "complex", "--tol", "complex_quad_tol=1e-18",
                "--tol", "complex_quad_tol=1e-8", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'complex_quad_tol' given more than once" in err
        assert not (out / "report.json").exists()

    def test_tol_override_applies(self, tmp_path):
        # an absurdly tight oracle tolerance must flip checks to FAIL -> exit 1
        code = main(["verify", "--suite", "complex", "--tol", "complex_quad_tol=1e-18",
                     "--out", str(tmp_path)])
        assert code == 1
        reports = json.loads(read(tmp_path / "report.json"))
        assert any(not item["pass"] for item in reports)


# Each --tol name: the suite it tunes and the prefixes of the report rows it sets.
TOL_ROWS = {
    "complex_quad_tol": ("complex", ("complex/gaussian_integral[",)),
    "inversion_tol": ("density", ("density/inversion_vs_closed_form[", "density/inversion_outside_support[")),
    "density_mass_tol": ("density", ("density/closed_form_total_mass[",)),
    "norm_cross_tol": ("laplace", ("laplace/normalization_cross_route[",)),
    "ratio_tol_100": ("laplace", ("laplace/asymptotic_ratio[n=100]",)),
    "ratio_tol_400": ("laplace", ("laplace/asymptotic_ratio[n=400]",)),
}


def _report_tolerances(out, suite, *flags):
    n_list = [] if suite == "complex" else ["--n-list", "5"]
    assert main(["verify", "--suite", suite, *n_list, *flags, "--out", str(out)]) == 0
    return {item["name"]: item["tolerance"] for item in json.loads(read(out / "report.json"))}


@pytest.fixture(scope="module")
def default_tolerances(tmp_path_factory):
    """Row name -> tolerance of each suite's report with no --tol."""
    return {
        suite: _report_tolerances(tmp_path_factory.mktemp(suite), suite)
        for suite in sorted({suite for suite, _ in TOL_ROWS.values()})
    }


class TestEveryTolNameReachesItsChecks:
    def test_every_tolerance_has_its_rows(self):
        assert set(TOL_ROWS) == set(TOLERANCES)

    @pytest.mark.parametrize("name", sorted(TOL_ROWS))
    def test_override_sets_its_rows_and_no_others(self, tmp_path, default_tolerances, name):
        suite, prefixes = TOL_ROWS[name]
        value = 3.0 * TOLERANCES[name]
        got = _report_tolerances(tmp_path, suite, "--tol", f"{name}={value!r}")
        defaults = default_tolerances[suite]
        assert set(got) == set(defaults)
        mine = {row for row in got if row.startswith(prefixes)}
        assert mine, f"{name} sets no row of the {suite} report"
        for row in mine:
            assert defaults[row] == TOLERANCES[name], row
            assert got[row] == value, row
        for row in set(got) - mine:
            assert got[row] == defaults[row], row


class TestConvergence:
    def test_single_n_row(self, tmp_path):
        out = tmp_path / "conv"
        assert main([
            "convergence", "--n-list", "16", "--sweeps", "300", "--burn-in", "100",
            "--seed", "4", "--out", str(out),
        ]) == 0
        lines = read(out / "convergence.csv").splitlines()
        assert lines[0] == "n,ks,mean_t_scaled,sd_t_scaled,samples"
        assert len(lines) == 2
        n, ks, mean_t, sd_t, samples = lines[1].split(",")
        assert n == "16"
        assert 0.0 < float(ks) < 1.0
        assert int(samples) == 200

    def test_extreme_sigma(self, tmp_path):
        # sigma^4, and the squared deviations of t/n from its mean, lie beyond
        # the double range
        rows = {}
        for sigma in ("1", "1e100"):
            out = tmp_path / sigma
            assert main(["convergence", "--n-list", "8", "--sigma", sigma, "--sweeps", "20", "--burn-in", "0",
                         "--out", str(out)]) == 0
            rows[sigma] = [float(v) for v in read(out / "convergence.csv").splitlines()[1].split(",")]
        n, ks, mean_t, sd_t, samples = rows["1e100"]
        assert (n, samples) == (8, 20)
        assert ks == pytest.approx(rows["1"][1], rel=1e-12)
        assert mean_t == pytest.approx(1e200 * rows["1"][2], rel=1e-12)
        assert sd_t == pytest.approx(1e200 * rows["1"][3], rel=1e-10)

    def test_requested_counts_and_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CWSOC_SEED", raising=False)
        out = tmp_path / "conv"
        assert main([
            "convergence", "--n-list", "8,16", "--sweeps", "220", "--burn-in", "20",
            "--thin", "2", "--out", str(out),
        ]) == 0
        rows = read(out / "convergence.csv").splitlines()[1:]
        assert [int(r.split(",")[-1]) for r in rows] == [100, 100]
        manifest = json.loads(read(out / "manifest.json"))
        # written by the CLI before simulate and convergence shared their settings code
        assert manifest["command"] == (
            "convergence --n-list 8,16 --sigma 1.0 --sweeps 220 --burn-in 20 --thin 2 --seed 0 --proposal-scale 2.38"
        )
        assert manifest["sampler"] == {
            "burn_in_sweeps": 20, "proposal_scale": 2.38, "seed": 0, "sweeps": 220, "thin_sweeps": 2,
            "translate_moves": 8, "translate_scale": 1.5,
        }
        assert manifest["params"] == {"n_list": [8, 16], "sigma": 1.0}

    def test_translate_moves_has_one_source(self, tmp_path, monkeypatch):
        # the manifest and the chain's draws both follow samplers.TRANSLATE_MOVES
        monkeypatch.setattr(samplers, "TRANSLATE_MOVES", 3)
        chains, inner = [], cli.run

        def recording_run(chain, sweeps):
            chains.append(chain)
            return inner(chain, sweeps)

        monkeypatch.setattr(cli, "run", recording_run)
        out = tmp_path / "conv"
        assert main(["convergence", "--n-list", "8", "--sweeps", "5", "--burn-in", "0", "--seed", "6",
                     "--out", str(out)]) == 0
        assert json.loads(read(out / "manifest.json"))["sampler"]["translate_moves"] == 3
        # the documented stream: the initial spins, then per sweep the three
        # blocks and a normal and a uniform per move
        expected = chain_rng(6, 0)
        expected.standard_normal(8)
        for _ in range(5):
            expected.integers(0, 8, size=8), expected.standard_normal(8), expected.random(8)
            for _ in range(3):
                expected.standard_normal(1), expected.random(1)
        [chain] = chains
        assert repr(chain.rng.bit_generator.state) == repr(expected.bit_generator.state)

    def test_one_chains_records_alive_at_a_time(self, tmp_path, monkeypatch):
        args = ["convergence", "--n-list", "8,16,8", "--sweeps", "300", "--burn-in", "100", "--seed", "4", "--out"]
        assert main(args + [str(tmp_path / "plain")]) == 0

        earlier, alive_at_call = [], []
        inner = cli.run

        def weakly_held_run(chain, sweeps):
            alive_at_call.append(sum(ref() is not None for ref in earlier))
            records = inner(chain, sweeps)
            earlier.append(weakref.ref(records))
            return records

        monkeypatch.setattr(cli, "run", weakly_held_run)
        assert main(args + [str(tmp_path / "wrapped")]) == 0
        # no earlier chain's records are alive when the next chain runs
        assert alive_at_call == [0, 0, 0]
        assert read(tmp_path / "wrapped" / "convergence.csv") == read(tmp_path / "plain" / "convergence.csv")

    def test_ctrl_c_stops_a_long_run_at_once(self, tmp_path):
        # the chain runs on the main thread, with a helper drawing ahead where a
        # CPU is spare; neither may keep the process alive after SIGINT
        sweeps = "3000000"
        interrupt_a_long_run(
            ["convergence", "--n-list", "256", "--sweeps", sweeps, "--burn-in", sweeps, "--out", str(tmp_path / "conv")]
        )

    def test_ks_shrinks_from_n32_to_n256_on_fixed_seed(self, tmp_path):
        # empirical convergence trend; deterministic given the frozen seed
        out = tmp_path / "trend"
        assert main([
            "convergence", "--n-list", "32,256", "--sweeps", "42000", "--burn-in", "2000",
            "--thin", "2", "--seed", "321", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in read(out / "convergence.csv").splitlines()[1:]]
        ks = {int(r[0]): float(r[1]) for r in rows}
        assert ks[256] < ks[32]


class TestPlotdata:
    @pytest.fixture()
    def samples_dir(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--n", "16", "--sweeps", "400", "--seed", "11",
                     "--out", str(out)]) == 0
        return out

    def test_single_bin_density_is_inverse_width(self, samples_dir, tmp_path):
        out = tmp_path / "plot"
        assert main(["plotdata", "--input", str(samples_dir / "samples.csv"), "--bins", "1",
                     "--out", str(out)]) == 0
        lines = read(out / "histogram.csv").splitlines()
        assert lines[0] == "bin_left,bin_right,density_empirical,density_limit"
        left, right, emp, _ = lines[1].split(",")
        assert float(emp) == pytest.approx(1.0 / (float(right) - float(left)), rel=1e-12)

    def test_normalization_exact(self, samples_dir, tmp_path):
        out = tmp_path / "plot"
        assert main(["plotdata", "--input", str(samples_dir / "samples.csv"), "--bins", "20",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out / "histogram.csv").splitlines()[1:]]
        total = sum((float(r[1]) - float(r[0])) * float(r[2]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_overlay_matches_limit_density_at_midpoints(self, samples_dir, tmp_path):
        out = tmp_path / "plot"
        assert main(["plotdata", "--input", str(samples_dir / "samples.csv"), "--bins", "7",
                     "--overlay-limit", "--sigma", "1.0", "--out", str(out)]) == 0
        law = QuarticLaw(1.0)
        for row in read(out / "histogram.csv").splitlines()[1:]:
            left, right, _, limit = row.split(",")
            mid = 0.5 * (float(left) + float(right))
            assert float(limit) == pytest.approx(law.density(mid), rel=1e-15)

    def test_missing_input_exits_1(self, tmp_path):
        assert main(["plotdata", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("bad_row", ["0,3,1.0,2.0", "0,3,1.0,2.0,abc,0.5"])
    def test_malformed_row_exits_2_naming_file_and_line(self, tmp_path, capsys, bad_row):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"chain,sweep,s,t,s_scaled,t_scaled\n0,1,1.0,2.0,0.3,0.5\n{bad_row}\n")
        out = tmp_path / "plot"
        assert main(["plotdata", "--input", str(samples), "--out", str(out)]) == 2
        assert f"{samples}:3:" in capsys.readouterr().err
        assert not (out / "histogram.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_s_scaled_exits_2_naming_file_and_line(self, tmp_path, capsys, value):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"chain,sweep,s,t,s_scaled,t_scaled\n0,1,1.0,2.0,0.3,0.5\n0,2,1.0,2.0,{value},0.5\n")
        out = tmp_path / "plot"
        assert main(["plotdata", "--input", str(samples), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{samples}:3:" in err and "non-finite" in err
        assert not (out / "histogram.csv").exists()


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 2.0\nsweeps = 7\n# comment\n")
        out = tmp_path / "a"
        assert main(["simulate", "--n", "8", "--sigma", "3.0", "--config", str(cfg),
                     "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["params"]["sigma"] == 3.0  # flag wins
        assert manifest["sampler"]["sweeps"] == 7  # config beats default

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma 2.0\n")
        assert main(["simulate", "--n", "8", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_key_exits_2_naming_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("sigma = 2.0\nsweep=3\n")
        out = tmp_path / "x"
        assert main(["simulate", "--n", "8", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: unknown key 'sweep'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_of_another_command_accepted(self, tmp_path, capsys):
        # one config file may serve simulate and limit; limit ignores n and chains
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n = 8\nchains = 2\nburn-in = 3\nseed = 4\n")
        assert main(["limit", "--sample", "2", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CWSOC_SEED", "314")
        out = tmp_path / "env"
        assert main(["simulate", "--n", "8", "--sweeps", "2", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["sampler"]["seed"] == 314

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CWSOC_SEED", "314")
        out = tmp_path / "flag"
        assert main(["simulate", "--n", "8", "--sweeps", "2", "--seed", "9", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["sampler"]["seed"] == 9


class TestLimitSampleAgainstKs:
    def test_printed_samples_pass_ks_against_cdf(self, capsys):
        from cwsoc.verification import ks_statistic

        assert main(["limit", "--sample", "20000", "--sigma", "1.0", "--seed", "8"]) == 0
        values = np.sort([float(line) for line in capsys.readouterr().out.splitlines()])
        assert values.size == 20000
        ks = ks_statistic(values, QuarticLaw(1.0).cdf)
        assert ks < 1.36 / math.sqrt(values.size)
