"""End-to-end and per-layer benchmark of the cwsoc command-line toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command runs in a fresh
interpreter (perfbench/child.py) against ``src/``, repeated until the time
budget is spent; every command's outputs are checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (commands run),
``failed`` (commands with a nonzero exit or a failed check) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from traced
commands with ``--trace 1``.  The line before it records the environment and
every command's figures.  See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ess import tau_int
from oracle import FiniteLaw, ks_distance, quartic_cdf
from tracer import TRACED_NAMES, load_spans, self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
COMMAND_TIMEOUT_S = 120.0
# Per-check false-alarm probability of the statistical output checks; the
# benchmark makes a few hundred such checks per evaluation.
ALPHA = 1e-4
Z_ALPHA = 3.89  # two-sided normal quantile for ALPHA

SIM_N, SIM_CHAINS, SIM_SWEEPS, SIM_BURN, SIM_THIN = 256, 2, 21000, 1000, 5
CONV_NS, CONV_SWEEPS, CONV_BURN = (16, 64, 256), 20000, 2000
VERIFY_CHECKS = 72

WORKLOADS = {
    "simulate-n256": ["simulate", "--n", str(SIM_N), "--sigma", "1.0", "--sweeps", str(SIM_SWEEPS),
                      "--burn-in", str(SIM_BURN), "--thin", str(SIM_THIN), "--chains", str(SIM_CHAINS)],
    "convergence-ks": ["convergence", "--n-list", ",".join(map(str, CONV_NS)), "--sweeps", str(CONV_SWEEPS),
                       "--burn-in", str(CONV_BURN)],
    "verify-all": ["verify", "--suite", "all"],
}
SEEDED = {"simulate-n256", "convergence-ks"}
PROPOSALS = {
    "simulate-n256": SIM_CHAINS * SIM_SWEEPS * SIM_N,
    "convergence-ks": CONV_SWEEPS * sum(CONV_NS),
}
WORKERS = {"simulate-n256": SIM_CHAINS, "convergence-ks": 1, "verify-all": 1}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "steps_per_s": "1/s", "ess_per_s": "1/s"}


# samples.csv sha256 of simulate-n256 at the CLI seeds every command uses,
# measured before any change to the program.  A fixed pool of seeds makes the
# ESS of each command exact, so ess_per_s spreads only as wall time does, and
# lets every simulate command check its stream.
REFERENCE_SHA256 = {int(k): v for k, v in json.loads((HERE / "reference_sha256.json").read_text()).items()}
CLI_SEEDS = sorted(REFERENCE_SHA256)


def cli_seed(seed: int, k: int) -> int:
    """CLI seed of the k-th command of a run: the pool in turn, from an offset set by the run's seed."""
    return CLI_SEEDS[(seed + k) % len(CLI_SEEDS)]


def host_counters() -> dict:
    """CPU time the hypervisor stole from this machine and CFS throttling of
    this process's cgroup, read-only; a counter that cannot be read is None."""
    counters = {"steal_s": None, "nr_throttled": None, "throttled_s": None}
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        counters["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    try:
        cgroups = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        cgroups = []
    candidates = []
    for line in cgroups:
        _id, controllers, path = line.split(":", 2)
        if controllers == "":
            candidates.append(Path("/sys/fs/cgroup" + path.rstrip("/")) / "cpu.stat")
        elif "cpu" in controllers.split(","):
            candidates.append(Path(f"/sys/fs/cgroup/{controllers}" + path.rstrip("/")) / "cpu.stat")
    for path in candidates:
        try:
            stat = dict(line.split() for line in path.read_text().splitlines())
        except (OSError, ValueError):
            continue
        if "nr_throttled" in stat:
            counters["nr_throttled"] = int(stat["nr_throttled"])
            if "throttled_usec" in stat:
                counters["throttled_s"] = int(stat["throttled_usec"]) / 1e6
            elif "throttled_time" in stat:
                counters["throttled_s"] = int(stat["throttled_time"]) / 1e9
            break
    return counters


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def spawn_child(result_path: Path, own_args: list[str], cli_args: list[str], log_dir: Path) -> tuple[dict, float]:
    """Runs child.py; returns its result dict (or an error) and the spawn time."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), *own_args, "--", *cli_args]
    with open(log_dir / "stdout.txt", "w") as out, open(log_dir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"error": f"timed out after {COMMAND_TIMEOUT_S} s"}, spawned
    if code != 0 or not result_path.exists():
        tail = (log_dir / "stderr.txt").read_text()[-2000:]
        return {"error": f"child exited {code}: {tail}"}, spawned
    result = json.loads(result_path.read_text())
    if not Path(result["cwsoc_file"]).resolve().is_relative_to(ROOT / "src"):
        return {"error": f"imported cwsoc from {result['cwsoc_file']}, not from this checkout"}, spawned
    return result, spawned


def chain_tau_ess(values: np.ndarray, thin: int) -> tuple[float, float]:
    """(tau_int in sweeps, ESS) of one chain's s_scaled series."""
    tau = tau_int(values)
    return tau * thin, values.size / tau


def check_simulate(out: Path, seed: int, law: FiniteLaw) -> tuple[list[str], dict]:
    failures = []
    path = out / "samples.csv"
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    lines = raw.decode().splitlines()
    per_chain = (SIM_SWEEPS - SIM_BURN) // SIM_THIN
    if lines[0] != "chain,sweep,s,t,s_scaled,t_scaled":
        failures.append(f"unexpected header {lines[0]!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.shape != (SIM_CHAINS * per_chain, 6):
        return failures + [f"samples.csv has shape {data.shape}"], {"sha256": digest}
    expected_sweeps = np.arange(SIM_BURN + SIM_THIN, SIM_SWEEPS + 1, SIM_THIN)
    taus, esses, esses_t = [], [], []
    for chain in range(SIM_CHAINS):
        rows = data[data[:, 0] == chain]
        if rows.shape[0] != per_chain or not np.array_equal(rows[:, 1], expected_sweeps):
            failures.append(f"chain {chain}: wrong rows or sweep numbers")
            continue
        tau, ess = chain_tau_ess(rows[:, 4], SIM_THIN)
        taus.append(tau)
        esses.append(ess)
        esses_t.append(chain_tau_ess(rows[:, 5], SIM_THIN)[1])
    if digest != REFERENCE_SHA256[seed]:
        failures.append(f"samples.csv sha256 {digest} at seed {seed} differs from the reference "
                        f"{REFERENCE_SHA256[seed]}")
    ess_total = sum(esses)
    ks = ks_distance(data[:, 4], law.cdf)
    ks_bound = math.sqrt(math.log(2.0 / ALPHA) / 2.0) / math.sqrt(ess_total) if ess_total else 0.0
    if not ks <= ks_bound:
        failures.append(f"KS of s_scaled against the exact n={SIM_N} law {ks:.4f} > {ks_bound:.4f}")
    t_scaled = data[:, 5]
    t_err = abs(t_scaled.mean() - law.mean_t_scaled)
    t_bound = Z_ALPHA * t_scaled.std() / math.sqrt(sum(esses_t)) if esses_t else 0.0
    if not t_err <= t_bound:
        failures.append(f"mean t_scaled {t_scaled.mean():.5f} off the exact {law.mean_t_scaled:.5f} by > {t_bound:.5f}")
    figures = {"sha256": digest, "bytes": len(raw), "ess": ess_total, "tau_int_sweeps": {SIM_N: taus},
               "ks_exact": ks, "ks_bound": ks_bound, "mean_t_scaled": float(t_scaled.mean())}
    return failures, figures


def check_convergence(out: Path, capture: Path) -> tuple[list[str], dict]:
    failures = []
    lines = (out / "convergence.csv").read_text().splitlines()
    if lines[0] != "n,ks,mean_t_scaled,sd_t_scaled,samples":
        failures.append(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    samples = CONV_SWEEPS - CONV_BURN
    if [int(r[0]) for r in rows] != list(CONV_NS):
        return failures + [f"convergence.csv rows {rows!r}"], {}
    with np.load(capture) as npz:
        chains = [npz[f"arr_{i}"] for i in range(len(npz.files))]
    taus, esses = {}, 0.0
    for (n, ks, mean_t, _sd, count), chain in zip(rows, chains):
        if int(count) != samples or chain.shape != (samples, 2):
            failures.append(f"n={n}: {count} samples, expected {samples}")
            continue
        if not 0.9 <= float(mean_t) <= 1.1:
            failures.append(f"n={n}: mean_t_scaled {mean_t} outside [0.9, 1.1]")
        own_ks = ks_distance(chain[:, 0], quartic_cdf)
        if not abs(own_ks - float(ks)) <= 1e-9:
            failures.append(f"n={n}: reported KS {ks} but the samples give {own_ks!r}")
        tau, ess = chain_tau_ess(chain[:, 0], 1)
        taus[int(n)] = [tau]
        esses += ess
    return failures, {"ess": esses, "tau_int_sweeps": taus}


def check_verify(out: Path) -> tuple[list[str], dict]:
    report = json.loads((out / "report.json").read_text())
    passed = sum(1 for r in report if r["pass"] is True)
    failures = []
    if not passed == len(report) == VERIFY_CHECKS:
        failures.append(f"{passed}/{len(report)} checks pass, expected {VERIFY_CHECKS}/{VERIFY_CHECKS}")
    return failures, {"checks_passed": passed, "checks_total": len(report)}


def layer_metrics(spans: list[list], figures: dict, workload: str, out: Path) -> tuple[dict, float]:
    """Per-layer figures of one traced command, and the sum of its self times."""
    shares = self_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in TRACED_NAMES:
        mine = [s for s in spans if s[2] == name]
        if name != "cli":
            metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.busy_s"] = (sum(s[4] - s[3] for s in mine), "s")
        metrics[f"{name}.self_s"] = (sum(shares[s[0]] for s in mine), "s")
    roots = [s for s in spans if s[2] == "cli"]
    wall = roots[0][4] - roots[0][3] if len(roots) == 1 else float("nan")
    runs = [s for s in spans if s[2] == "samplers.run"]
    proposed = sum(s[6]["proposed"] for s in runs)
    metrics["samplers.run.acceptance"] = (sum(s[6]["accepted"] for s in runs) / proposed if proposed else 0.0, "ratio")
    for n in CONV_NS:
        at_n = [s for s in runs if s[6]["n"] == n]
        busy = sum(s[4] - s[3] for s in at_n)
        metrics[f"samplers.run.steps_per_s.n{n}"] = (sum(s[6]["proposed"] for s in at_n) / busy if busy else 0.0, "1/s")
        taus = figures.get("tau_int_sweeps", {}).get(n, [])
        metrics[f"samplers.tau_int_sweeps.n{n}"] = (statistics.fmean(taus) if taus else 0.0, "sweeps")
    metrics["samplers.ess"] = (figures.get("ess", 0.0), "count")
    run_busy = sum(s[4] - s[3] for s in runs)
    metrics["cli.parallel_efficiency"] = (run_busy / (wall * WORKERS[workload]), "ratio")
    csv = out / "samples.csv"
    metrics["cli.samples_csv.bytes"] = (csv.stat().st_size if csv.exists() else 0, "bytes")
    metrics["verification.invert_char_fn.failed"] = (
        sum(1 for s in spans if s[2] == "verification.invert_char_fn" and not s[5]), "count")
    metrics["verification.checks.passed"] = (figures.get("checks_passed", 0), "count")
    metrics["verification.checks.total"] = (figures.get("checks_total", 0), "count")
    return metrics, sum(shares.values())


def median_metrics(per_command: list[dict]) -> dict:
    return {name: {"value": statistics.median(m[name][0] for m in per_command), "unit": unit}
            for name, (_v, unit) in per_command[0].items()}


def seed_balanced_mean(commands: list[dict], key: str) -> float:
    """Mean over the CLI seeds met of each seed's mean ``key``, so a seed that
    a run met twice weighs no more than the others.

    A mean, not a median: over the five to seven commands of a run it spread
    from run to run no more than the median did (perfbench/README.md)."""
    by_seed: dict = {}
    for c in commands:
        by_seed.setdefault(c["cli_seed"], []).append(c[key])
    return statistics.fmean(statistics.fmean(v) for v in by_seed.values())


def run_command(workload: str, seed: int, k: int, traced: bool, out: Path,
                law: FiniteLaw | None) -> tuple[dict, dict | None]:
    """Runs and checks the k-th command of a run; returns its record and, when
    traced, its per-layer figures."""
    cli_args = list(WORKLOADS[workload])
    seed_k = cli_seed(seed, k) if workload in SEEDED else None
    if seed_k is not None:
        cli_args += ["--seed", str(seed_k)]
    cli_args += ["--out", str(out)]
    own = []
    if traced:
        (out / "spans").mkdir()
        own += ["--trace", str(out / "spans")]
    if workload == "convergence-ks":
        own += ["--capture", str(out / "capture.npz")]
    before = host_counters()
    result, spawned = spawn_child(out / "result.json", own, cli_args, out)
    after = host_counters()
    host = {name: None if before[name] is None or after[name] is None else after[name] - before[name]
            for name in before}
    record = {"k": k, "cli_seed": seed_k, "traced": traced, "cli_args": cli_args[:-2], "failures": [],
              "host": host}
    failures = record["failures"]
    if "error" in result:
        failures.append(result["error"])
        return record, None
    if result["exit_code"] != 0:
        failures.append(f"exit code {result['exit_code']}")
        return record, None
    record.update(setup_s=result["ready"] - spawned, wall_s=result["wall_s"], cpu_s=result["cpu_s"],
                  peak_rss_mb=result["peak_rss_mb"])
    try:
        if workload == "simulate-n256":
            more, figures = check_simulate(out, seed_k, law)
        elif workload == "convergence-ks":
            more, figures = check_convergence(out, out / "capture.npz")
        else:
            more, figures = check_verify(out)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        more, figures = [f"output check raised {exc!r}"], {}
    failures += more
    record["figures"] = figures
    if not traced or failures:
        return record, None
    layers, record["trace_accounted_s"] = layer_metrics(load_spans(out / "spans"), figures, workload, out)
    return record, layers


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + seconds
    WORK.mkdir(exist_ok=True)
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    law = FiniteLaw(SIM_N) if workload == "simulate-n256" else None
    commands, layer_runs, elapsed = [], [], []
    try:
        k = 0
        while True:
            traced = trace and k % 2 == 1
            out = work / f"cmd{k}"
            out.mkdir()
            began = time.monotonic()
            record, layers = run_command(workload, seed, k, traced, out, law)
            elapsed.append(time.monotonic() - began)
            commands.append(record)
            layer_runs.append(layers)
            shutil.rmtree(out, ignore_errors=True)
            k += 1
            # Start another command when it should end less than half a
            # command past the deadline, so a run measures --seconds on average.
            if (k >= 2 or not trace) and time.monotonic() + statistics.median(elapsed) / 2 > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    good = [c for c in commands if not c["failures"]]
    plain = [c for c in good if not c["traced"]]
    traced_ok = [c for c in good if c["traced"]]
    if trace and traced_ok and plain:
        overhead = statistics.median(c["wall_s"] for c in traced_ok) - statistics.median(c["wall_s"] for c in plain)
        # The self times of a traced command must account for its measured
        # wall time to within the tracing overhead.
        for c in traced_ok:
            if not abs(c["trace_accounted_s"] - c["wall_s"]) <= abs(overhead):
                c["failures"].append(f"tracer: self times add to {c['trace_accounted_s']} s, the command took "
                                     f"{c['wall_s']} s, more apart than the tracing overhead {overhead} s")
        layer_runs = [layers for c, layers in zip(commands, layer_runs) if c["traced"] and not c["failures"]]
        if layer_runs:
            metrics = median_metrics(layer_runs)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    failed = sum(1 for c in commands if c["failures"])
    for c in commands:
        if c["failures"]:
            print(f"command {c['k']} failed: {'; '.join(c['failures'])}", file=sys.stderr)
    if not trace and plain:
        wall = seed_balanced_mean(plain, "wall_s")
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in plain),
            "wall_s": wall,
            "cpu_s": seed_balanced_mean(plain, "cpu_s"),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        }
        if workload == "verify-all":
            # Work units and useful output are checks run and checks passed.
            values["steps_per_s"] = VERIFY_CHECKS / wall
            values["ess_per_s"] = statistics.fmean(c["figures"]["checks_passed"] for c in plain) / wall
        else:
            values["steps_per_s"] = PROPOSALS[workload] / wall
            # Each CLI seed's ESS counts once, so a run that covers the pool reports the pool's mean.
            ess_by_seed = {c["cli_seed"]: c["figures"]["ess"] for c in plain}
            values["ess_per_s"] = statistics.fmean(ess_by_seed.values()) / wall
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace, "environment": environment(),
                      "commands": commands}))
    if not metrics:
        print("error: no command of this run succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(commands), "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cwsoc" / "cli.py").is_file():
        print(f"error: no cwsoc sources under {ROOT / 'src'}; run from the root of a cwsoc checkout",
              file=sys.stderr)
        return 2
    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
