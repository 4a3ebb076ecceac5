"""Command-line front end: simulation runs, limit-law queries, verification
suites and plot-ready data tables.

Flag values take precedence over an optional key=value config file
(``--config PATH``), which takes precedence over built-in defaults.  The seed
default additionally honors the ``CWSOC_SEED`` environment variable.  Floats
are serialized with their shortest round-trip representation, and chains are
merged in chain-id order, so outputs are byte-reproducible.

``simulate`` runs its chains side by side on up to one thread per usable CPU
of one process (the compiled sweep kernel releases the GIL); Ctrl-C stops it
at once.  Its chains take single-site steps only, so its samples.csv bytes are
those of every earlier release.  ``convergence`` runs one chain per n, one
after another on the calling thread, and ends every sweep with
samplers.TRANSLATE_MOVES translation moves of scale TRANSLATE_SCALE, recorded
in the manifest as the sampler's ``translate_moves`` and ``translate_scale``;
Ctrl-C stops it at once too.  Whether a helper thread on a spare CPU or the
chain's own thread draws each block of a chain's random numbers is the rule
in ``samplers.run``'s docstring; the draws and so every output byte are the
same on one CPU or many.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .limit_law import QuarticLaw
from .model import DomainError, ModelParams
from .samplers import ChainRecords, SamplerConfig, chain_rng, init_chain, run, usable_cpus
from .verification import SUITE_NAMES, TOLERANCES, ks_statistic, run_suites

SAMPLES_HEADER = "chain,sweep,s,t,s_scaled,t_scaled"
CONVERGENCE_HEADER = "n,ks,mean_t_scaled,sd_t_scaled,samples"
HISTOGRAM_HEADER = "bin_left,bin_right,density_empirical,density_limit"

# convergence's translation scale c, in d = c * sigma * n^(-1/4): with
# TRANSLATE_MOVES moves per sweep it takes the integrated autocorrelation time
# of s from 16-66 sweeps to about 1.1 at n = 16..256.
TRANSLATE_SCALE = 1.5


class UsageError(ValueError):
    """Bad flag combination or malformed config input; exits with code 2."""


def _fmt(x: float) -> str:
    return repr(float(x))


# Every key some command reads from a config file.
CONFIG_KEYS = frozenset({"n", "chains", "sigma", "sweeps", "burn_in", "thin", "seed", "proposal_scale"})


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        name = key.replace("-", "_")
        if name not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}; known: {', '.join(sorted(CONFIG_KEYS))}")
        out[name] = value.strip()
    return out


def _resolve(args: argparse.Namespace, config: dict, name: str, default, cast):
    """Setting `name` from its flag, else its config key, else (the seed only)
    the CWSOC_SEED environment variable, else `default`."""
    given = getattr(args, name)
    if given is not None:
        return given
    if name in config:
        source, text = f"config value {name}", config[name]
    elif name == "seed" and "CWSOC_SEED" in os.environ:
        source, text = "CWSOC_SEED", os.environ["CWSOC_SEED"]
    else:
        return default
    try:
        return cast(text)
    except ValueError as exc:
        raise UsageError(f"{source}={text!r} is not a valid {cast.__name__}") from exc


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _sampler_settings(
    args: argparse.Namespace, config: dict, sweeps_default: int, burn_in_default: int, translate_scale: float
) -> tuple[float, int, SamplerConfig]:
    """Sigma, sweeps per chain and chain settings of a sampling command."""
    sigma = _resolve(args, config, "sigma", 1.0, float)
    sweeps = _resolve(args, config, "sweeps", sweeps_default, int)
    cfg = SamplerConfig(
        proposal_scale=_resolve(args, config, "proposal_scale", SamplerConfig.proposal_scale, float),
        burn_in_sweeps=_resolve(args, config, "burn_in", burn_in_default, int),
        thin_sweeps=_resolve(args, config, "thin", SamplerConfig.thin_sweeps, int),
        seed=_resolve(args, config, "seed", SamplerConfig.seed, int),
        translate_scale=translate_scale,
    )
    return sigma, sweeps, cfg


def _write_manifest(
    out_dir: Path, command: str, params: dict, sweeps: int, cfg: SamplerConfig, output: str,
    chains: int | None = None,
) -> None:
    """manifest.json of a sampling command; `command` holds its name and own flags."""
    sampler = {**asdict(cfg), "sweeps": sweeps}
    if cfg.translate_moves:
        sampler["translate_moves"] = cfg.translate_moves
    chains_flag = ""
    if chains is not None:
        sampler["chains"] = chains
        chains_flag = f" --chains {chains}"
    manifest = {
        "command": (
            f"{command} --sigma {_fmt(params['sigma'])} --sweeps {sweeps} --burn-in {cfg.burn_in_sweeps} "
            f"--thin {cfg.thin_sweeps}{chains_flag} --seed {cfg.seed} --proposal-scale {_fmt(cfg.proposal_scale)}"
        ),
        "params": params,
        "sampler": sampler,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "code_version": __version__,
        "output_paths": [output],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _run_chains(params: ModelParams, cfg: SamplerConfig, chains: int, sweeps: int) -> list[ChainRecords]:
    """Records of chains 0..chains-1 in chain-id order, run on up to one thread
    per CPU the process may use (the kernel releases the GIL).  The threads
    are daemons, so Ctrl-C ends the process without waiting for the chains."""
    results: list = [None] * chains
    errors: list[BaseException] = []
    chain_ids = iter(range(chains))

    def work() -> None:
        try:
            for chain_id in chain_ids:
                results[chain_id] = run(init_chain(params, cfg, chain_id), sweeps)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, daemon=True) for _ in range(min(chains, usable_cpus()))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    n = _resolve(args, config, "n", 64, int)
    chains = _resolve(args, config, "chains", 1, int)
    if chains < 1:
        raise UsageError(f"--chains must be positive, got {chains}")
    sigma, sweeps, cfg = _sampler_settings(
        args, config, sweeps_default=1000, burn_in_default=0, translate_scale=0.0
    )
    params = ModelParams(n=n, sigma=sigma)
    results = _run_chains(params, cfg, chains, sweeps)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples_path = out_dir / "samples.csv"
    with open(samples_path, "w", newline="") as fh:
        fh.write(SAMPLES_HEADER + "\n")
        for chain_id, records in enumerate(results):
            # Python ints and floats, whose repr is _fmt's
            columns = (records.sweep, records.s, records.t, records.s_scaled, records.t_scaled)
            for row in zip(*(column.tolist() for column in columns)):
                fh.write(f"{chain_id},{','.join(map(repr, row))}\n")
    _write_manifest(out_dir, f"simulate --n {n}", asdict(params), sweeps, cfg, samples_path.name, chains)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    sigma = _resolve(args, config, "sigma", 1.0, float)
    law = QuarticLaw(sigma)
    for flag in ("density", "cdf"):
        # +-inf are valid points (density 0, CDF 0 or 1); NaN is none
        point = getattr(args, flag)
        if point is not None and math.isnan(point):
            raise UsageError(f"--{flag} must be a number, got nan")
    lines: list[str]
    if args.density is not None:
        lines = [format(law.density(args.density), ".17g")]
    elif args.cdf is not None:
        lines = [format(law.cdf(args.cdf), ".17g")]
    elif args.quantile is not None:
        lines = [format(law.quantile(args.quantile), ".17g")]
    else:
        count = args.sample
        if count < 0:
            raise UsageError(f"--sample must be nonnegative, got {count}")
        seed = _resolve(args, config, "seed", 0, int)
        draws = law.sample(chain_rng(seed, 0), size=count)
        lines = [format(v, ".17g") for v in draws]
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def _parse_tol_overrides(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise UsageError(f"--tol expects NAME=VALUE, got {pair!r}")
        key = key.strip()
        if key in out:
            raise UsageError(f"--tol name {key!r} given more than once")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise UsageError(f"--tol value in {pair!r} is not a float") from exc
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suites([args.suite], n_list=args.n_list, tol_overrides=_parse_tol_overrides(args.tol))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(
        json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    )
    all_pass = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{status} {r.name}: value={r.value:.6g} expected={r.expected:.6g} tol={r.tolerance:.3g}")
    print(f"report written to {report_path} ({sum(r.passed for r in reports)}/{len(reports)} checks pass)")
    return 0 if all_pass else 1


def _convergence_row(
    params: ModelParams, cfg: SamplerConfig, chain_id: int, sweeps: int, law: QuarticLaw
) -> tuple[int, float, float, float, int]:
    """One convergence.csv row: n, KS of s_scaled against the limit law, mean and sd of t_scaled."""
    records = run(init_chain(params, cfg, chain_id=chain_id), sweeps)
    sigma_sq = params.sigma * params.sigma  # t/n is taken in these units, so its squared deviations cannot overflow
    s_scaled = np.sort(records.s_scaled)
    t_unit = records.t_scaled / sigma_sq
    ks = ks_statistic(s_scaled, law.cdf) if records else math.nan
    mean_t = float(t_unit.mean()) * sigma_sq if records else math.nan
    sd_t = float(t_unit.std(ddof=1)) * sigma_sq if len(records) > 1 else math.nan
    return params.n, ks, mean_t, sd_t, len(records)


def cmd_convergence(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    sigma, sweeps, cfg = _sampler_settings(
        args, config, sweeps_default=5000, burn_in_default=500, translate_scale=TRANSLATE_SCALE
    )
    law = QuarticLaw(sigma)

    # serial, in --n-list order: row k comes from the k-th chain `run` returns;
    # _convergence_row drops a chain's records before the next chain runs, so
    # one chain's records are alive at a time
    rows = [
        _convergence_row(ModelParams(n=n, sigma=sigma), cfg, idx, sweeps, law)
        for idx, n in enumerate(args.n_list)
    ]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "convergence.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(CONVERGENCE_HEADER + "\n")
        for n, ks, mean_t, sd_t, count in rows:
            fh.write(f"{n},{_fmt(ks)},{_fmt(mean_t)},{_fmt(sd_t)},{count}\n")
    command = f"convergence --n-list {','.join(str(n) for n in args.n_list)}"
    _write_manifest(out_dir, command, {"n_list": args.n_list, "sigma": sigma}, sweeps, cfg, csv_path.name)
    return 0


def _read_samples_column(path: Path, column: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        names = header.split(",")
        if column not in names:
            raise UsageError(f"{path}: column {column!r} not found in header {header!r}")
        idx = names.index(column)
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if line:
                try:
                    value = float(line.split(",")[idx])
                except (IndexError, ValueError) as exc:
                    raise UsageError(f"{path}:{lineno}: no {column} value in row {line!r}") from exc
                if not math.isfinite(value):
                    raise UsageError(f"{path}:{lineno}: non-finite {column} value in row {line!r}")
                values.append(value)
    return np.asarray(values)


def cmd_plotdata(args: argparse.Namespace) -> int:
    values = _read_samples_column(Path(args.input), "s_scaled")
    if values.size == 0:
        raise UsageError(f"{args.input}: no data rows to histogram")
    bins = args.bins
    if bins < 1:
        raise UsageError(f"--bins must be positive, got {bins}")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    widths = np.diff(edges)
    density_emp = counts / (values.size * widths)
    law = QuarticLaw(args.sigma) if args.overlay_limit else None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "histogram.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(HISTOGRAM_HEADER + "\n")
        for left, right, emp in zip(edges[:-1], edges[1:], density_emp):
            limit = _fmt(law.density(0.5 * (left + right))) if law is not None else ""
            fh.write(f"{_fmt(left)},{_fmt(right)},{_fmt(emp)},{limit}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cwsoc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cwsoc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # the flags of both sampling commands
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--sigma", type=float, default=None, help="base-measure standard deviation")
    sampling.add_argument("--sweeps", type=int, default=None, help="sweeps per chain (one sweep = n steps)")
    sampling.add_argument("--burn-in", dest="burn_in", type=int, default=None,
                          help="sweeps discarded before recording")
    sampling.add_argument("--thin", type=int, default=None, help="record every THIN-th sweep")
    sampling.add_argument("--seed", type=int, default=None, help="base seed (default: CWSOC_SEED or 0)")
    sampling.add_argument("--proposal-scale", dest="proposal_scale", type=float, default=None)
    sampling.add_argument("--out", required=True, help="output directory")
    sampling.add_argument("--config", default=None, help="key=value config file")

    sim = sub.add_parser("simulate", parents=[sampling], help="run Metropolis chains and write samples.csv")
    sim.add_argument("--n", type=int, default=None, help="number of spins")
    sim.add_argument("--chains", type=int, default=None,
                     help="chains with disjoint streams, run side by side on threads of this process")
    sim.set_defaults(func=cmd_simulate)

    lim = sub.add_parser("limit", help="query the quartic limit law")
    what = lim.add_mutually_exclusive_group(required=True)
    what.add_argument("--density", type=float, default=None, metavar="X")
    what.add_argument("--cdf", type=float, default=None, metavar="X")
    what.add_argument("--quantile", type=float, default=None, metavar="P")
    what.add_argument("--sample", type=int, default=None, metavar="N")
    lim.add_argument("--sigma", type=float, default=None)
    lim.add_argument("--seed", type=int, default=None)
    lim.add_argument("--config", default=None)
    lim.set_defaults(func=cmd_limit)

    ver = sub.add_parser("verify", help="run verification suites and write report.json")
    ver.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
    ver.add_argument("--n-list", dest="n_list", type=_int_list, default=None)
    ver.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                     help="tolerance override, once per name; names and defaults: "
                     + ", ".join(f"{name}={value:g}" for name, value in TOLERANCES.items()))
    ver.add_argument("--out", default=".", help="directory for report.json")
    ver.set_defaults(func=cmd_verify)

    conv = sub.add_parser("convergence", parents=[sampling], help="KS distance to the limit law across n")
    conv.add_argument("--n-list", dest="n_list", type=_int_list, required=True)
    conv.set_defaults(func=cmd_convergence)

    plot = sub.add_parser("plotdata", help="histogram table from a samples.csv")
    plot.add_argument("--input", required=True, help="samples.csv path")
    plot.add_argument("--bins", type=int, default=50)
    plot.add_argument("--overlay-limit", dest="overlay_limit", action="store_true",
                      help="fill the density_limit column from the limit law")
    plot.add_argument("--sigma", type=float, default=1.0)
    plot.add_argument("--out", default=".")
    plot.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        # bad flag values and out-of-domain inputs are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
