"""One cwsoc command in a fresh interpreter, as a user would pay for it.

    python3 perfbench/child.py RESULT_JSON [--trace SPANS_DIR] [--capture NPZ] -- CLI_ARGS...

Set-up ends once ``cwsoc.cli`` is imported from ``src/`` and its parser is
built; the monotonic time of that moment goes into RESULT_JSON, and the
caller subtracts the time it started this process.  The command then runs
through ``cwsoc.cli.main``; wall time, CPU time of this process and its
reaped children (pool workers, BLAS threads) and peak RSS are written too.

``--capture`` keeps the s_scaled and t_scaled arrays of every chain that the
CLI's ``run`` returns (convergence writes no per-sweep records), at the cost
of one array conversion per chain inside the timed command.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cwsoc.cli  # noqa: E402

cwsoc.cli.build_parser()
READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    result_path = Path(own[0])

    import numpy as np

    tracer = None
    if "--trace" in own:
        from tracer import Tracer

        tracer = Tracer(Path(own[own.index("--trace") + 1]))
        tracer.install()

    captured = []
    if "--capture" in own:
        inner_run = cwsoc.cli.run

        def capturing_run(chain, sweeps):
            records = inner_run(chain, sweeps)
            captured.append(np.array([(r.s_scaled, r.t_scaled) for r in records], dtype=float))
            return records

        cwsoc.cli.run = capturing_run

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    code = cwsoc.cli.main(cli_args)
    end = time.monotonic()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    if tracer is not None:
        tracer.flush()
    if captured:
        capture_path = own[own.index("--capture") + 1]
        np.savez(capture_path, *captured)
    result = dict(
        ready=READY,
        cwsoc_file=cwsoc.cli.__file__,
        exit_code=code,
        wall_s=end - start,
        cpu_s=_cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    )
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
