"""Span recording around public cwsoc functions, installed from outside.

``Tracer.install`` replaces module attributes with wrappers that record one
span per call: id, parent id, name, start, end (``time.monotonic``, which is
one clock for every process on the machine), whether the call returned, and
for ``samplers.run`` the chain's n and its proposed/accepted counter deltas.
Spans stay in memory.  Pool workers forked while a span is open inherit the
open span as their parent; each worker appends its spans to
``<spans_dir>/<pid>.jsonl`` when its outermost span closes.  The process that
installed the tracer writes its own spans with ``flush`` at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path


def _chain_counts(args):
    """Reads the ChainState passed to samplers.run before and after the call."""
    chain = args[0]
    proposed, accepted = chain.proposed, chain.accepted
    return lambda: {"n": chain.params.n, "proposed": chain.proposed - proposed,
                    "accepted": chain.accepted - accepted}


class Tracer:
    def __init__(self, spans_dir: Path):
        self.spans_dir = Path(spans_dir)
        self.pid = os.getpid()
        self.stack: list[str] = []
        self.base_depth = 0
        self.spans: list[list] = []
        self.count = 0
        self.origin = self.pid
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = f"{self.pid}.{self.count}"
            parent = self.stack[-1] if self.stack else None
            after = counts(args) if counts else None
            self.stack.append(span_id)
            ok = False
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.spans.append([span_id, parent, name, start, end, ok, after() if after else None])
                if self.pid != self.origin and len(self.stack) == self.base_depth:
                    self.flush()

        return traced

    def install(self) -> None:
        """Wraps every entry point in TARGETS where its callers look it up."""
        for module, path, name in TARGETS:
            *outer, attr = path.split(".")
            owner = functools.reduce(getattr, outer, importlib.import_module(module))
            counts = _chain_counts if name == "samplers.run" else None
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.spans_dir / f"{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


# (module, attribute, span name).  cwsoc.cli imports init_chain, run,
# ks_statistic and run_suites by name, so they are wrapped in cwsoc.cli.
TARGETS = (
    ("cwsoc.cli", "main", "cli"),
    ("cwsoc.cli", "init_chain", "samplers.init_chain"),
    ("cwsoc.cli", "run", "samplers.run"),
    ("cwsoc.samplers", "sum_stats", "model.sum_stats"),
    ("cwsoc.cli", "ks_statistic", "verification.ks_statistic"),
    ("cwsoc.limit_law", "QuarticLaw.cdf", "limit_law.QuarticLaw.cdf"),
    ("cwsoc.cli", "run_suites", "verification.run_suites"),
    ("cwsoc.verification", "suite_complex", "verification.suite_complex"),
    ("cwsoc.verification", "suite_density", "verification.suite_density"),
    ("cwsoc.verification", "suite_laplace", "verification.suite_laplace"),
    ("cwsoc.verification", "invert_char_fn", "verification.invert_char_fn"),
    ("cwsoc.verification", "estimate_C_n", "verification.estimate_C_n"),
    ("cwsoc.verification", "laplace_ratio", "verification.laplace_ratio"),
    ("cwsoc.verification", "log_C_n_by_raw_quadrature", "verification.log_C_n_by_raw_quadrature"),
)
TRACED_NAMES = tuple(name for _module, _path, name in TARGETS)


def load_spans(spans_dir: Path) -> list[list]:
    spans = []
    for path in sorted(Path(spans_dir).glob("*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def self_times(spans: list[list]) -> dict[str, float]:
    """Exclusive wall time per span id.

    At every instant the innermost open spans (those with no open child) share
    the elapsed time equally, so chains running side by side in pool workers
    each get half, and the shares of all spans add up to the root's duration.
    """
    by_id = {span[0]: span for span in spans}
    depth = {}
    for span_id in by_id:
        d, p = 0, by_id[span_id][1]
        while p in by_id:
            d, p = d + 1, by_id[p][1]
        depth[span_id] = d
    events = []
    for span_id, parent, _name, start, end, *_ in spans:
        events.append((start, 0, depth[span_id], span_id))
        events.append((end, 1, -depth[span_id], span_id))
    events.sort()
    share = dict.fromkeys(by_id, 0.0)
    open_children = dict.fromkeys(by_id, 0)
    active: set[str] = set()
    leaves: set[str] = set()
    last = events[0][0] if events else 0.0
    for when, kind, _d, span_id in events:
        if leaves and when > last:
            part = (when - last) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        last = when
        parent = by_id[span_id][1]
        if kind == 0:
            active.add(span_id)
            leaves.add(span_id)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return share
