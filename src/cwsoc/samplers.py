"""Markov chain and direct samplers for the tilted spin model.

Two independent routes at the statistics level:

* single-site random-walk Metropolis on the full configuration, with O(1)
  incremental updates of (s, t), targeting the tilted measure exactly.  The
  kernel is compiled C (``_kernel.c``, built and cached by ``_native`` on
  first use).  ``run`` allocates its draw buffers, per-sweep (s, t) outputs
  and accepted counts once per call, and runs the sweeps in blocks of about
  DRAW_AHEAD_PROPOSALS proposals, each drawn in full (``cw_draw``) and then
  walked (``cw_walk``).  Who draws each block, a helper thread on a spare
  CPU or the chain's own thread, is the one rule stated in ``run``'s
  docstring;
* exact iid draws of (s, t) from the untilted product law, reweighted by
  exp(s^2/(2t)) in a self-normalized importance-sampling estimator.

RNG streams: every chain owns a ``numpy`` Philox generator seeded with
``SeedSequence(entropy=seed, spawn_key=(chain_id,))``.  That derivation rule
is part of the reproducibility contract: same (seed, chain_id) means the same
stream, and distinct chain ids give statistically independent streams.
Per sweep the draws come in three blocks, n sites, n proposal normals and n
acceptance uniforms, which the kernel takes from the chain's bit generator:
sites and uniforms through numpy's own C samplers, and normals by the
one-word fast path of numpy's ziggurat, with every other word handed back to
numpy's ``random_standard_normal``.  The stream is the one
``integers(0, n, size=n)``, ``standard_normal(n)`` and ``random(n)`` give.
Each sweep then ends with ``SamplerConfig.translate_moves`` translation
moves, whose draws follow the three blocks: one normal and then one uniform
per move, as ``standard_normal(1)`` and ``random(1)`` give them, in the order
z1, u1, z2, u2, ....  With ``translate_scale`` 0 there are no moves and
nothing more is drawn, so the stream is unchanged.
The stream, every output and the generator's state after ``run`` are the
same whoever draws.

``run`` returns its records as ``ChainRecords``: five read-only numpy
columns, filled block by block from the kernel's per-sweep outputs, so no
Python object is made per recorded sweep.  Iterating it yields the rows as
``SampleRecord``s, a view of the columns made a chunk at a time, with the
values the columns hold.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ._native import kernel
from .model import DomainError, ModelParams, integer_at_least, is_integer, nonnegative_real, positive_real, sum_stats

__all__ = [
    "SamplerConfig",
    "ChainState",
    "SampleRecord",
    "ChainRecords",
    "ImportanceResult",
    "chain_rng",
    "init_chain",
    "run",
    "usable_cpus",
    "sample_nu_star",
    "importance_estimate",
    "batch_means_stderr",
]

# Cached (s, t) are recomputed from the configuration this often, which keeps
# incremental rounding drift far below test tolerances.
RESYNC_EVERY_SWEEPS = 10_000
# proposals per block of sweeps: run draws a block in full, then walks it
DRAW_AHEAD_PROPOSALS = 2**15
# ChainRecords' iterator makes this many SampleRecords at a time
ROW_CHUNK = 4096

MIN_IMPORTANCE_DRAWS = 100
MIN_RELIABLE_ESS = 50.0
# importance_estimate draws and evaluates this many proposals at a time
IMPORTANCE_BLOCK = 4096
# translation moves that end each sweep when translate_scale is positive: one
# leaves the integrated autocorrelation time of s near 4 sweeps at n = 16..256,
# eight take it to about 1.1
TRANSLATE_MOVES = 8


@dataclass(frozen=True)
class SamplerConfig:
    """Metropolis chain settings.  One sweep is n single-site steps, followed
    by translate_moves translation moves.

    The default proposal scale is the classic 2.38 random-walk heuristic (in
    units of sigma); there is no adaptive tuning.  The translation move
    x -> x + delta*(1, ..., 1) draws delta ~ N(0, d^2) with
    d = translate_scale * sigma * n^(-1/4); it leaves t - s^2/n unchanged and
    moves s by n*delta, the slow direction of single-site steps.  Each move
    draws its own delta.  Burn-in defaults are empirical, not theory-backed.
    Numpy scalars are accepted, bool is not; the fields are stored as Python
    floats and Python ints.
    """

    proposal_scale: float = 2.38
    burn_in_sweeps: int = 1000
    thin_sweeps: int = 1
    seed: int = 0
    translate_scale: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "proposal_scale", positive_real(self.proposal_scale, "proposal_scale"))
        object.__setattr__(self, "translate_scale", nonnegative_real(self.translate_scale, "translate_scale"))
        object.__setattr__(self, "burn_in_sweeps", integer_at_least(self.burn_in_sweeps, "burn_in_sweeps", 0))
        object.__setattr__(self, "thin_sweeps", integer_at_least(self.thin_sweeps, "thin_sweeps", 1))
        object.__setattr__(self, "seed", _checked_key(self.seed, "seed"))

    @property
    def translate_moves(self) -> int:
        """The translation moves that end each sweep: TRANSLATE_MOVES when
        translate_scale is positive, else 0."""
        return TRANSLATE_MOVES if self.translate_scale > 0.0 else 0


class SampleRecord(NamedTuple):
    """One thinned observation of the chain statistics."""

    sweep: int
    s: float
    t: float
    s_scaled: float  # s / n^{3/4}
    t_scaled: float  # t / n


@dataclass(frozen=True, eq=False)
class ChainRecords:
    """The thinned observations of one ``run`` call as read-only columns: sweep
    (int64) and s, t, s_scaled = s / n^{3/4}, t_scaled = t / n (float64).

    len() counts the records.  Iterating yields them as SampleRecords, made
    ROW_CHUNK at a time from the columns, so a pass over the rows never
    holds one Python object per record."""

    sweep: np.ndarray
    s: np.ndarray
    t: np.ndarray
    s_scaled: np.ndarray
    t_scaled: np.ndarray

    def __len__(self) -> int:
        return len(self.sweep)

    def __iter__(self) -> Iterator[SampleRecord]:
        columns = (self.sweep, self.s, self.t, self.s_scaled, self.t_scaled)
        for start in range(0, len(self), ROW_CHUNK):
            yield from map(SampleRecord, *(column[start : start + ROW_CHUNK].tolist() for column in columns))


@dataclass
class ChainState:
    """One Metropolis chain: configuration, cached statistics and RNG stream.

    accepted and proposed count single-site steps; translations_accepted
    counts accepted translation moves."""

    x: np.ndarray
    s: float
    t: float
    params: ModelParams
    cfg: SamplerConfig
    rng: np.random.Generator
    chain_id: int = 0
    accepted: int = 0
    proposed: int = 0
    translations_accepted: int = 0
    sweeps_done: int = 0

    def resync_stats(self) -> None:
        """Recompute (s, t) from the configuration to shed incremental drift."""
        self.s, self.t = sum_stats(self.x)


def _checked_key(value, name: str) -> int:
    """A seed or chain id as a Python int if it is an integer (bool excepted)
    that fits in 64 unsigned bits; DomainError naming it otherwise."""
    if not (is_integer(value) and 0 <= value < 2**64):
        raise DomainError(f"{name} must be an integer that fits in 64 unsigned bits, got {value!r}")
    return int(value)


def chain_rng(seed: int, chain_id: int = 0) -> np.random.Generator:
    """The documented stream-derivation rule: Philox keyed by (seed, chain_id),
    each an integer that fits in 64 unsigned bits."""
    seed_seq = np.random.SeedSequence(_checked_key(seed, "seed"), spawn_key=(_checked_key(chain_id, "chain_id"),))
    return np.random.Generator(np.random.Philox(seed_seq))


def init_chain(params: ModelParams, cfg: SamplerConfig, chain_id: int = 0) -> ChainState:
    """Fresh chain with n iid N(0, sigma^2) spins, deterministic given (seed, chain_id).

    The initial configuration is drawn as sigma * N(0, 1) so that chains with
    the same seed and different sigma are exact scalings of one another.
    """
    rng = chain_rng(cfg.seed, chain_id)
    x = params.sigma * rng.standard_normal(params.n)
    with np.errstate(over="ignore"):  # an overflowing t is rejected below
        s, t = sum_stats(x)
    if not 0.0 < t < math.inf:  # the energy is undefined there
        raise DomainError(f"the initial configuration at sigma={params.sigma!r} has t = {t!r}, not in (0, inf)")
    return ChainState(x=x, s=s, t=t, params=params, cfg=cfg, rng=rng, chain_id=int(chain_id))


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _SamplerThreads:
    """The process's busy sampler threads: chain threads inside run and
    helpers that are drawing."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._busy = 0

    def enter(self, spare_only: bool = False) -> bool:
        """Counts one more busy thread and returns True; with spare_only, only
        when fewer than usable_cpus() are busy."""
        with self._lock:
            if spare_only and self._busy >= usable_cpus():
                return False
            self._busy += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self._busy -= 1


_SAMPLER_THREADS = _SamplerThreads()


# The process's C library's sched_getcpu, the calling thread's CPU or -1 (an
# int, ctypes' default result), where threads can be pinned; None elsewhere or
# when the C library has no such function.
_sched_getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None) if hasattr(os, "sched_setaffinity") else None


def _pieces(sweeps_done: int, sweeps: int, most: int) -> Iterator[int]:
    """Lengths of the consecutive pieces of `sweeps` sweeps from a chain's
    sweep count sweeps_done: each at most `most` long, and none runs past a
    multiple of RESYNC_EVERY_SWEEPS."""
    while sweeps > 0:
        piece = min(sweeps, most, RESYNC_EVERY_SWEEPS - sweeps_done % RESYNC_EVERY_SWEEPS)
        yield piece
        sweeps_done += piece
        sweeps -= piece


def run(chain: ChainState, sweeps: int) -> ChainRecords:
    """Advance the chain by `sweeps` sweeps, recording thinned post-burn-in stats.

    Each sweep is n single-site steps whose draws come per sweep in three
    blocks: n sites, n proposal normals, n acceptance uniforms.  The sweep
    ends with cfg.translate_moves translations of every spin by delta = d*z,
    d = translate_scale * sigma * n^(-1/4), each drawing one normal z and then
    one uniform after the three blocks and accepted by the single-site rule.
    chain.accepted and chain.proposed count the single-site steps only, and
    chain.translations_accepted the accepted translations; all three are
    updated when the call returns.  Cached (s, t) are recomputed from the
    configuration whenever the chain's sweep count reaches a multiple of
    RESYNC_EVERY_SWEEPS.

    The sweeps run in blocks of at most DRAW_AHEAD_PROPOSALS // n sweeps, none
    running past a resync, each drawn in full and then walked.  Who draws:
    this thread draws the first block.  Once block k is drawn, and before it
    is walked, this thread claims a spare CPU for block k + 1, which succeeds
    when fewer sampler threads of the process are busy than usable_cpus() (a
    thread inside run counts, and so does each claim).  With the claim, a
    helper thread draws block k + 1 into a second set of buffers while this
    thread walks block k, and the claim is given back once this thread has
    waited for that draw; without it, this thread draws block k + 1 itself
    after walking block k.  No block is drawn before the one ahead of it, and
    every draw holds the bit generator's lock, so the draws are the same
    numbers in the same order either way; the call returns only after the
    helper has ended, and records, configuration, counters and the
    generator's state are the same whoever draws.

    Sweep i (1-based, counted from the start of this call) is recorded when
    i > burn_in_sweeps and (i - burn_in_sweeps) is a multiple of thin_sweeps,
    so there are max(0, (sweeps - burn_in_sweeps) // thin_sweeps) records.
    They are returned as ChainRecords, whose columns sweep, s, t,
    s_scaled = s/n^{3/4} and t_scaled = t/n are sized once and filled block
    by block; its rows, SampleRecords made from the columns as they are
    iterated, hold the same values.  Records are bit-reproducible given
    (params, cfg, chain_id).
    """
    sweeps = integer_at_least(sweeps, "sweeps", 0)
    n = chain.params.n
    x = chain.x
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.float64
        and x.shape == (n,)
        and x.flags.c_contiguous
        and x.flags.writeable
    ):
        raise DomainError("chain.x must be a writeable contiguous float64 array of n spins")
    sigma = chain.params.sigma
    scale, inv_two_sigma_sq = chain.cfg.proposal_scale * sigma, 1.0 / (2.0 * sigma**2)
    translate = chain.cfg.translate_scale * sigma * n**-0.25
    burn, thin = chain.cfg.burn_in_sweeps, chain.cfg.thin_sweeps
    sweep_col = np.arange(burn + thin, sweeps + 1, thin, dtype=np.int64)
    s_col = np.empty(len(sweep_col))
    t_col = np.empty_like(s_col)

    def records() -> ChainRecords:
        columns = (sweep_col, s_col, t_col, s_col / float(n) ** 0.75, t_col / n)
        for column in columns:
            column.flags.writeable = False
        return ChainRecords(*columns)

    if sweeps == 0:
        return records()
    lib = kernel()
    bit_generator = chain.rng.bit_generator
    bitgen = bit_generator.ctypes.bit_generator.value
    moves = chain.cfg.translate_moves
    sizes = list(_pieces(chain.sweeps_done, sweeps, max(1, DRAW_AHEAD_PROPOSALS // n)))
    most = max(sizes)
    counts = np.zeros(2, dtype=np.int64)
    s_out = np.empty(most)
    t_out = np.empty_like(s_out)
    spins = x.ctypes.data
    outputs = (s_out.ctypes.data, t_out.ctypes.data, counts.ctypes.data)

    def new_buffers() -> tuple[list[np.ndarray], list[int]]:
        """Room for a block's sites, normals, uniforms and translation draws,
        and its addresses."""
        arrays = [np.empty(most * n, dtype=np.uint64), np.empty(most * n), np.empty(most * n), np.empty(2 * most * moves)]
        return arrays, [array.ctypes.data for array in arrays]

    def draw(buffers: list[int], piece: int) -> None:
        with bit_generator.lock:
            lib.cw_draw(bitgen, n, piece, moves, *buffers)

    pair = [new_buffers()]  # [walked next, drawn ahead]
    helper: ThreadPoolExecutor | None = None
    ahead: Future | None = None  # the helper's draw of the next block, while its claim is held
    _SAMPLER_THREADS.enter()
    try:
        done = 0
        for k, piece in enumerate(sizes):
            if ahead is None:
                draw(pair[0][1], piece)
            else:
                ahead.result()
                ahead = None
                _SAMPLER_THREADS.leave()
                pair.reverse()
            if k + 1 < len(sizes) and _SAMPLER_THREADS.enter(spare_only=True):
                if helper is None:
                    # Left free, the scheduler at times stacks the helper on the
                    # chain thread's CPU, where the two run slower than one thread
                    # drawing and walking, while another CPU idles: the helper
                    # runs on the others.
                    here = _sched_getcpu() if _sched_getcpu else -1
                    others = os.sched_getaffinity(0) - {here} if here >= 0 else set()
                    helper = ThreadPoolExecutor(
                        1, initializer=os.sched_setaffinity if others else None, initargs=(0, others)
                    )
                    pair.append(new_buffers())
                ahead = helper.submit(draw, pair[1][1], sizes[k + 1])
            lib.cw_walk(
                spins, n, chain.s, chain.t, piece, scale, inv_two_sigma_sq, translate, moves,
                *pair[0][1], *outputs,
            )
            chain.s, chain.t = float(s_out[piece - 1]), float(t_out[piece - 1])
            chain.sweeps_done += piece
            if chain.sweeps_done % RESYNC_EVERY_SWEEPS == 0:
                chain.resync_stats()
                s_out[piece - 1], t_out[piece - 1] = chain.s, chain.t
            lo, hi = np.searchsorted(sweep_col, (done, done + piece), side="right")
            picked = sweep_col[lo:hi] - (done + 1)
            s_col[lo:hi], t_col[lo:hi] = s_out[picked], t_out[picked]
            done += piece
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)  # waits for a draw under way: it holds the bit generator
        if ahead is not None:
            _SAMPLER_THREADS.leave()
        _SAMPLER_THREADS.leave()
    chain.accepted += int(counts[0])
    chain.proposed += sweeps * n
    chain.translations_accepted += int(counts[1])
    return records()


def sample_nu_star(params: ModelParams, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """size exact draws of (s, t) from the untilted law, s = sum Z_i and
    t = sum Z_i^2 over n iid N(0, sigma^2) spins; returns the arrays (s, t).

    Draw k takes the normals k*n .. (k+1)*n - 1 of the stream."""
    z = params.sigma * rng.standard_normal((size, params.n))
    return z.sum(axis=1), (z * z).sum(axis=1)


class ImportanceResult(NamedTuple):
    estimate: float
    std_error: float
    ess: float
    draws: int
    reliable: bool


def importance_estimate(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: ModelParams,
    draws: int,
    rng: np.random.Generator,
) -> ImportanceResult:
    """Self-normalized importance estimate of E[f(s, t)] under the tilted model.

    ``f`` is called once per block of up to IMPORTANCE_BLOCK draws, on the
    float arrays s and t of the block, and must return f at every draw in an
    array of the same shape.

    Proposals are exact untilted draws; log weights are s^2/(2t), normalized
    through a log-sum-exp so that weights up to e^{n/2} never overflow.  The
    standard error is the usual delta-method expression and the effective
    sample size is (sum w)^2 / sum w^2.  Weight variance grows quickly with
    the number of spins; n <= 200 is the practical range.  Results with ESS
    below 50 are returned flagged unreliable (with a warning), never silently.
    """
    draws = integer_at_least(draws, "draws", MIN_IMPORTANCE_DRAWS)
    log_w = np.empty(draws)
    f_vals = np.empty(draws)
    done = 0
    while done < draws:
        m = min(IMPORTANCE_BLOCK, draws - done)
        s_arr, t_arr = sample_nu_star(params, rng, m)
        log_w[done : done + m] = s_arr**2 / (2.0 * t_arr)
        values = np.asarray(f(s_arr, t_arr), dtype=float)
        if values.shape != s_arr.shape:
            raise DomainError(f"f returned shape {values.shape} for {s_arr.shape} draws")
        f_vals[done : done + m] = values
        done += m
    shifted = np.exp(log_w - log_w.max())
    w_norm = shifted / shifted.sum()
    estimate = float(np.dot(w_norm, f_vals))
    std_error = float(np.sqrt(np.sum(w_norm**2 * (f_vals - estimate) ** 2)))
    ess = float(1.0 / np.sum(w_norm**2))
    reliable = ess >= MIN_RELIABLE_ESS
    if not reliable:
        warnings.warn(
            f"importance estimate unreliable: ESS {ess:.1f} < {MIN_RELIABLE_ESS:.0f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ImportanceResult(estimate, std_error, ess, draws, reliable)


def batch_means_stderr(values: Sequence[float], n_batches: int = 32) -> float:
    """Batch-means standard error of the mean of a correlated sequence."""
    n_batches = integer_at_least(n_batches, "n_batches", 2)
    v = np.asarray(values, dtype=float)
    if v.size < 2 * n_batches:
        raise DomainError(f"need at least {2 * n_batches} values for {n_batches} batches")
    usable = (v.size // n_batches) * n_batches
    batches = v[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))
