"""Markov chain and direct samplers for the tilted spin model.

Two independent routes at the statistics level:

* single-site random-walk Metropolis on the full configuration, with O(1)
  incremental updates of (s, t), targeting the tilted measure exactly.  The
  kernel is compiled C (``_kernel.c``, built and cached by ``_native`` on
  first use): ``run`` hands it each stretch of sweeps up to the next resync
  in one call, draws included;
* exact iid draws of (s, t) from the untilted product law, reweighted by
  exp(s^2/(2t)) in a self-normalized importance-sampling estimator.

RNG streams: every chain owns a ``numpy`` Philox generator seeded with
``SeedSequence(entropy=seed, spawn_key=(chain_id,))``.  That derivation rule
is part of the reproducibility contract: same (seed, chain_id) means the same
stream, and distinct chain ids give statistically independent streams.
Per sweep the draws come in three blocks, n sites, n proposal normals and n
acceptance uniforms, which the kernel takes from the chain's bit generator
through numpy's own C samplers: the stream is the one
``integers(0, n, size=n)``, ``standard_normal(n)`` and ``random(n)`` give.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import DomainError, ModelParams, SumStats, is_integer, positive_real, sum_stats

__all__ = [
    "SamplerConfig",
    "ChainState",
    "SampleRecord",
    "ImportanceResult",
    "chain_rng",
    "init_chain",
    "run",
    "acceptance_rate",
    "sample_nu_star",
    "importance_estimate",
    "batch_means_stderr",
]

# Cached (s, t) are recomputed from the configuration this often, which keeps
# incremental rounding drift far below test tolerances.
RESYNC_EVERY_SWEEPS = 10_000

MIN_IMPORTANCE_DRAWS = 100
MIN_RELIABLE_ESS = 50.0
# importance_estimate draws and evaluates this many proposals at a time
IMPORTANCE_BLOCK = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Metropolis chain settings.  One sweep is n single-site steps.

    The default proposal scale is the classic 2.38 random-walk heuristic (in
    units of sigma); there is no adaptive tuning.  Burn-in defaults are
    empirical, not theory-backed.  Numpy scalars are accepted, bool is not;
    the fields are stored as a Python float and Python ints.
    """

    proposal_scale: float = 2.38
    burn_in_sweeps: int = 1000
    thin_sweeps: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "proposal_scale", positive_real(self.proposal_scale, "proposal_scale"))
        if not (is_integer(self.burn_in_sweeps) and self.burn_in_sweeps >= 0):
            raise DomainError(f"burn_in_sweeps must be a nonnegative integer, got {self.burn_in_sweeps!r}")
        if not (is_integer(self.thin_sweeps) and self.thin_sweeps >= 1):
            raise DomainError(f"thin_sweeps must be a positive integer, got {self.thin_sweeps!r}")
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        for name in ("burn_in_sweeps", "thin_sweeps"):
            object.__setattr__(self, name, int(getattr(self, name)))


class SampleRecord(NamedTuple):
    """One thinned observation of the chain statistics."""

    sweep: int
    s: float
    t: float
    s_scaled: float  # s / n^{3/4}
    t_scaled: float  # t / n


@dataclass
class ChainState:
    """One Metropolis chain: configuration, cached statistics and RNG stream."""

    x: np.ndarray
    s: float
    t: float
    params: ModelParams
    cfg: SamplerConfig
    rng: np.random.Generator
    chain_id: int = 0
    accepted: int = 0
    proposed: int = 0
    sweeps_done: int = 0

    def resync_stats(self) -> None:
        """Recompute (s, t) from the configuration to shed incremental drift."""
        self.s, self.t = sum_stats(self.x)


def _checked_seed(seed) -> int:
    """seed as a Python int if it is an integer (bool excepted) that fits in 64
    unsigned bits; DomainError otherwise."""
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be an integer that fits in 64 unsigned bits, got {seed!r}")
    return int(seed)


def chain_rng(seed: int, chain_id: int = 0) -> np.random.Generator:
    """The documented stream-derivation rule: Philox keyed by (seed, chain_id)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_checked_seed(seed), spawn_key=(int(chain_id),)))
    )


def init_chain(params: ModelParams, cfg: SamplerConfig, chain_id: int = 0) -> ChainState:
    """Fresh chain with n iid N(0, sigma^2) spins, deterministic given (seed, chain_id).

    The initial configuration is drawn as sigma * N(0, 1) so that chains with
    the same seed and different sigma are exact scalings of one another.
    """
    rng = chain_rng(cfg.seed, chain_id)
    x = params.sigma * rng.standard_normal(params.n)
    s, t = sum_stats(x)
    while t == 0.0:  # probability-zero, but the energy is undefined there
        x = params.sigma * rng.standard_normal(params.n)
        s, t = sum_stats(x)
    return ChainState(x=x, s=s, t=t, params=params, cfg=cfg, rng=rng, chain_id=chain_id)


def run(chain: ChainState, sweeps: int) -> list[SampleRecord]:
    """Advance the chain by `sweeps` sweeps, recording thinned post-burn-in stats.

    Each sweep is n single-site steps whose draws come per sweep in three
    blocks: n sites, n proposal normals, n acceptance uniforms.  Cached (s, t)
    are recomputed from the configuration whenever the chain's sweep count
    reaches a multiple of RESYNC_EVERY_SWEEPS.

    Sweep i (1-based, counted from the start of this call) is recorded when
    i > burn_in_sweeps and (i - burn_in_sweeps) is a multiple of thin_sweeps.
    Records carry (sweep, s, t, s/n^{3/4}, t/n) and are bit-reproducible given
    (params, cfg, chain_id).
    """
    if sweeps < 0:
        raise DomainError(f"sweeps must be nonnegative, got {sweeps!r}")
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
    burn, thin = chain.cfg.burn_in_sweeps, chain.cfg.thin_sweeps
    s_denom = float(n) ** 0.75
    records: list[SampleRecord] = []
    if sweeps == 0:
        return records
    # imported here so that importing this module neither loads nor builds the kernel
    from ._native import kernel

    lib = kernel()
    bit_generator = chain.rng.bit_generator
    bitgen = bit_generator.ctypes.bit_generator.value
    st = np.empty(2)
    s_out = np.empty(min(sweeps, RESYNC_EVERY_SWEEPS))
    t_out = np.empty_like(s_out)
    done = 0
    while done < sweeps:
        # one stretch runs up to the chain's next resync boundary
        stretch = min(sweeps - done, RESYNC_EVERY_SWEEPS - chain.sweeps_done % RESYNC_EVERY_SWEEPS)
        st[:] = chain.s, chain.t
        with bit_generator.lock:
            accepted = lib.cw_sweeps(
                bitgen, x.ctypes.data, n, st.ctypes.data, stretch, scale, inv_two_sigma_sq,
                s_out.ctypes.data, t_out.ctypes.data,
            )
        if accepted < 0:
            raise MemoryError("cannot allocate the per-sweep draw buffers")
        chain.s, chain.t = st.tolist()
        chain.accepted += accepted
        chain.proposed += stretch * n
        chain.sweeps_done += stretch
        if chain.sweeps_done % RESYNC_EVERY_SWEEPS == 0:
            chain.resync_stats()
            s_out[stretch - 1], t_out[stretch - 1] = chain.s, chain.t
        # the first sweep of this stretch recorded: i > burn, (i - burn) % thin == 0
        first = max(done + 1, burn + thin)
        first += -(first - burn) % thin
        if first <= done + stretch:
            s_rec = s_out[first - done - 1 : stretch : thin]
            t_rec = t_out[first - done - 1 : stretch : thin]
            records.extend(
                map(
                    SampleRecord,
                    range(first, done + stretch + 1, thin),
                    s_rec.tolist(),
                    t_rec.tolist(),
                    (s_rec / s_denom).tolist(),
                    (t_rec / n).tolist(),
                )
            )
        done += stretch
    return records


def acceptance_rate(chain: ChainState) -> float:
    if chain.proposed == 0:
        return float("nan")
    return chain.accepted / chain.proposed


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
    f: Callable[[SumStats], float],
    params: ModelParams,
    draws: int,
    rng: np.random.Generator,
) -> ImportanceResult:
    """Self-normalized importance estimate of E[f(s, t)] under the tilted model.

    Proposals are exact untilted draws; log weights are s^2/(2t), normalized
    through a log-sum-exp so that weights up to e^{n/2} never overflow.  The
    standard error is the usual delta-method expression and the effective
    sample size is (sum w)^2 / sum w^2.  Weight variance grows quickly with
    the number of spins; n <= 200 is the practical range.  Results with ESS
    below 50 are returned flagged unreliable (with a warning), never silently.
    """
    if draws < MIN_IMPORTANCE_DRAWS:
        raise DomainError(f"importance estimates need at least {MIN_IMPORTANCE_DRAWS} draws")
    log_w = np.empty(draws)
    f_vals = np.empty(draws)
    done = 0
    while done < draws:
        m = min(IMPORTANCE_BLOCK, draws - done)
        s_arr, t_arr = sample_nu_star(params, rng, m)
        log_w[done : done + m] = s_arr**2 / (2.0 * t_arr)
        f_vals[done : done + m] = [f(SumStats(s, t)) for s, t in zip(s_arr, t_arr)]
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
    v = np.asarray(values, dtype=float)
    if v.size < 2 * n_batches:
        raise DomainError(f"need at least {2 * n_batches} values for {n_batches} batches")
    usable = (v.size // n_batches) * n_batches
    batches = v[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))
