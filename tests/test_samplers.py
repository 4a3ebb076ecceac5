"""Tests for the Metropolis chain and the importance-sampling route."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy.special import gammainc, gammaincinv

from cwsoc import samplers
from cwsoc.model import DomainError, ModelParams, sum_stats
from cwsoc.samplers import (
    IMPORTANCE_BLOCK,
    RESYNC_EVERY_SWEEPS,
    TRANSLATE_MOVES,
    ChainState,
    ImportanceResult,
    SampleRecord,
    SamplerConfig,
    batch_means_stderr,
    chain_rng,
    importance_estimate,
    init_chain,
    run,
    sample_nu_star,
    usable_cpus,
)
from cwsoc.verification import density_closed_form, ks_statistic


def hand_chain(x, sigma, proposal_scale):
    """A chain on configuration x whose steps take their draws as arguments."""
    params = ModelParams(n=len(x), sigma=sigma)
    cfg = SamplerConfig(proposal_scale=proposal_scale, burn_in_sweeps=0, thin_sweeps=1, seed=0)
    arr = np.asarray(x, dtype=float)
    s, t = sum_stats(arr)
    return ChainState(x=arr, s=s, t=t, params=params, cfg=cfg, rng=None)


class TestSamplerConfig:
    def test_numpy_scalars_accepted_and_stored_as_python_types(self):
        cfg = SamplerConfig(proposal_scale=np.float32(1.5), burn_in_sweeps=np.int64(3),
                            thin_sweeps=np.int32(2), seed=np.int64(7), translate_scale=np.float64(0.75))
        values = (cfg.proposal_scale, cfg.burn_in_sweeps, cfg.thin_sweeps, cfg.seed, cfg.translate_scale)
        assert values == (1.5, 3, 2, 7, 0.75)
        assert [type(v) for v in values] == [float, int, int, int, float]
        assert SamplerConfig(proposal_scale=2).proposal_scale == 2.0
        assert [type(SamplerConfig(translate_scale=v).translate_scale) for v in (0, np.float32(0.0), 1)] == [
            float, float, float,
        ]

    @pytest.mark.parametrize("field, bad", [
        ("thin_sweeps", 2.5), ("thin_sweeps", 0), ("thin_sweeps", True),
        ("burn_in_sweeps", 1.5), ("burn_in_sweeps", True), ("burn_in_sweeps", -1),
        ("seed", 3.7), ("seed", True), ("seed", -1), ("seed", 2**64), ("seed", "3"),
        ("proposal_scale", True), ("proposal_scale", 0.0), ("proposal_scale", math.inf),
        ("proposal_scale", math.nan), ("proposal_scale", "2.38"),
        ("translate_scale", True), ("translate_scale", False), ("translate_scale", math.nan),
        ("translate_scale", math.inf), ("translate_scale", -math.inf), ("translate_scale", -0.5),
        ("translate_scale", "1.5"),
    ])
    def test_invalid_field_rejected(self, field, bad):
        with pytest.raises(DomainError, match=field):
            SamplerConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [3.7, True, -1, 2**64, "3"])
    def test_chain_rng_follows_the_config_seed_rule(self, bad):
        with pytest.raises(DomainError, match="64 unsigned bits"):
            chain_rng(bad, 0)

    def test_chain_rng_takes_numpy_integer_seeds(self):
        assert chain_rng(np.uint64(2**64 - 1), 0).random() == chain_rng(2**64 - 1, 0).random()

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, np.True_, "1", -1, np.int64(-1), 2**64, None])
    def test_chain_rng_follows_the_seed_rule_for_chain_ids(self, bad):
        # int(1.7) would key chain 1's stream, and numpy rejects -1 with its own ValueError
        with pytest.raises(DomainError, match="chain_id must be an integer that fits in 64 unsigned bits"):
            chain_rng(0, bad)

    def test_chain_rng_takes_numpy_integer_chain_ids(self):
        assert chain_rng(0, np.uint8(3)).random() == chain_rng(0, 3).random()


class TestInitChain:
    def test_deterministic_given_seed(self):
        params, cfg = ModelParams(50, 1.5), SamplerConfig(seed=123)
        a, b = init_chain(params, cfg), init_chain(params, cfg)
        assert np.array_equal(a.x, b.x)
        assert (a.s, a.t) == (b.s, b.t)

    def test_distinct_chain_ids_distinct_streams(self):
        params, cfg = ModelParams(50, 1.0), SamplerConfig(seed=123)
        a = init_chain(params, cfg, chain_id=0)
        b = init_chain(params, cfg, chain_id=1)
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("bad", [1.7, True, "1", -1])
    def test_bad_chain_id_rejected(self, bad):
        with pytest.raises(DomainError, match="chain_id must be an integer"):
            init_chain(ModelParams(8, 1.0), SamplerConfig(seed=0), chain_id=bad)

    def test_numpy_integer_chain_id_stored_as_int(self):
        params, cfg = ModelParams(8, 1.0), SamplerConfig(seed=0)
        chain = init_chain(params, cfg, chain_id=np.int64(2))
        assert type(chain.chain_id) is int and chain.chain_id == 2
        assert np.array_equal(chain.x, init_chain(params, cfg, chain_id=2).x)

    def test_initial_t_concentrates(self):
        # chi-square concentration: t/n within 3*sqrt(2)*sigma^2/sqrt(n) of sigma^2
        n, sigma = 10_000, 1.3
        chain = init_chain(ModelParams(n, sigma), SamplerConfig(seed=2024))
        assert abs(chain.t / n - sigma**2) < 3.0 * math.sqrt(2.0) * sigma**2 / math.sqrt(n)

    def test_cached_stats_match_recompute(self):
        chain = init_chain(ModelParams(64, 1.0), SamplerConfig(seed=5))
        stats = sum_stats(chain.x)
        assert (chain.s, chain.t) == (stats.s, stats.t)

    def test_degenerate_zero_draw_rejected(self, monkeypatch):
        import cwsoc.samplers as samplers

        class ZeroThenNormal:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, size):
                self.calls += 1
                return np.zeros(size) if self.calls == 1 else np.ones(size)

        stub = ZeroThenNormal()
        monkeypatch.setattr(samplers, "chain_rng", lambda seed, cid=0: stub)
        # the energy is undefined at t = 0; no redraw, which never ends once x^2 underflows
        with pytest.raises(DomainError, match="not in \\(0, inf\\)"):
            init_chain(ModelParams(4, 1.0), SamplerConfig(seed=0))
        assert stub.calls == 1

    def test_overflowing_draw_rejected(self):
        # sigma^2 is normal, but (sigma z)^2 overflows for |z| above about 1.03
        with pytest.raises(DomainError, match="not in \\(0, inf\\)"):
            init_chain(ModelParams(64, 1.3e154), SamplerConfig(seed=0))


class TestStep:
    # hand-computed steps of oracle_step, which TestRunMatchesPythonOracle ties
    # bit for bit to the compiled kernel

    def test_identity_proposal_always_accepted(self):
        chain = hand_chain([1.0, 2.0], 1.0, 2.0)
        assert oracle_step(chain, 0, 0.0, 0.999999) is True
        assert chain.accepted == 1 and chain.proposed == 1

    def test_acceptance_matches_hand_computed_ratio(self):
        # propose x0: 1.0 -> 1.0 + 2.0*0.7 = 2.4 on config (1, 2), sigma = 1
        x0_new = 1.0 + 2.0 * 0.7
        s_new, t_new = 2.0 + x0_new, 4.0 + x0_new**2
        delta = (s_new**2 / (2 * t_new) - t_new / 2) - (9.0 / 10.0 - 5.0 / 2.0)
        assert delta < 0.0  # downhill move, so the uniform decides
        ratio = math.exp(delta)

        accept = hand_chain([1.0, 2.0], 1.0, 2.0)
        assert oracle_step(accept, 0, 0.7, ratio * 0.999) is True
        assert accept.x[0] == x0_new and accept.s == s_new and accept.t == t_new

        reject = hand_chain([1.0, 2.0], 1.0, 2.0)
        assert oracle_step(reject, 0, 0.7, ratio * 1.001) is False
        assert reject.x[0] == 1.0 and (reject.s, reject.t) == (3.0, 5.0)

    def test_uphill_move_always_accepted(self):
        # moving x1 toward x0 raises the tilt and lowers t: strictly uphill
        chain = hand_chain([1.0, -1.0], 1.0, 1.0)
        assert oracle_step(chain, 1, 1.5, 0.9999999) is True


class TestRun:
    def test_zero_sweeps_empty_records(self):
        chain = init_chain(ModelParams(8, 1.0), SamplerConfig(seed=1))
        assert run(chain, 0) == []

    def test_negative_sweeps_rejected(self):
        chain = init_chain(ModelParams(8, 1.0), SamplerConfig(seed=1))
        with pytest.raises(DomainError):
            run(chain, -1)

    @pytest.mark.parametrize("sweeps", [3.0, True, np.float64(3.0), 2.5, "3"])
    def test_non_integer_sweeps_rejected(self, sweeps):
        chain = init_chain(ModelParams(8, 1.0), SamplerConfig(seed=1))
        with pytest.raises(DomainError, match="nonnegative integer"):
            run(chain, sweeps)

    def test_numpy_integer_sweeps_accepted(self):
        config = SamplerConfig(burn_in_sweeps=0, seed=1)
        expected = run(init_chain(ModelParams(8, 1.0), config), 12)
        assert run(init_chain(ModelParams(8, 1.0), config), np.int64(12)) == expected

    @pytest.mark.parametrize("make_x", [
        lambda: np.ones(16)[::2],
        lambda: np.ones(8, dtype=np.float32),
        lambda: np.ones(9),
        lambda: np.frombuffer(bytes(64)),  # eight read-only float64 zeros
        lambda: [1.0] * 8,
    ], ids=["strided", "float32", "wrong-length", "read-only", "list"])
    def test_configuration_unfit_for_the_kernel_rejected(self, make_x):
        chain = init_chain(ModelParams(8, 1.0), SamplerConfig(seed=1))
        chain.x = make_x()
        with pytest.raises(DomainError, match="chain.x"):
            run(chain, 1)

    def test_burn_in_and_thinning_schedule(self):
        cfg = SamplerConfig(seed=3, burn_in_sweeps=10, thin_sweeps=4)
        chain = init_chain(ModelParams(8, 1.0), cfg)
        records = run(chain, 30)
        assert [r.sweep for r in records] == [14, 18, 22, 26, 30]

    def test_bit_reproducible(self):
        params, cfg = ModelParams(32, 1.0), SamplerConfig(seed=42, burn_in_sweeps=5, thin_sweeps=2)
        a = run(init_chain(params, cfg), 200)
        b = run(init_chain(params, cfg), 200)
        assert a == b

    def test_scaled_statistics_columns(self):
        n = 16
        chain = init_chain(ModelParams(n, 1.0), SamplerConfig(seed=9, burn_in_sweeps=0, thin_sweeps=1))
        (rec,) = run(chain, 1)
        assert rec.s_scaled == rec.s / n**0.75
        assert rec.t_scaled == rec.t / n

    def test_mean_t_scaled_concentrates(self):
        sigma = 1.0
        chain = init_chain(ModelParams(64, sigma), SamplerConfig(seed=17, burn_in_sweeps=500, thin_sweeps=1))
        records = run(chain, 4500)
        mean_t = np.mean([r.t_scaled for r in records])
        assert 0.85 * sigma**2 < mean_t < 1.15 * sigma**2


def oracle_accepts(chain, s_new, t_new, u):
    """Whether the Metropolis rule accepts the chain's move to (s_new, t_new):
    the log ratio delta is nonnegative or u < exp(delta), in plain floats with
    math.exp; a proposal whose t would not be positive is rejected outright."""
    inv_two_sigma_sq = 1.0 / (2.0 * chain.params.sigma**2)
    s, t = chain.s, chain.t
    if not t_new > 0.0:
        return False
    delta = (
        s_new * s_new / (2.0 * t_new)
        - t_new * inv_two_sigma_sq
        - s * s / (2.0 * t)
        + t * inv_two_sigma_sq
    )
    return delta >= 0.0 or u < math.exp(delta)


def oracle_step(chain, k, z, u):
    """Reference single-site Metropolis step: proposes spin k moved by
    proposal_scale * sigma * z and accepts it by oracle_accepts.  Returns True
    iff it was accepted."""
    scale = chain.cfg.proposal_scale * chain.params.sigma
    x, s, t = chain.x, chain.s, chain.t
    chain.proposed += 1
    old = float(x[k])
    new = old + scale * z
    s_new = s - old + new
    t_new = t - old * old + new * new
    if oracle_accepts(chain, s_new, t_new, u):
        x[k] = new
        chain.s, chain.t = s_new, t_new
        chain.accepted += 1
        return True
    return False


def oracle_translate(chain, z, u):
    """Reference translation move: proposes every spin moved by delta = d * z,
    d = translate_scale * sigma * n^(-1/4), with (s, t) updated in O(1), and
    accepts it by oracle_accepts.  Counts nothing; returns True iff it was
    accepted."""
    n = chain.params.n
    delta = chain.cfg.translate_scale * chain.params.sigma * n**-0.25 * z
    s, t = chain.s, chain.t
    s_new = s + n * delta
    t_new = t + 2.0 * delta * s + n * delta * delta
    if oracle_accepts(chain, s_new, t_new, u):
        chain.x += delta
        chain.s, chain.t = s_new, t_new
        return True
    return False


def oracle_run(chain, sweeps, translations=None):
    """Reference implementation of run() in pure Python.

    Draws per sweep with the Generator API (n sites, n proposal normals, n
    acceptance uniforms), steps with oracle_step, then, when translate_scale
    is positive, TRANSLATE_MOVES times draws standard_normal(1) and random(1)
    for oracle_translate and appends its outcome to `translations` if given.
    Resyncs the cached (s, t) at multiples of RESYNC_EVERY_SWEEPS and records
    by the documented burn-in/thinning schedule.
    """
    cfg, rng = chain.cfg, chain.rng
    n = chain.params.n
    records = []
    for i in range(1, sweeps + 1):
        sites = rng.integers(0, n, size=n).tolist()
        normals = rng.standard_normal(n).tolist()
        uniforms = rng.random(n).tolist()
        for k, z, u in zip(sites, normals, uniforms):
            oracle_step(chain, k, z, u)
        for _ in range(TRANSLATE_MOVES if cfg.translate_scale > 0.0 else 0):
            z = rng.standard_normal(1).tolist()[0]
            u = rng.random(1).tolist()[0]
            accepted = oracle_translate(chain, z, u)
            if translations is not None:
                translations.append(accepted)
        chain.sweeps_done += 1
        if chain.sweeps_done % RESYNC_EVERY_SWEEPS == 0:
            chain.resync_stats()
        lag = i - cfg.burn_in_sweeps
        if lag > 0 and lag % cfg.thin_sweeps == 0:
            records.append(SampleRecord(i, chain.s, chain.t, chain.s / float(n) ** 0.75, chain.t / n))
    return records


def assert_same_chain(a, b):
    """Bit-for-bit equality of configuration, cached stats and counters."""
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.s.hex(), a.t.hex()) == (b.s.hex(), b.t.hex())
    assert (a.accepted, a.proposed, a.sweeps_done) == (b.accepted, b.proposed, b.sweeps_done)
    # Philox state: counter, key, output buffer and position, buffered uint32
    assert repr(a.rng.bit_generator.state) == repr(b.rng.bit_generator.state)


class TestRunMatchesPythonOracle:
    # repr distinguishes every float bit pattern (and -0.0) and would show
    # numpy scalars, which the CSV writer must not receive

    @pytest.mark.parametrize("n", [1, 3, 16, 257])
    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_bit_identical(self, n, sigma):
        cfg = SamplerConfig(proposal_scale=1.7, burn_in_sweeps=7, thin_sweeps=3, seed=2718)
        params = ModelParams(n, sigma)
        compiled, reference = init_chain(params, cfg, chain_id=1), init_chain(params, cfg, chain_id=1)
        records = run(compiled, 40)
        assert repr(records) == repr(oracle_run(reference, 40))
        assert len(records) == 11
        assert_same_chain(compiled, reference)
        assert compiled.translations_accepted == 0

    def test_bit_identical_across_resync_boundary(self):
        sweeps = RESYNC_EVERY_SWEEPS + 3
        cfg = SamplerConfig(burn_in_sweeps=RESYNC_EVERY_SWEEPS - 5, thin_sweeps=2, seed=31)
        params = ModelParams(3, 1.0)
        compiled, reference = init_chain(params, cfg), init_chain(params, cfg)
        records = run(compiled, sweeps)
        assert repr(records) == repr(oracle_run(reference, sweeps))
        assert [r.sweep for r in records] == list(range(RESYNC_EVERY_SWEEPS - 3, sweeps + 1, 2))
        assert_same_chain(compiled, reference)

    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_bit_identical_with_translation(self, n, sigma):
        cfg = SamplerConfig(proposal_scale=1.7, burn_in_sweeps=7, thin_sweeps=3, seed=2718, translate_scale=1.5)
        params = ModelParams(n, sigma)
        compiled, reference = init_chain(params, cfg, chain_id=1), init_chain(params, cfg, chain_id=1)
        translations = []
        records = run(compiled, 40)
        assert repr(records) == repr(oracle_run(reference, 40, translations))
        assert len(records) == 11
        assert_same_chain(compiled, reference)
        # both outcomes of the move occur, each counted as a translation and neither as a step
        assert set(translations) == {True, False}
        assert compiled.translations_accepted == sum(translations)
        assert len(translations) == 40 * TRANSLATE_MOVES
        assert compiled.proposed == 40 * n

    def test_bit_identical_with_translation_across_resync_boundary(self):
        sweeps = RESYNC_EVERY_SWEEPS + 3
        cfg = SamplerConfig(burn_in_sweeps=RESYNC_EVERY_SWEEPS - 5, thin_sweeps=2, seed=31, translate_scale=1.5)
        params = ModelParams(3, 1.0)
        compiled, reference = init_chain(params, cfg), init_chain(params, cfg)
        translations = []
        records = run(compiled, sweeps)
        assert repr(records) == repr(oracle_run(reference, sweeps, translations))
        assert [r.sweep for r in records] == list(range(RESYNC_EVERY_SWEEPS - 3, sweeps + 1, 2))
        assert_same_chain(compiled, reference)
        assert compiled.translations_accepted == sum(translations)
        assert len(translations) == sweeps * TRANSLATE_MOVES

    def test_delta_order_decides_a_boundary_step(self):
        # The first (site, normal, uniform) of seed 0's stream at n = 2 is
        # (0, 0.4575..., 0.8209...).  Spin 0 sits at -scale*z/2, so the
        # proposal flips its sign and t barely moves, and spin 1 was tuned ulp
        # by ulp until exp(delta) of the promised order falls below u while
        # that of the regrouped order (s_new^2/(2 t_new) - s^2/(2t)) -
        # (t_new - t) c does not: only the promised order rejects the step.
        x = [-0.5444479443636325, -5.464699418003765]
        params, cfg = ModelParams(2, 1.0), SamplerConfig(burn_in_sweeps=0, seed=0)

        def chain():
            s, t = sum_stats(x)
            return ChainState(np.array(x), s, t, params, cfg, chain_rng(cfg.seed))

        compiled, reference = chain(), chain()
        draws = chain_rng(cfg.seed)
        k, z, u = int(draws.integers(0, 2, size=2)[0]), draws.standard_normal(2)[0], draws.random(2)[0]
        old, c = x[k], 0.5
        new = old + cfg.proposal_scale * z
        s, t = compiled.s, compiled.t
        s_new, t_new = s - old + new, t - old * old + new * new
        promised = s_new * s_new / (2.0 * t_new) - t_new * c - s * s / (2.0 * t) + t * c
        regrouped = (s_new * s_new / (2.0 * t_new) - s * s / (2.0 * t)) - (t_new - t) * c
        assert math.exp(promised) <= u < math.exp(regrouped) < 1.0

        records = run(compiled, 1)
        assert repr(records) == repr(oracle_run(reference, 1))
        assert_same_chain(compiled, reference)
        assert oracle_step(chain(), k, z, u) is False

    def test_single_sweep_calls_equal_one_call(self):
        sweeps = RESYNC_EVERY_SWEEPS + 3
        cfg = SamplerConfig(proposal_scale=0.9, burn_in_sweeps=0, thin_sweeps=1, seed=5)
        params = ModelParams(3, 1.3)
        stepped, whole = init_chain(params, cfg), init_chain(params, cfg)
        singles = [run(stepped, 1) for _ in range(sweeps)]
        records = run(whole, sweeps)
        assert all(len(one) == 1 and one[0].sweep == 1 for one in singles)
        assert repr([one[0][1:] for one in singles]) == repr([r[1:] for r in records])
        assert_same_chain(stepped, whole)


class CountingKernel:
    """The compiled kernel, with the threads that call cw_draw recorded and
    after_first_draw, if given, called after the first."""

    def __init__(self, lib, after_first_draw=None):
        self._lib, self._after_first_draw = lib, after_first_draw
        self.draw_threads = []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def cw_draw(self, *args):
        self.draw_threads.append(threading.get_ident())
        self._lib.cw_draw(*args)
        if self._after_first_draw is not None and len(self.draw_threads) == 1:
            self._after_first_draw()


class TestDrawAhead:
    # 4-sweep blocks at n = 16; the chains start 9 sweeps short of a resync
    N, BLOCK_PROPOSALS, START = 16, 64, RESYNC_EVERY_SWEEPS - 9

    @pytest.fixture
    def counting(self, monkeypatch):
        """Sets the CPUs and the block size and returns the counting kernel."""

        def setup(cpus, after_first_draw=None):
            monkeypatch.setattr(samplers, "DRAW_AHEAD_PROPOSALS", self.BLOCK_PROPOSALS)
            monkeypatch.setattr(samplers, "usable_cpus", lambda: cpus)
            lib = CountingKernel(samplers.kernel(), after_first_draw)
            monkeypatch.setattr(samplers, "kernel", lambda: lib)
            return lib

        return setup

    def chains(self, translate_scale):
        cfg = SamplerConfig(proposal_scale=1.7, burn_in_sweeps=5, thin_sweeps=2, seed=77,
                            translate_scale=translate_scale)
        pair = init_chain(ModelParams(self.N, 1.3), cfg, 2), init_chain(ModelParams(self.N, 1.3), cfg, 2)
        for chain in pair:
            chain.sweeps_done = self.START
        return pair

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("translate_scale", [0.0, 1.5])
    def test_bit_identical_across_resync_boundary(self, counting, cpus, translate_scale):
        lib = counting(cpus)
        compiled, reference = self.chains(translate_scale)
        translations = []
        records = run(compiled, 41)
        assert repr(records) == repr(oracle_run(reference, 41, translations))
        assert_same_chain(compiled, reference)
        assert compiled.translations_accepted == sum(translations)
        if cpus == 1:
            assert set(lib.draw_threads) == {threading.get_ident()}
        else:
            # 4 + 4 + 1 sweeps to the resync, then 8 blocks of 4, all drawn by one other thread
            assert len(lib.draw_threads) == 11
            assert set(lib.draw_threads) != {threading.get_ident()} and len(set(lib.draw_threads)) == 1

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_calls_that_end_mid_block(self, counting, cpus):
        lib = counting(cpus)
        compiled, reference = self.chains(1.5)
        for sweeps in (10, 7, 1, 13, 9, 6):
            assert repr(run(compiled, sweeps)) == repr(oracle_run(reference, sweeps))
        assert_same_chain(compiled, reference)
        # with a spare CPU a helper draws the calls of more than one block
        assert (set(lib.draw_threads) != {threading.get_ident()}) == (cpus > 1)

    def test_helper_that_stops_early_leaves_the_stream_unchanged(self, counting):
        # another chain thread starts during the helper's first block, which
        # leaves 3 busy threads on 2 CPUs: the helper draws the two blocks
        # queued at the start, and the chain draws the other 9 itself
        entered = []
        lib = counting(2, after_first_draw=lambda: entered.append(samplers._SAMPLER_THREADS.enter()))
        compiled, reference = self.chains(1.5)
        try:
            records = run(compiled, 41)
        finally:
            for _ in entered:
                samplers._SAMPLER_THREADS.leave()
        assert repr(records) == repr(oracle_run(reference, 41))
        assert_same_chain(compiled, reference)
        assert len(lib.draw_threads) == 11
        assert lib.draw_threads[0] == lib.draw_threads[1] != threading.get_ident()
        assert lib.draw_threads[2:] == [threading.get_ident()] * 9

    def test_helper_failure_raised_and_its_cpu_released(self, counting, monkeypatch):
        lib = counting(2)

        def fail(*args):
            raise OSError("draw failed")

        monkeypatch.setattr(lib, "cw_draw", fail)
        compiled, _ = self.chains(0.0)
        with pytest.raises(OSError, match="draw failed"):
            run(compiled, 41)
        monkeypatch.delattr(lib, "cw_draw")
        # both claims were released: the next call finds its spare CPU again
        compiled, reference = self.chains(0.0)
        assert repr(run(compiled, 41)) == repr(oracle_run(reference, 41))
        assert lib.draw_threads != []

    def test_walk_failure_wakes_a_waiting_helper(self, counting, monkeypatch):
        lib = counting(2)

        def walk(*args):
            # once both buffers are drawn the helper waits for one to come back
            deadline = time.monotonic() + 10
            while len(lib.draw_threads) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)
            raise RuntimeError("walk failed")

        monkeypatch.setattr(lib, "cw_walk", walk)
        compiled, _ = self.chains(0.0)
        before = set(threading.enumerate())
        errors = []

        def walker():
            try:
                run(compiled, 41)
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=walker, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [str(exc) for exc in errors] == ["walk failed"]
        assert len(lib.draw_threads) == 2
        assert set(threading.enumerate()) <= before  # the helper has ended

    def test_ctrl_c_in_a_walk_leaves_no_helper_behind(self, counting, monkeypatch):
        # a KeyboardInterrupt is a BaseException: while the chain walks block
        # 0, block 1 is queued for the helper or being drawn by it
        lib = counting(2)

        def walk(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(lib, "cw_walk", walk)
        compiled, _ = self.chains(0.0)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            run(compiled, 41)
        assert 1 <= len(lib.draw_threads) <= 2
        assert set(threading.enumerate()) <= before  # the helper has ended
        assert samplers._SAMPLER_THREADS._busy == 0  # every claim was given back

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread affinity on this platform")
    def test_helper_runs_off_the_chain_threads_cpu(self, counting, monkeypatch):
        lib = counting(4)
        draw, masks = lib.cw_draw, []

        def recording_draw(*args):
            masks.append(os.sched_getaffinity(0))
            draw(*args)

        monkeypatch.setattr(lib, "cw_draw", recording_draw)
        current_cpu, here = lib.cw_current_cpu, []

        def recording_cpu():
            here.append(current_cpu())
            return here[-1]

        monkeypatch.setattr(lib, "cw_current_cpu", recording_cpu)
        mask = os.sched_getaffinity(0)
        compiled, reference = self.chains(0.0)
        assert repr(run(compiled, 41)) == repr(oracle_run(reference, 41))
        assert len(here) == 1 and here[0] in mask
        # with one CPU there is no other to keep it on
        assert masks and all(m == (mask - {here[0]} or mask) for m in masks)
        assert os.sched_getaffinity(0) == mask

    def test_chains_on_more_threads_than_cpus(self, counting):
        # helpers start, draw and stop early as six chain threads come and go
        # on four counted CPUs, with thread switches forced often
        lib = counting(4)
        pairs = [self.chains(1.5) for _ in range(6)]
        results = [None] * len(pairs)

        def work(i):
            results[i] = run(pairs[i][0], 41)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for (compiled, reference), records in zip(pairs, results):
            assert repr(records) == repr(oracle_run(reference, 41))
            assert_same_chain(compiled, reference)
        assert lib.draw_threads != []
        assert samplers._SAMPLER_THREADS._busy == 0  # every claim was given back

    def test_no_helper_for_one_block(self, counting):
        lib = counting(4)
        compiled, reference = self.chains(0.0)
        assert repr(run(compiled, 4)) == repr(oracle_run(reference, 4))
        assert lib.draw_threads == [threading.get_ident()]


class TestUsableCpus:
    def test_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert usable_cpus() == 2

    @pytest.mark.parametrize("count, expected", [(6, 6), (None, 1)])
    def test_counts_every_cpu_without_a_mask(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert usable_cpus() == expected


class TestChainInvariants:
    def test_incremental_matches_recompute_after_million_steps(self):
        # 9990 sweeps of n=101 is ~1.01e6 steps with no resync in between
        chain = init_chain(ModelParams(101, 1.0), SamplerConfig(seed=8, burn_in_sweeps=0, thin_sweeps=10_000))
        run(chain, 9_990)
        fresh = sum_stats(chain.x)
        assert abs(chain.s - fresh.s) <= 1e-8 * (1.0 + abs(fresh.s))
        assert abs(chain.t - fresh.t) <= 1e-8 * (1.0 + abs(fresh.t))

    @pytest.mark.parametrize("n", [16, 256])
    def test_acceptance_rate_sane_at_unit_scale(self, n):
        chain = init_chain(ModelParams(n, 1.0), SamplerConfig(proposal_scale=1.0, seed=21, burn_in_sweeps=0))
        run(chain, 2000 if n == 16 else 200)
        assert 0.1 < chain.accepted / chain.proposed < 0.9

    @pytest.mark.parametrize("translate_scale", [0.0, 1.5])
    def test_sigma_scaling_metamorphic(self, translate_scale):
        # same seed: the sigma=2 chain is exactly 2x the sigma=1 chain, every sweep
        cfg = SamplerConfig(seed=99, burn_in_sweeps=0, thin_sweeps=1, translate_scale=translate_scale)
        unit = init_chain(ModelParams(10, 1.0), cfg)
        doubled = init_chain(ModelParams(10, 2.0), cfg)
        worst = 0.0
        for _ in range(1000):
            run(unit, 1)
            run(doubled, 1)
            dev = np.max(np.abs(doubled.x - 2.0 * unit.x) / np.maximum(1.0, np.abs(doubled.x)))
            worst = max(worst, float(dev))
        assert worst <= 1e-12
        assert doubled.s == pytest.approx(2.0 * unit.s, rel=1e-12, abs=1e-300)
        assert doubled.t == pytest.approx(4.0 * unit.t, rel=1e-12)


def angular_cdf(c, n):
    """CDF at c of C_n = S/sqrt(nT), whose density on (-1, 1) is proportional
    to (1 - c^2)^((n-3)/2) e^(nc^2/2): the trapezoid rule on 400,001 nodes,
    interpolated linearly (its error is far below the KS noise)."""
    grid = np.linspace(-1.0, 1.0, 400_001)
    log_g = 0.5 * (n - 3) * np.log1p(-grid[1:-1] ** 2) + 0.5 * n * grid[1:-1] ** 2
    g = np.concatenate([[0.0], np.exp(log_g - log_g.max()), [0.0]])
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]))])
    return np.interp(c, grid, cumulative / cumulative[-1])


class TestStationarityWithTranslation:
    # The tilt s^2/(2t) depends only on the direction of x, so under the tilted
    # law T/sigma^2 ~ chi^2_n exactly, independent of C_n = S/sqrt(nT), which has
    # the density of angular_cdf: two laws with no finite-n bias.
    RECORDS, THIN, BURN = 8000, 5, 1000
    # a conservative ESS: one effective sample per 10 sweeps, well above the
    # integrated autocorrelation time of s with the moves (about 1.1 sweeps),
    # at false-alarm 1e-3
    TAU_BOUND_SWEEPS = 10

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_t_and_angle_follow_their_exact_laws(self, n, sigma):
        cfg = SamplerConfig(seed=2024, burn_in_sweeps=self.BURN, thin_sweeps=self.THIN, translate_scale=1.5)
        records = run(init_chain(ModelParams(n, sigma), cfg), self.BURN + self.THIN * self.RECORDS)
        s = np.array([r.s for r in records])
        t = np.array([r.t for r in records])
        ess = self.THIN * self.RECORDS / self.TAU_BOUND_SWEEPS
        bound = math.sqrt(math.log(2.0 / 1e-3) / 2.0) / math.sqrt(ess)
        ks_t = ks_statistic(np.sort(t / sigma**2), lambda q: gammainc(n / 2.0, q / 2.0))
        ks_c = ks_statistic(np.sort(s / np.sqrt(n * t)), lambda c: angular_cdf(c, n))
        assert ks_t <= bound and ks_c <= bound, (ks_t, ks_c, bound)


class TestTemperatureLaw:
    # T/sigma^2 ~ chi^2_n exactly under the tilted law, with or without the
    # translation move, so a KS of the chain's t against it checks the
    # sampled law apart from the byte-level oracle tests; an error in the
    # normals that keeps them symmetric leaves that law as it is.
    # tau_int(t) is 5-6.5 sweeps at n = 16..256 either way; thinned by 15
    # sweeps, t's records keep a tau_int of at most about 1.2, and the ESS
    # taken is half the records.  False alarm at most 1e-3 per case (DKW).
    RECORDS, THIN, BURN = 3000, 15, 1000
    ALPHA = 1e-3

    @pytest.mark.parametrize("translate_scale", [0.0, 1.5])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_t_follows_chi_square_n(self, n, translate_scale):
        cfg = SamplerConfig(
            seed=2024, burn_in_sweeps=self.BURN, thin_sweeps=self.THIN, translate_scale=translate_scale
        )
        records = run(init_chain(ModelParams(n, 1.0), cfg), self.BURN + self.THIN * self.RECORDS)
        ks = ks_statistic(np.sort([r.t for r in records]), lambda q: gammainc(n / 2.0, q / 2.0))
        bound = math.sqrt(math.log(2.0 / self.ALPHA) / 2.0) / math.sqrt(self.RECORDS / 2)
        assert ks <= bound, (ks, bound)


class TestNuStarSampler:
    def test_always_strictly_in_support(self):
        params = ModelParams(6, 1.0)
        s, t = sample_nu_star(params, chain_rng(77, 0), 500)
        assert s.shape == t.shape == (500,)
        assert np.all(t > 0.0) and np.all(s * s < params.n * t)

    def test_symmetry_and_second_moment(self):
        n, sigma, draws = 5, 1.0, 100_000
        s, t = sample_nu_star(ModelParams(n, sigma), chain_rng(123456, 0), draws)
        assert abs(s.mean()) < 3.0 * math.sqrt(n * sigma**2 / draws)
        # E[t] = n sigma^2, Var[t] = 2 n sigma^4
        assert abs(t.mean() - n * sigma**2) < 4.0 * math.sqrt(2.0 * n * sigma**4 / draws)

    def test_histogram_matches_closed_form_density(self):
        """Chi-square goodness of fit of (s, t) draws against the exact density, n=5."""
        from scipy.integrate import dblquad

        n, draws = 5, 60_000
        s, t = sample_nu_star(ModelParams(n, 1.0), chain_rng(987, 0), draws)

        s_edges = np.array([-4.5, -1.5, 0.0, 1.5, 4.5])
        t_edges = np.array([1.0, 3.5, 5.5, 8.0, 12.0])
        cells = []
        for i in range(4):
            for j in range(4):
                prob, _ = dblquad(
                    lambda y, x: density_closed_form(x, y, n),
                    s_edges[i], s_edges[i + 1],
                    lambda x: t_edges[j], lambda x: t_edges[j + 1],
                    epsabs=1e-10,
                )
                count = np.sum(
                    (s >= s_edges[i]) & (s < s_edges[i + 1]) & (t >= t_edges[j]) & (t < t_edges[j + 1])
                )
                cells.append((count, prob))
        rest_prob = 1.0 - sum(p for _, p in cells)
        rest_count = draws - sum(c for c, _ in cells)
        cells.append((rest_count, rest_prob))

        chi2 = sum((c - draws * p) ** 2 / (draws * p) for c, p in cells)
        dof = len(cells) - 1
        # 99.9% quantile of chi-square: P(dof/2, crit/2) = 0.999
        crit = 2.0 * gammaincinv(dof / 2.0, 0.999)
        assert chi2 < crit, f"chi2 {chi2:.1f} exceeds 99.9% critical value {crit:.1f}"


class TestImportanceEstimate:
    def test_constant_function_is_exact(self):
        res = importance_estimate(lambda s, t: np.ones_like(s), ModelParams(20, 1.0), 1000, chain_rng(4, 0))
        assert res.estimate == pytest.approx(1.0, abs=1e-15)
        assert res.std_error == pytest.approx(0.0, abs=1e-15)

    def test_positive_half_probability(self):
        res = importance_estimate(
            lambda s, t: np.where(s > 0, 1.0, 0.0), ModelParams(20, 1.0), 100_000, chain_rng(6, 0)
        )
        assert abs(res.estimate - 0.5) < 3.0 * res.std_error

    def test_too_few_draws_rejected(self):
        with pytest.raises(DomainError):
            importance_estimate(lambda s, t: np.ones_like(s), ModelParams(10, 1.0), 99, chain_rng(1, 0))

    @pytest.mark.parametrize("draws", [150.5, 200.0, True, "200", None])
    def test_non_integer_draws_rejected(self, draws):
        with pytest.raises(DomainError, match="draws"):
            importance_estimate(lambda s, t: np.ones_like(s), ModelParams(10, 1.0), draws, chain_rng(1, 0))

    def test_numpy_integer_draws_stored_as_python_int(self):
        f = lambda s, t: s * s / t  # noqa: E731
        res = importance_estimate(f, ModelParams(10, 1.0), np.int64(200), chain_rng(3, 0))
        assert type(res.draws) is int and res.draws == 200
        assert res == importance_estimate(f, ModelParams(10, 1.0), 200, chain_rng(3, 0))

    def test_low_ess_flagged_not_silent(self):
        with pytest.warns(RuntimeWarning, match="ESS"):
            res = importance_estimate(
                lambda s, t: s, ModelParams(200, 1.0), 150, chain_rng(12, 0)
            )
        assert isinstance(res, ImportanceResult)
        assert not res.reliable
        assert res.ess < 50.0

    def test_matches_the_per_draw_reference_bit_for_bit(self):
        # the estimator of the loop that called f once per draw, on the same blocks
        params, draws = ModelParams(30, 1.0), 10_000

        def reference(f, rng):
            s_all, t_all, f_all = [], [], []
            for first in range(0, draws, IMPORTANCE_BLOCK):
                s_arr, t_arr = sample_nu_star(params, rng, min(IMPORTANCE_BLOCK, draws - first))
                s_all.append(s_arr)
                t_all.append(t_arr)
                f_all.append([f(s, t) for s, t in zip(s_arr, t_arr)])
            s_arr, t_arr, f_vals = np.concatenate(s_all), np.concatenate(t_all), np.concatenate(f_all)
            log_w = s_arr**2 / (2.0 * t_arr)
            shifted = np.exp(log_w - log_w.max())
            w_norm = shifted / shifted.sum()
            estimate = float(np.dot(w_norm, f_vals))
            std_error = float(np.sqrt(np.sum(w_norm**2 * (f_vals - estimate) ** 2)))
            return estimate, std_error, float(1.0 / np.sum(w_norm**2))

        f = lambda s, t: s * s / t  # noqa: E731, elementwise on scalars and arrays alike
        res = importance_estimate(f, params, draws, chain_rng(8, 0))
        expected = reference(f, chain_rng(8, 0))
        assert [v.hex() for v in res[:3]] == [v.hex() for v in expected]
        assert res.draws == draws and res.reliable

    def test_f_of_the_wrong_shape_rejected(self):
        with pytest.raises(DomainError, match="f returned shape \\(\\) for \\(1000,\\) draws"):
            importance_estimate(lambda s, t: 1.0, ModelParams(10, 1.0), 1000, chain_rng(1, 0))

    def test_agrees_with_mcmc_route(self):
        # two independent estimators of E[(s/n^{3/4})^2] at n=50
        params = ModelParams(50, 1.0)
        f = lambda s, t: (s / 50**0.75) ** 2
        imp = importance_estimate(f, params, 200_000, chain_rng(31337, 0))
        cfg = SamplerConfig(seed=777, burn_in_sweeps=500, thin_sweeps=2)
        chain = init_chain(params, cfg)
        records = run(chain, 500 + 2 * 10_000)
        vals = np.array([r.s_scaled**2 for r in records])
        mcmc_se = batch_means_stderr(vals, 32)
        combined = math.hypot(imp.std_error, mcmc_se)
        assert abs(imp.estimate - vals.mean()) <= 3.0 * combined


class TestBatchMeans:
    def test_iid_case_matches_naive_stderr(self):
        rng = chain_rng(55, 0)
        x = rng.standard_normal(64_000)
        bm = batch_means_stderr(x, 32)
        naive = x.std(ddof=1) / math.sqrt(x.size)
        assert bm == pytest.approx(naive, rel=0.35)

    def test_too_short_sequence_rejected(self):
        with pytest.raises(DomainError):
            batch_means_stderr(np.ones(10), 32)

    @pytest.mark.parametrize("n_batches", [0, 1, -3, 2.5, 4.0, True, "4"])
    def test_invalid_batch_count_rejected(self, n_batches):
        with pytest.raises(DomainError, match="n_batches"):
            batch_means_stderr(np.arange(100.0), n_batches)
