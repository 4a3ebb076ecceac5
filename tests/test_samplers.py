"""Tests for the Metropolis chain and the importance-sampling route."""

import math

import numpy as np
import pytest
from scipy.special import gammaincinv

from cwsoc.model import DomainError, ModelParams, SumStats, sum_stats
from cwsoc.samplers import (
    RESYNC_EVERY_SWEEPS,
    ChainState,
    ImportanceResult,
    SampleRecord,
    SamplerConfig,
    acceptance_rate,
    batch_means_stderr,
    chain_rng,
    importance_estimate,
    init_chain,
    run,
    sample_nu_star,
)
from cwsoc.verification import density_closed_form


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
                            thin_sweeps=np.int32(2), seed=np.int64(7))
        assert (cfg.proposal_scale, cfg.burn_in_sweeps, cfg.thin_sweeps, cfg.seed) == (1.5, 3, 2, 7)
        assert [type(v) for v in (cfg.proposal_scale, cfg.burn_in_sweeps, cfg.thin_sweeps, cfg.seed)] == [
            float, int, int, int,
        ]
        assert SamplerConfig(proposal_scale=2).proposal_scale == 2.0

    @pytest.mark.parametrize("field, bad", [
        ("thin_sweeps", 2.5), ("thin_sweeps", 0), ("thin_sweeps", True),
        ("burn_in_sweeps", 1.5), ("burn_in_sweeps", True), ("burn_in_sweeps", -1),
        ("seed", 3.7), ("seed", True), ("seed", -1), ("seed", 2**64), ("seed", "3"),
        ("proposal_scale", True), ("proposal_scale", 0.0), ("proposal_scale", math.inf),
        ("proposal_scale", math.nan), ("proposal_scale", "2.38"),
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

    def test_initial_t_concentrates(self):
        # chi-square concentration: t/n within 3*sqrt(2)*sigma^2/sqrt(n) of sigma^2
        n, sigma = 10_000, 1.3
        chain = init_chain(ModelParams(n, sigma), SamplerConfig(seed=2024))
        assert abs(chain.t / n - sigma**2) < 3.0 * math.sqrt(2.0) * sigma**2 / math.sqrt(n)

    def test_cached_stats_match_recompute(self):
        chain = init_chain(ModelParams(64, 1.0), SamplerConfig(seed=5))
        stats = sum_stats(chain.x)
        assert (chain.s, chain.t) == (stats.s, stats.t)

    def test_degenerate_zero_draw_retried(self, monkeypatch):
        import cwsoc.samplers as samplers

        class ZeroThenNormal:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, size):
                self.calls += 1
                return np.zeros(size) if self.calls == 1 else np.ones(size)

        stub = ZeroThenNormal()
        monkeypatch.setattr(samplers, "chain_rng", lambda seed, cid=0: stub)
        chain = init_chain(ModelParams(4, 1.0), SamplerConfig(seed=0))
        assert stub.calls == 2
        assert chain.t > 0.0


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


def oracle_step(chain, k, z, u):
    """Reference single-site Metropolis step in plain floats with math.exp.

    Proposes spin k moved by proposal_scale * sigma * z and accepts it when the
    log ratio delta is nonnegative or u < exp(delta); a proposal whose t would
    not be positive is rejected outright.  Returns True iff it was accepted.
    """
    scale = chain.cfg.proposal_scale * chain.params.sigma
    inv_two_sigma_sq = 1.0 / (2.0 * chain.params.sigma**2)
    x, s, t = chain.x, chain.s, chain.t
    chain.proposed += 1
    old = float(x[k])
    new = old + scale * z
    s_new = s - old + new
    t_new = t - old * old + new * new
    if not t_new > 0.0:
        return False
    delta = (
        s_new * s_new / (2.0 * t_new)
        - t_new * inv_two_sigma_sq
        - s * s / (2.0 * t)
        + t * inv_two_sigma_sq
    )
    if delta >= 0.0 or u < math.exp(delta):
        x[k] = new
        chain.s, chain.t = s_new, t_new
        chain.accepted += 1
        return True
    return False


def oracle_run(chain, sweeps):
    """Reference implementation of run() in pure Python.

    Draws per sweep with the Generator API (n sites, n proposal normals, n
    acceptance uniforms), steps with oracle_step, resyncs the cached (s, t) at
    multiples of RESYNC_EVERY_SWEEPS and records by the documented
    burn-in/thinning schedule.
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

    def test_bit_identical_across_resync_boundary(self):
        sweeps = RESYNC_EVERY_SWEEPS + 3
        cfg = SamplerConfig(burn_in_sweeps=RESYNC_EVERY_SWEEPS - 5, thin_sweeps=2, seed=31)
        params = ModelParams(3, 1.0)
        compiled, reference = init_chain(params, cfg), init_chain(params, cfg)
        records = run(compiled, sweeps)
        assert repr(records) == repr(oracle_run(reference, sweeps))
        assert [r.sweep for r in records] == list(range(RESYNC_EVERY_SWEEPS - 3, sweeps + 1, 2))
        assert_same_chain(compiled, reference)

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
        assert 0.1 < acceptance_rate(chain) < 0.9

    def test_sigma_scaling_metamorphic(self):
        # same seed: the sigma=2 chain is exactly 2x the sigma=1 chain, every sweep
        cfg = SamplerConfig(seed=99, burn_in_sweeps=0, thin_sweeps=1)
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
        res = importance_estimate(lambda st: 1.0, ModelParams(20, 1.0), 1000, chain_rng(4, 0))
        assert res.estimate == pytest.approx(1.0, abs=1e-15)
        assert res.std_error == pytest.approx(0.0, abs=1e-15)

    def test_positive_half_probability(self):
        res = importance_estimate(
            lambda st: 1.0 if st.s > 0 else 0.0, ModelParams(20, 1.0), 100_000, chain_rng(6, 0)
        )
        assert abs(res.estimate - 0.5) < 3.0 * res.std_error

    def test_too_few_draws_rejected(self):
        with pytest.raises(DomainError):
            importance_estimate(lambda st: 1.0, ModelParams(10, 1.0), 99, chain_rng(1, 0))

    def test_low_ess_flagged_not_silent(self):
        with pytest.warns(RuntimeWarning, match="ESS"):
            res = importance_estimate(
                lambda st: st.s, ModelParams(200, 1.0), 150, chain_rng(12, 0)
            )
        assert isinstance(res, ImportanceResult)
        assert not res.reliable
        assert res.ess < 50.0

    def test_agrees_with_mcmc_route(self):
        # two independent estimators of E[(s/n^{3/4})^2] at n=50
        params = ModelParams(50, 1.0)
        f = lambda st: (st.s / 50**0.75) ** 2
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
