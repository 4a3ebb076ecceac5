"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and also asserts, so the suite is both human-readable and a hard gate.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp1f1

from cwsoc.cli import main
from cwsoc.limit_law import QuarticLaw, normalizer
from cwsoc.model import ModelParams, psi
from cwsoc.samplers import (
    SamplerConfig,
    batch_means_stderr,
    chain_rng,
    importance_estimate,
    init_chain,
    run,
)
from cwsoc.verification import (
    _gaussian_integral_by_quadrature,
    complex_gaussian_integral,
    density_closed_form,
    estimate_C_n,
    invert_char_fn,
    inversion_probe_points,
    ks_statistic,
    laplace_ratio,
    log_C_n_by_raw_quadrature,
    psi_grid_min_outside_box,
    psi_quadratic_expansion,
    run_suites,
)


# The 72 report.json row names of `verify --suite all`, in report order.
VERIFY_ROWS = Path(__file__).with_name("verify_rows.txt")


def _report(num: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {status}: {description}{suffix}")


def test_criterion_01_complex_integral_oracle():
    start = time.time()
    worst = 0.0
    for t in (0.0, 1.0, 2.5):
        for zeta in (1.0 + 0.0j, 1.0 + 2.0j, 1.0 - 2.0j, 0.2 + 3.0j):
            closed = complex_gaussian_integral(t, zeta)
            oracle = _gaussian_integral_by_quadrature(t, zeta)
            worst = max(worst, abs(closed - oracle))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, ok, "complex Gaussian integral closed form vs quadrature on probe grid",
            f"max err {worst:.2e} <= 1e-8, {elapsed:.1f}s < 5s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_fourier_inversion_oracle():
    start = time.time()
    worst = 0.0
    for n in (5, 6, 8):
        points = inversion_probe_points(n)
        assert len(points) == 12
        for x, y in points:
            res = invert_char_fn(x, y, n, tol=2.5e-4)
            worst = max(worst, abs(res.value - density_closed_form(x, y, n)))
    from cwsoc.verification import _closed_form_mass

    mass = _closed_form_mass(6)
    elapsed = time.time() - start
    ok = worst <= 1e-3 and abs(mass - 1.0) <= 1e-6 and elapsed < 120.0
    _report(2, ok, "inversion vs closed form at 12 points for n in {5,6,8}; mass(n=6) = 1",
            f"max err {worst:.2e} <= 1e-3, |mass-1| {abs(mass-1.0):.2e} <= 1e-6, {elapsed:.0f}s < 120s")
    assert worst <= 1e-3
    assert abs(mass - 1.0) <= 1e-6
    assert elapsed < 120.0


def test_criterion_03_laplace_geometry():
    start = time.time()
    min_val = psi(0.0, 1.0)
    (g_x, g_y), (h_xx, h_yy, h_xy) = psi_quadratic_expansion(1e-4)
    hessian_dev = max(abs(h_xx - 0.5), abs(h_yy - 0.5), abs(h_xy))
    grid_min = psi_grid_min_outside_box()
    elapsed = time.time() - start
    ok = (
        abs(min_val - 0.5) <= 1e-14
        and hessian_dev <= 1e-4
        and grid_min > 0.5
        and elapsed < 10.0
    )
    _report(3, ok, "psi minimum 1/2, FD Hessian diag(1/2,1/2), grid min outside 0.1-box > 1/2",
            f"|psi(0,1)-0.5| {abs(min_val-0.5):.1e}, hess dev {hessian_dev:.2e}, "
            f"grid min {grid_min:.5f}, {elapsed:.1f}s < 10s")
    assert abs(min_val - 0.5) <= 1e-14
    assert hessian_dev <= 1e-4
    assert grid_min > 0.5
    assert elapsed < 10.0


def test_criterion_04_normalization_bound():
    start = time.time()
    bounds_ok = True
    for n in range(5, 31):
        est = estimate_C_n(n)
        bounds_ok &= 0.0 <= est.log_Z_n <= n / 2.0
    est5 = estimate_C_n(5)
    raw5 = log_C_n_by_raw_quadrature(5)
    rel = abs(math.exp(est5.log_C_n - raw5) - 1.0)
    elapsed = time.time() - start
    ok = bounds_ok and rel <= 1e-6 and elapsed < 60.0
    _report(4, ok, "log Z_n in [0, n/2] for n in 5..30; C_5 cross-route within 1e-6 relative",
            f"bounds {'ok' if bounds_ok else 'VIOLATED'}, rel diff {rel:.2e}, {elapsed:.1f}s < 60s")
    assert bounds_ok
    assert rel <= 1e-6
    assert elapsed < 60.0


def test_criterion_05_laplace_constant_asymptotic():
    start = time.time()
    r100 = laplace_ratio(100)
    r400 = laplace_ratio(400)
    elapsed = time.time() - start
    ok = (
        0.85 <= r100 <= 1.15
        and 0.92 <= r400 <= 1.08
        and abs(r400 - 1.0) < abs(r100 - 1.0)
        and elapsed < 120.0
    )
    _report(5, ok, "saddle-point constant ratio near 1 and closing in n",
            f"ratio(100)={r100:.5f}, ratio(400)={r400:.5f}, {elapsed:.1f}s < 120s")
    assert 0.85 <= r100 <= 1.15
    assert 0.92 <= r400 <= 1.08
    assert abs(r400 - 1.0) < abs(r100 - 1.0)
    assert elapsed < 120.0


def test_criterion_06_limit_law_internal_consistency():
    start = time.time()
    law = QuarticLaw(1.0)
    draws = np.sort(law.sample(chain_rng(424242, 0), size=100_000))
    ks = ks_statistic(draws, law.cdf)
    m2 = float(np.mean(draws**2))
    m2_se = float(np.std(draws**2, ddof=1) / math.sqrt(draws.size))
    m2_dev = abs(m2 - law.even_moment(1))
    quad_mass, _ = quad(lambda y: math.exp(-(y**4) / 4.0), -np.inf, np.inf, epsabs=1e-12)
    norm_err = abs(normalizer(1.0) - quad_mass)
    elapsed = time.time() - start
    ok = ks < 0.0061 and m2_dev <= 4.0 * m2_se and norm_err <= 1e-8 and elapsed < 30.0
    _report(6, ok, "quartic sampler vs own CDF, moments, normalizer vs quadrature",
            f"KS {ks:.4f} < 0.0061, |E[X^2] dev| {m2_dev:.4f} <= 4SE {4*m2_se:.4f}, "
            f"norm err {norm_err:.1e} <= 1e-8, {elapsed:.0f}s < 30s")
    assert ks < 0.0061
    assert m2_dev <= 4.0 * m2_se
    assert norm_err <= 1e-8
    assert elapsed < 30.0


def test_criterion_07_end_to_end_fluctuation_limit():
    start = time.time()
    details = []
    ok = True
    for sigma in (1.0, 2.0):
        params = ModelParams(n=256, sigma=sigma)
        cfg = SamplerConfig(proposal_scale=2.38, burn_in_sweeps=1000, thin_sweeps=5, seed=20260811)
        chain = init_chain(params, cfg)
        records = run(chain, 1000 + 5 * 20_000)
        assert len(records) == 20_000
        s_scaled = np.sort([rec.s_scaled for rec in records])
        mean_t = float(np.mean([rec.t_scaled for rec in records]))
        ks = ks_statistic(s_scaled, QuarticLaw(sigma).cdf)
        ok &= ks <= 0.05 and 0.9 * sigma**2 <= mean_t <= 1.1 * sigma**2
        details.append(f"sigma={sigma}: KS {ks:.4f} <= 0.05, mean t/n {mean_t:.4f} in "
                       f"[{0.9*sigma**2:.2f}, {1.1*sigma**2:.2f}]")
    elapsed = time.time() - start
    ok &= elapsed < 180.0
    _report(7, ok, "n=256 chain: S_n/n^{3/4} matches the quartic law, T_n/n concentrates",
            "; ".join(details) + f", {elapsed:.0f}s < 180s")
    assert ok


@pytest.fixture(scope="module")
def criterion_08_estimates():
    """Criterion 08's two estimates of E[(S/n^{3/4})^2] at n=50, sigma=1: the
    importance result, the MCMC mean and its batch-means error, and the
    seconds they took."""
    start = time.time()
    params = ModelParams(n=50, sigma=1.0)
    f = lambda s, t: (s / 50**0.75) ** 2
    imp = importance_estimate(f, params, draws=400_000, rng=chain_rng(31337, 0))
    cfg = SamplerConfig(proposal_scale=2.38, burn_in_sweeps=1000, thin_sweeps=2, seed=777)
    chain = init_chain(params, cfg)
    records = run(chain, 1000 + 2 * 30_000)
    vals = np.array([rec.s_scaled**2 for rec in records])
    return imp, float(vals.mean()), batch_means_stderr(vals, 40), time.time() - start


def test_criterion_08_estimator_cross_validation(criterion_08_estimates):
    imp, mcmc_mean, mcmc_se, elapsed = criterion_08_estimates
    combined = math.hypot(imp.std_error, mcmc_se)
    diff = abs(imp.estimate - mcmc_mean)
    ok = diff <= 3.0 * combined and imp.reliable and elapsed < 60.0
    _report(8, ok, "importance sampling vs MCMC estimate of E[(S/n^{3/4})^2] at n=50",
            f"IS {imp.estimate:.4f}+-{imp.std_error:.4f} (ESS {imp.ess:.0f}), "
            f"MCMC {mcmc_mean:.4f}+-{mcmc_se:.4f}, |diff| {diff:.4f} <= 3*{combined:.4f}, "
            f"{elapsed:.0f}s < 60s")
    assert diff <= 3.0 * combined
    assert imp.reliable
    assert elapsed < 60.0


def test_criterion_08_estimates_match_the_closed_form(criterion_08_estimates):
    # T_n ~ sigma^2 chi^2_n is independent of C_n = S_n / sqrt(n T_n), so with
    # B = C_n^2, E[(S_n/n^{3/4})^2] = sigma^2 sqrt(n) E[B], where
    # E[B] = 1F1(3/2; n/2 + 1; n/2) / (n 1F1(1/2; n/2; n/2)): 0.7074076010 at
    # n = 50.  Each estimate must lie within 3 of its own standard errors, a
    # 0.27 % false alarm each for a normal estimate with a known error.  The
    # importance error is itself estimated from heavy-tailed weights and
    # noisy: at these seeds the importance estimate was 0.1 of its errors off
    # and MCMC 0.8; at seeds (1, 2), (3, 4) and (5, 6) they were 0.6 and 1.1,
    # 2.4 and 0.75, and 1.7 and 0.17.
    imp, mcmc_mean, mcmc_se, _ = criterion_08_estimates
    n = 50
    exact = math.sqrt(n) * hyp1f1(1.5, n / 2 + 1, n / 2) / (n * hyp1f1(0.5, n / 2, n / 2))
    assert exact == pytest.approx(0.7074076010, abs=1e-10)
    assert abs(imp.estimate - exact) <= 3.0 * imp.std_error
    assert abs(mcmc_mean - exact) <= 3.0 * mcmc_se


def test_criterion_09_exact_scaling_metamorphic():
    start = time.time()
    cfg = SamplerConfig(seed=99, burn_in_sweeps=0, thin_sweeps=1)
    unit = init_chain(ModelParams(10, 1.0), cfg)
    doubled = init_chain(ModelParams(10, 2.0), cfg)
    worst = 0.0
    for _ in range(1000):
        run(unit, 1)
        run(doubled, 1)
        dev = np.max(np.abs(doubled.x - 2.0 * unit.x) / np.maximum(1.0, np.abs(doubled.x)))
        worst = max(worst, float(dev))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(9, ok, "chains at sigma=2 and sigma=1 with one seed are exact factor-2 copies",
            f"worst rel dev {worst:.1e} <= 1e-12 over 1000 sweeps, {elapsed:.1f}s < 5s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_10_run_determinism(tmp_path):
    flags = ["simulate", "--n", "24", "--sigma", "1.5", "--sweeps", "200", "--burn-in", "50",
             "--thin", "2", "--chains", "4", "--seed", "12345"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(flags + ["--out", str(dir_a)]) == 0
    assert main(flags + ["--out", str(dir_b)]) == 0
    bytes_a = (dir_a / "samples.csv").read_bytes()
    bytes_b = (dir_b / "samples.csv").read_bytes()
    manifest_a = json.loads((dir_a / "manifest.json").read_text())
    manifest_b = json.loads((dir_b / "manifest.json").read_text())
    same_inputs = all(manifest_a[k] == manifest_b[k] for k in ("command", "params", "sampler"))
    ok = bytes_a == bytes_b and same_inputs
    _report(10, ok, "identical manifests give byte-identical samples.csv, including --chains 4",
            f"{len(bytes_a)} bytes compared")
    assert same_inputs
    assert bytes_a == bytes_b


def test_full_verification_suite_passes(tmp_path):
    """The CLI gate: `cwsoc verify --suite all` exits 0 on defaults."""
    reports = run_suites(["all"])
    failed = [r.name for r in reports if not r.passed]
    _report(0, not failed, "cwsoc verify --suite all passes every check",
            f"{len(reports) - len(failed)}/{len(reports)} checks pass"
            + (f"; failing: {failed}" if failed else ""))
    assert not failed, f"failing checks: {failed}"
    # the rows in report order, which CI's verify step reads too; a renamed or swapped row fails
    assert [r.name for r in reports] == VERIFY_ROWS.read_text().splitlines()
