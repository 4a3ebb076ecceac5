"""Tests of the quartic limit law and the scipy.special gamma functions it is
built on, against quadrature oracles and exact identities."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma, gammainc, gammaln

from cwsoc.limit_law import QuarticLaw, normalizer
from cwsoc.model import DomainError
from cwsoc.samplers import chain_rng


def gamma_by_quadrature(z: float) -> float:
    """Adaptive quadrature of the defining integral; the in-repo gamma oracle."""
    head, _ = quad(lambda x: math.exp(-x), 0.0, 1.0, weight="alg", wvar=(z - 1.0, 0.0),
                   epsabs=1e-14, epsrel=1e-13)
    tail, _ = quad(lambda x: x ** (z - 1.0) * math.exp(-x), 1.0, np.inf,
                   epsabs=1e-14, epsrel=1e-13)
    return head + tail


class TestGammaFn:
    def test_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_factorial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_quarter_against_quadrature(self):
        assert gamma(0.25) == pytest.approx(gamma_by_quadrature(0.25), rel=1e-10)

    @pytest.mark.parametrize("z", [0.1, 0.25, 0.5, 1.5, 3.7, 10.3, 27.5, 50.0])
    def test_contract_accuracy_on_range(self, z):
        assert gamma(z) == pytest.approx(gamma_by_quadrature(z), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=40.0))
    @settings(max_examples=200)
    def test_recurrence(self, z):
        assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-12)

    def test_log_gamma_large_argument(self):
        # stays accurate far outside where gamma fits a double
        assert gammaln(199.5) == pytest.approx(math.lgamma(199.5), rel=1e-13)
        assert gammaln(1000.0) == pytest.approx(math.lgamma(1000.0), rel=1e-13)


class TestRegularizedGammaP:
    def test_zero_argument(self):
        assert gammainc(0.25, 0.0) == 0.0

    def test_saturates(self):
        assert gammainc(0.25, 60.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("x", [0.04, 0.3, 1.21, 2.9, 8.1])
    def test_half_shape_matches_erf(self, x):
        assert gammainc(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-13)

    def test_series_cf_branch_continuity(self):
        # x = a + 1 is where the classic series / continued-fraction split lies
        a = 0.25
        switch = a + 1.0
        below = gammainc(a, switch - 1e-9)
        above = gammainc(a, switch + 1e-9)
        assert abs(above - below) < 1e-9

    def test_monotone(self):
        vals = gammainc(0.25, np.linspace(0.0, 10.0, 200))
        assert np.all(np.diff(vals) >= 0.0)


class TestNormalizer:
    def test_against_quadrature(self):
        oracle, _ = quad(lambda y: math.exp(-(y**4) / 4.0), -np.inf, np.inf, epsabs=1e-12)
        assert normalizer(1.0) == pytest.approx(oracle, abs=1e-8)

    def test_sigma_scaling_exact_ratio(self):
        assert normalizer(2.0) / normalizer(1.0) == pytest.approx(2.0, rel=1e-15)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100)
    def test_homogeneity(self, sigma):
        assert normalizer(sigma) == pytest.approx(sigma * normalizer(1.0), rel=1e-14)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0, True, "1"])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            normalizer(sigma)


class TestQuarticLawSigma:
    def test_numpy_float32_sigma_stored_as_python_float(self):
        law = QuarticLaw(np.float32(1.3))
        assert type(law.sigma) is float
        assert law.cdf(0.9) == QuarticLaw(float(np.float32(1.3))).cdf(0.9)

    @pytest.mark.parametrize("sigma", [True, np.True_, "1", math.inf, math.nan, 0.0, -1.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            QuarticLaw(sigma)


class TestSigmaIsAScale:
    """QuarticLaw(sigma) at sigma x is QuarticLaw(1) at x, with the 1/sigma
    factor of the density; bit for bit where sigma is a power of two, since
    dividing by it is exact."""

    SIGMAS = [2.0**k for k in (-1000, -300, -40, -1, 1, 7, 300, 1000)]
    XS = np.concatenate([np.linspace(-6.0, 6.0, 49), [1e-3, -2.5e-7, 1e5, -1e30]])

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_density_and_cdf(self, sigma):
        unit, law = QuarticLaw(1.0), QuarticLaw(sigma)
        # where sigma x is a finite normal double or zero, x is (sigma x)/sigma exactly
        xs = np.array([x for x in self.XS.tolist() if x == 0.0 or sys.float_info.min <= abs(sigma * x) < math.inf])
        assert xs.size >= 50
        for x in xs.tolist():
            assert law.density(sigma * x) == unit.density(x) / sigma, x
            assert law.log_density(sigma * x) == unit.log_density(x) - math.log(sigma), x
        np.testing.assert_array_equal(law.cdf(sigma * xs), unit.cdf(xs))

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_quantile_and_sample(self, sigma):
        unit, law = QuarticLaw(1.0), QuarticLaw(sigma)
        ps = np.linspace(0.01, 0.99, 99)
        np.testing.assert_array_equal(law.quantile(ps), sigma * unit.quantile(ps))
        np.testing.assert_array_equal(law.sample(chain_rng(9, 0), 100), sigma * unit.sample(chain_rng(9, 0), 100))

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_even_moments(self, sigma):
        unit, law = QuarticLaw(1.0), QuarticLaw(sigma)
        for m in (1, 2, 3):
            if 2 * m * abs(math.log2(sigma)) < 1000:
                assert law.even_moment(m) == pytest.approx(sigma ** (2 * m) * unit.even_moment(m), rel=1e-12)

    def test_even_moment_past_the_double_range_is_inf(self):
        # sigma^4 E[Z^4] = 1e400 is past the double range, 1e200 is not
        assert QuarticLaw(1e100).even_moment(2) == QuarticLaw(1e100).moment(4) == math.inf
        assert QuarticLaw(1e50).even_moment(2) == pytest.approx(1e200 * QuarticLaw(1.0).even_moment(2), rel=1e-12)
        assert QuarticLaw(1.0).even_moment(10**6) == math.inf
        assert QuarticLaw(1e-300).even_moment(2) == 0.0

    @pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e100, 1e300])
    def test_extreme_sigma_stays_finite(self, sigma):
        # sigma^4 lies outside the double range
        law = QuarticLaw(sigma)
        assert law.density(0.0) == pytest.approx(1.0 / (sigma * normalizer(1.0)), rel=1e-15)
        assert law.cdf(sigma) == pytest.approx(QuarticLaw(1.0).cdf(1.0), rel=1e-15)
        assert law.quantile(0.75) == pytest.approx(sigma * QuarticLaw(1.0).quantile(0.75), rel=1e-15)
        assert law.cdf(1.0) == (1.0 if sigma < 1.0 else 0.5)


class TestQuarticLawDensity:
    def test_peak_value(self):
        law = QuarticLaw(1.0)
        assert law.density(0.0) == pytest.approx(1.0 / normalizer(1.0), rel=1e-14)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=100)
    def test_even(self, x):
        law = QuarticLaw(1.4)
        assert law.density(x) == law.density(-x)

    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.5])
    def test_total_mass_by_quadrature(self, sigma):
        law = QuarticLaw(sigma)
        mass, _ = quad(law.density, -10.0 * sigma, 10.0 * sigma, epsabs=1e-12, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_sigma_scaling_pointwise(self):
        base, scaled = QuarticLaw(1.0), QuarticLaw(1.7)
        for x in np.linspace(-4.0, 4.0, 17):
            assert scaled.density(x) == pytest.approx(base.density(x / 1.7) / 1.7, rel=1e-12)

    def test_strictly_decreasing_in_absolute_value(self):
        law = QuarticLaw(1.0)
        grid = np.linspace(0.01, 4.0, 100)
        vals = [law.density(float(x)) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert law.density(0.0) > vals[0]


class TestQuarticLawCdf:
    def test_median(self):
        assert QuarticLaw(1.0).cdf(0.0) == 0.5

    def test_limits(self):
        law = QuarticLaw(1.0)
        assert law.cdf(50.0) == pytest.approx(1.0, abs=1e-15)
        assert law.cdf(-50.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_quadrature_at_20_points(self):
        law = QuarticLaw(1.3)
        for x in np.linspace(-3.5, 3.5, 20):
            oracle, _ = quad(law.density, -15.0, float(x), epsabs=1e-11, limit=300)
            assert law.cdf(float(x)) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("x", [-2.0, -2.5, -3.0, -3.5, -4.0, -4.5, -5.0])
    def test_lower_tail_to_relative_precision(self, x):
        # 1/2 - P/2 cancels here: it gave 0 at x = -4
        unit = QuarticLaw(1.0)
        oracle, _ = quad(unit.density, -np.inf, x, epsabs=0.0, epsrel=1e-13, limit=200)
        assert unit.cdf(x) == pytest.approx(oracle, rel=1e-10, abs=0.0)

    def test_monotone(self):
        law = QuarticLaw(0.8)
        xs = np.linspace(-4.0, 4.0, 400)
        vals = [law.cdf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_sigma_scaling(self):
        base, scaled = QuarticLaw(1.0), QuarticLaw(2.0)
        for x in np.linspace(-5.0, 5.0, 11):
            assert scaled.cdf(x) == pytest.approx(base.cdf(x / 2.0), rel=1e-13, abs=1e-15)

    def test_array_equals_elementwise_scalar_calls(self):
        law = QuarticLaw(1.3)
        xs = np.linspace(-6.0, 6.0, 240).reshape(12, 20)
        expected = np.array([law.cdf(float(x)) for x in xs.ravel()]).reshape(xs.shape)
        np.testing.assert_array_equal(law.cdf(xs), expected)


class TestQuarticLawQuantile:
    def test_median(self):
        assert QuarticLaw(1.0).quantile(0.5) == 0.0

    def test_round_trip(self):
        law = QuarticLaw(1.0)
        for x in np.linspace(-2.5, 2.5, 13):
            if x == 0.0:
                continue
            assert law.quantile(law.cdf(float(x))) == pytest.approx(float(x), abs=1e-8)

    @pytest.mark.parametrize("x", [-3.0, -3.5, -4.0, -6.0])
    def test_round_trip_in_the_far_lower_tail(self, x):
        # cdf(-3.5) is 4.5e-19, which 1 - p cannot resolve
        law = QuarticLaw(1.0)
        assert law.quantile(law.cdf(x)) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("p", [0.01, 0.2, 0.37, 0.49])
    def test_symmetry(self, p):
        law = QuarticLaw(1.0)
        assert law.quantile(1.0 - p) == -law.quantile(p)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, np.array([0.2, 0.5, 1.0])])
    def test_domain_errors(self, p):
        with pytest.raises(DomainError):
            QuarticLaw(1.0).quantile(p)

    def test_sigma_scaling(self):
        base, scaled = QuarticLaw(1.0), QuarticLaw(3.0)
        for p in (0.1, 0.35, 0.8, 0.99):
            assert scaled.quantile(p) == pytest.approx(3.0 * base.quantile(p), rel=1e-9, abs=1e-12)

    def test_array_equals_elementwise_scalar_calls(self):
        law = QuarticLaw(1.3)
        ps = np.concatenate([[1e-12, 0.5, 1.0 - 1e-12], np.linspace(0.001, 0.999, 200)])
        np.testing.assert_array_equal(law.quantile(ps), [law.quantile(float(p)) for p in ps])


class ZeroGammaRng:
    """Gamma variates of exactly 0, which a real generator draws with
    probability zero, and a fixed uniform for the signs."""

    def __init__(self, uniform):
        self.uniform = uniform

    def gamma(self, shape, size=None):
        return 0.0 if size is None else np.zeros(size)

    def random(self, size=None):
        return self.uniform if size is None else np.full(size, self.uniform)


class TestQuarticLawSampler:
    def test_zero_gamma_maps_to_zero(self):
        law = QuarticLaw(2.0)
        for uniform in (0.25, 0.75):  # negative, positive sign
            assert law.sample(ZeroGammaRng(uniform)) == 0.0
            np.testing.assert_array_equal(law.sample(ZeroGammaRng(uniform), size=3), np.zeros(3))

    @pytest.mark.parametrize("sigma", [1.0, 1.3])
    def test_scalar_draw_is_the_size_one_draw(self, sigma):
        law = QuarticLaw(sigma)
        for seed in range(200):
            scalar_rng, block_rng = chain_rng(seed, 0), chain_rng(seed, 0)
            x = law.sample(scalar_rng)
            (y,) = law.sample(block_rng, size=1)
            assert np.ndim(x) == 0 and float(x).hex() == float(y).hex(), seed
            assert scalar_rng.random() == block_rng.random()  # same stream position afterwards

    def test_ks_against_own_cdf(self):
        law = QuarticLaw(1.0)
        draws = np.sort(law.sample(chain_rng(424242, 0), size=100_000))
        from cwsoc.verification import ks_statistic

        assert ks_statistic(draws, law.cdf) < 1.36 / math.sqrt(100_000)

    def test_sign_balance(self):
        draws = QuarticLaw(1.0).sample(chain_rng(11, 0), size=100_000)
        frac = np.mean(draws > 0)
        assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)

    def test_moments_within_four_stderr(self):
        law = QuarticLaw(1.0)
        draws = law.sample(chain_rng(3131, 0), size=100_000)
        for m in (1, 2):
            emp = np.mean(draws ** (2 * m))
            se = np.std(draws ** (2 * m), ddof=1) / math.sqrt(draws.size)
            assert abs(emp - law.even_moment(m)) < 4.0 * se

    def test_reproducible(self):
        law = QuarticLaw(1.0)
        a = law.sample(chain_rng(5, 0), size=100)
        b = law.sample(chain_rng(5, 0), size=100)
        assert np.array_equal(a, b)


class TestMoments:
    def test_second_moment_closed_form(self):
        law = QuarticLaw(1.0)
        assert law.even_moment(1) == pytest.approx(2.0 * gamma(0.75) / gamma(0.25), rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_even_moments_against_quadrature(self, m):
        law = QuarticLaw(1.2)
        oracle, _ = quad(lambda x: x ** (2 * m) * law.density(x), -12.0, 12.0,
                         epsabs=1e-12, limit=300)
        assert law.even_moment(m) == pytest.approx(oracle, rel=1e-6)

    def test_second_moment_against_quadrature_tight(self):
        law = QuarticLaw(1.0)
        oracle, _ = quad(lambda x: x * x * law.density(x), -10.0, 10.0, epsabs=1e-12, limit=300)
        assert law.even_moment(1) == pytest.approx(oracle, abs=1e-8)

    def test_odd_moments_vanish_exactly(self):
        law = QuarticLaw(2.0)
        assert law.moment(1) == 0.0
        assert law.moment(7) == 0.0
        assert law.moment(4) == law.even_moment(2)

    def test_numpy_integer_orders_accepted_bool_rejected(self):
        law = QuarticLaw(1.3)
        assert law.even_moment(np.int64(2)) == law.even_moment(2)
        assert law.moment(np.int64(4)) == law.moment(np.int32(4)) == law.even_moment(2)
        assert law.moment(np.int64(3)) == 0.0
        for call in (law.even_moment, law.moment):
            with pytest.raises(DomainError):
                call(True)
            with pytest.raises(DomainError):
                call(2.0)
