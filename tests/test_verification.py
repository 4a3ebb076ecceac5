"""Tests for the complex-analytic checks, Fourier inversion and Laplace analysis."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cwsoc.limit_law import QuarticLaw
from cwsoc.model import DomainError, SupportError, UnsupportedOrderError
from cwsoc.verification import (
    CheckReport,
    NormalizationBoundError,
    char_fn,
    complex_gaussian_integral,
    complex_pow,
    density_closed_form,
    estimate_C_n,
    gamma_law_cf,
    invert_char_fn,
    inversion_probe_points,
    ks_statistic,
    laplace_ratio,
    log_C_n_by_raw_quadrature,
    principal_log,
    psi_expansion_check,
    psi_grid_min_outside_box,
    psi_quadratic_expansion,
    psi_quadratic_lower_bound_margin,
    run_suites,
)
from cwsoc.verification import TOLERANCES, _TWO_PI, _inner_cos_integral, _qawf, suite_density

off_cut_complex = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
).filter(lambda z: not (z.imag == 0.0 and z.real <= 0.0) and abs(z) > 1e-6)


class TestPrincipalLog:
    def test_unity(self):
        assert principal_log(1.0 + 0.0j) == 0.0

    def test_unit_imaginary(self):
        assert principal_log(1j) == pytest.approx(0.5j * math.pi, abs=1e-15)

    def test_specific_value_against_atan2(self):
        expected = complex(0.5 * math.log(5.0), math.atan2(-2.0, 1.0))
        assert principal_log(1.0 - 2.0j) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("z", [0.0 + 0.0j, -1.0 + 0.0j, -0.3 + 0.0j])
    def test_branch_cut_rejected(self, z):
        with pytest.raises(DomainError):
            principal_log(z)

    @given(off_cut_complex)
    @settings(max_examples=500)
    def test_agrees_with_polar_oracle(self, z):
        assert abs(principal_log(z) - cmath.log(z)) < 1e-13


class TestComplexPow:
    def test_exponent_one(self):
        z = 2.7 - 1.1j
        assert complex_pow(z, 1.0) == pytest.approx(z, abs=1e-14)

    def test_exponent_zero(self):
        assert complex_pow(0.3 + 9.0j, 0.0) == 1.0

    def test_polar_form_hand_derivation(self):
        expected = 2.0 ** -0.25 * cmath.exp(-1j * math.pi / 8.0)
        assert complex_pow(1.0 + 1.0j, -0.5) == pytest.approx(expected, abs=1e-14)

    @given(off_cut_complex, st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=200)
    def test_agrees_with_builtin_power(self, z, a):
        assert complex_pow(z, a) == pytest.approx(z**a, rel=1e-11, abs=1e-12)


class TestComplexGaussianIntegral:
    def test_standard_gaussian(self):
        assert complex_gaussian_integral(0.0, 1.0 + 0.0j) == pytest.approx(
            math.sqrt(2.0 * math.pi), abs=1e-14
        )

    def test_real_characteristic_function(self):
        expected = math.sqrt(2.0 * math.pi) * math.exp(-0.5)
        assert complex_gaussian_integral(1.0, 1.0 + 0.0j) == pytest.approx(expected, abs=1e-14)

    def test_oscillatory_case_against_quadrature(self):
        def f(x):
            return cmath.exp(-0.5 * (1.0 + 2.0j) * x * x)

        re, _ = quad(lambda x: f(x).real, -12, 12, epsabs=1e-12, limit=300)
        im, _ = quad(lambda x: f(x).imag, -12, 12, epsabs=1e-12, limit=300)
        assert complex_gaussian_integral(0.0, 1.0 + 2.0j) == pytest.approx(
            complex(re, im), abs=1e-8
        )

    @pytest.mark.parametrize("zeta", [0.0 + 1.0j, -1.0 + 0.5j])
    def test_nonpositive_real_part_rejected(self, zeta):
        with pytest.raises(DomainError):
            complex_gaussian_integral(1.0, zeta)


class TestGammaLawCf:
    def test_at_zero(self):
        assert gamma_law_cf(0.0, 3.1, 0.7) == 1.0

    def test_exponential_special_case(self):
        for u in (-2.0, 0.3, 5.0):
            assert gamma_law_cf(u, 1.0, 2.0) == pytest.approx(1.0 / (1.0 - 2.0j * u), abs=1e-14)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_modulus_identity(self, u, k, theta):
        expected = (1.0 + theta**2 * u**2) ** (-k / 2.0)
        assert abs(gamma_law_cf(u, k, theta)) == pytest.approx(expected, rel=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            gamma_law_cf(1.0, 0.0, 1.0)


class TestCharFn:
    def test_at_origin(self):
        assert char_fn(0.0, 0.0, 9) == 1.0

    def test_gaussian_marginal(self):
        for u, n in ((0.5, 3), (1.5, 7)):
            assert char_fn(u, 0.0, n) == pytest.approx(math.exp(-0.5 * n * u * u), abs=1e-14)

    def test_hand_computed_value(self):
        assert char_fn(0.0, 0.5, 2) == pytest.approx(0.5 + 0.5j, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_power_consistency(self, n):
        u, v = 0.7, -0.4
        product = complex(1.0)
        for _ in range(n):
            product *= char_fn(u, v, 1)
        assert char_fn(u, v, n) == pytest.approx(product, abs=1e-10)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200)
    def test_modulus_identity(self, u, v, n):
        expected = math.exp(-n * u * u / (2.0 * (1.0 + 4.0 * v * v))) * (
            1.0 + 4.0 * v * v
        ) ** (-n / 4.0)
        assert abs(char_fn(u, v, n)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("v, n", [(0.0, 5), (0.3, 6), (-2.5, 8), (37.25, 16)])
    def test_array_equals_elementwise_scalar_calls(self, v, n):
        us = np.concatenate([[0.0, -1.7, 1e-3], np.linspace(0.0, 12.0, 97)])
        phi = char_fn(us, v, n)
        scalars = [char_fn(float(u), v, n) for u in us]
        assert all(type(c) is complex for c in scalars)
        assert phi.shape == us.shape
        assert [c.hex() for c in phi.real] == [c.real.hex() for c in scalars]
        assert [c.hex() for c in phi.imag] == [c.imag.hex() for c in scalars]


class TestClosedFormDensity:
    def test_hand_evaluated_point(self):
        assert density_closed_form(0.0, 5.0, 5) == pytest.approx(
            5.0 * math.exp(-2.5) / math.sqrt(160.0 * math.pi), rel=1e-13
        )

    def test_zero_outside_support(self):
        assert density_closed_form(4.0, 1.0, 5) == 0.0
        assert density_closed_form(0.0, -1.0, 5) == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            density_closed_form(0.0, 4.0, 4)


class TestInversion:
    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_matches_closed_form_at_mode_line(self, n):
        for x, y in ((0.0, float(n)), (0.4 * math.sqrt(n * n), float(n))):
            inv = invert_char_fn(x, y, n, tol=1e-4).value
            assert inv == pytest.approx(density_closed_form(x, y, n), abs=1e-3)

    def test_outside_support_near_zero(self):
        x, y = 1.5 * math.sqrt(5 * 4.0), 4.0  # x^2 = 45 > 20 = n*y
        assert abs(invert_char_fn(x, y, 5, tol=1e-4).value) <= 1e-3

    def test_error_bound_reported(self):
        res = invert_char_fn(0.0, 5.0, 5, tol=1e-4)
        assert 0.0 < res.error_bound <= 1e-4

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            invert_char_fn(0.0, 4.0, 4, tol=1e-4)

    def test_unreachable_tolerance_fails_loudly(self):
        from cwsoc.verification import InversionAccuracyError

        with pytest.raises((InversionAccuracyError, DomainError)):
            invert_char_fn(0.0, 5.0, 5, tol=1e-18)


def oracle_inversion(x, y, n, tol):
    """Reference Fourier inversion that integrates both halves of the v axis.

    h_neg is built from _inner_cos_integral at -v, not from the conjugate of
    h_pos, and the eight QAWF passes (four plain quad passes when y == x^2/n)
    are summed as complex numbers.  Returns the complex density, whose
    imaginary part the conjugate symmetry makes zero.  Argument checks and
    the error bound are left out: they do not touch the value.
    """
    c = x * x / n
    w = y - c

    @functools.cache
    def h_pos(v):
        return cmath.exp(complex(0.0, -c * v)) * _inner_cos_integral(x, v, n)

    @functools.cache
    def h_neg(v):
        return cmath.exp(complex(0.0, c * v)) * _inner_cos_integral(x, -v, n)

    eps_component = tol / 12.0
    if w == 0.0:
        parts = []
        for h in (h_pos, h_neg):
            for comp in (lambda v, h=h: h(v).real, lambda v, h=h: h(v).imag):
                parts.append(quad(comp, 0.0, np.inf, epsabs=eps_component, limit=300, full_output=1)[0])
        total = complex(parts[0] + parts[2], parts[1] + parts[3])
    else:
        omega = abs(w)
        cos_pos_re = _qawf(lambda v: h_pos(v).real, omega, "cos", eps_component)[0]
        cos_pos_im = _qawf(lambda v: h_pos(v).imag, omega, "cos", eps_component)[0]
        cos_neg_re = _qawf(lambda v: h_neg(v).real, omega, "cos", eps_component)[0]
        cos_neg_im = _qawf(lambda v: h_neg(v).imag, omega, "cos", eps_component)[0]
        sin_pos_re = _qawf(lambda v: h_pos(v).real, omega, "sin", eps_component)[0]
        sin_pos_im = _qawf(lambda v: h_pos(v).imag, omega, "sin", eps_component)[0]
        sin_neg_re = _qawf(lambda v: h_neg(v).real, omega, "sin", eps_component)[0]
        sin_neg_im = _qawf(lambda v: h_neg(v).imag, omega, "sin", eps_component)[0]
        cos_part = complex(cos_pos_re + cos_neg_re, cos_pos_im + cos_neg_im)
        sin_part = complex(sin_pos_re - sin_neg_re, sin_pos_im - sin_neg_im)
        total = cos_part - 1j * math.copysign(1.0, w) * sin_part
    total *= 1.0 / (_TWO_PI * _TWO_PI)
    return total


class TestInversionMatchesTwoHalfOracle:
    @pytest.mark.parametrize(
        "x, y, n",
        [
            (*inversion_probe_points(5)[1], 5),
            (*inversion_probe_points(5)[8], 5),
            (*inversion_probe_points(8)[3], 8),
            (*inversion_probe_points(8)[11], 8),
            (1.5 * math.sqrt(5 * 4.0), 4.0, 5),  # outside the support
            (3.0, 3.0 * 3.0 / 5, 5),  # on the support boundary: y == x^2/n, no oscillation left
        ],
    )
    def test_value_bit_equal_and_oracle_imaginary_part_zero(self, x, y, n):
        res = invert_char_fn(x, y, n, tol=1e-4)
        reference = oracle_inversion(x, y, n, tol=1e-4)
        assert res.value.hex() == reference.real.hex()
        assert reference.imag == 0.0

    @pytest.mark.parametrize("n", [5, 6, 8, 16])
    def test_negative_v_is_conjugate_mirror(self, n):
        for x in (0.0, 0.37, 2.9, 11.0):
            for v in np.concatenate([np.geomspace(1e-4, 1e3, 15), [0.5, 2.0, 37.25]]).tolist():
                direct = _inner_cos_integral(x, v, n)
                mirrored = _inner_cos_integral(x, -v, n)
                assert mirrored == direct.conjugate(), (x, v)
                c = x * x / n
                h_pos = cmath.exp(complex(0.0, -c * v)) * direct
                h_neg = cmath.exp(complex(0.0, c * v)) * mirrored
                assert h_neg == h_pos.conjugate(), (x, v)

    def test_report_check_fails_when_the_mirror_breaks(self, monkeypatch):
        # one ulp off at negative v only, which the v >= 0 inversion never asks
        # for; the unpatched check passes in test_acceptance's full run
        def skewed(x, v, n):
            value = _inner_cos_integral(x, v, n)
            return complex(np.nextafter(value.real, math.inf), value.imag) if v < 0.0 else value

        monkeypatch.setattr("cwsoc.verification._inner_cos_integral", skewed)
        (report,) = [r for r in suite_density((5,), TOLERANCES) if "conjugate_mirror" in r.name]
        assert report.name == "density/inversion_conjugate_mirror[n=5]"
        assert report.tolerance == 0.0 and report.value > 0.0
        assert not report.passed


class TestNormalization:
    def test_identity_between_constants_holds_by_construction(self):
        from scipy.special import gammaln

        est = estimate_C_n(7)
        reconstructed = (
            est.log_C_n
            - 0.5 * (7 * math.log(2.0) + math.log(math.pi * 7))
            - gammaln(3.0)
        )
        assert est.log_Z_n == reconstructed

    @pytest.mark.parametrize("n", [5, 9, 17, 30])
    def test_convexity_bound(self, n):
        est = estimate_C_n(n)
        assert 0.0 <= est.log_Z_n <= n / 2.0

    def test_cross_route_at_n5(self):
        est = estimate_C_n(5)
        raw = log_C_n_by_raw_quadrature(5)
        assert math.exp(est.log_C_n) == pytest.approx(math.exp(raw), rel=1e-6)

    def test_error_bound_populated(self):
        est = estimate_C_n(6)
        assert 0.0 < est.quadrature_error_bound < 1e-4

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            estimate_C_n(4)


class TestLaplaceRatio:
    def test_moderate_n_near_one(self):
        assert abs(laplace_ratio(100) - 1.0) < 0.15

    def test_converges_towards_one(self):
        r100, r400 = laplace_ratio(100), laplace_ratio(400)
        assert abs(r400 - 1.0) < 0.08
        assert abs(r400 - 1.0) < abs(r100 - 1.0)


class TestPsiGeometry:
    def test_expansion_finite_differences(self):
        (g_x, g_y), (h_xx, h_yy, h_xy) = psi_quadratic_expansion(1e-4)
        assert abs(g_x) <= 1e-6 and abs(g_y) <= 1e-6
        assert h_xx == pytest.approx(0.5, abs=1e-4)
        assert h_yy == pytest.approx(0.5, abs=1e-4)
        assert h_xy == pytest.approx(0.0, abs=1e-4)

    def test_expansion_check_report_passes(self):
        report = psi_expansion_check(1e-4)
        assert report.passed
        assert "hess" in report.details

    def test_step_validation(self):
        with pytest.raises(DomainError):
            psi_expansion_check(0.5)

    def test_grid_minimum_outside_small_box(self):
        assert psi_grid_min_outside_box() > 0.5

    def test_quadratic_lower_bound_on_calibrated_box(self):
        assert psi_quadratic_lower_bound_margin() >= 0.0


class TestKsStatistic:
    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], QuarticLaw(1.0).cdf) == 0.5

    def test_against_brute_force_oracle(self):
        law = QuarticLaw(1.0)
        n = 40
        samples = np.sort([law.quantile((i + 1) / (n + 1)) for i in range(n)])

        def brute_force(xs, cdf):
            xs = list(xs)
            worst = 0.0
            for i, x in enumerate(xs):
                f = cdf(x)
                ecdf_right = sum(1 for v in xs if v <= x) / len(xs)
                ecdf_left = sum(1 for v in xs if v < x) / len(xs)
                worst = max(worst, abs(ecdf_right - f), abs(f - ecdf_left))
            return worst

        fast = ks_statistic(samples, law.cdf)
        slow = brute_force(samples, law.cdf)
        assert fast == pytest.approx(slow, abs=1e-14)
        assert fast <= 1.0 / (n + 1) + 1e-12

    def test_invariant_under_increasing_reparameterization(self):
        law = QuarticLaw(1.0)
        rng = np.random.default_rng(8)
        samples = np.sort(law.sample(rng, size=500))
        base = ks_statistic(samples, law.cdf)
        transform = lambda x: x**3 + 2.0 * x  # strictly increasing
        inverse_cdf = np.vectorize(lambda y: law.cdf(_invert_monotone(transform, y)))
        mapped = ks_statistic(np.sort(transform(samples)), inverse_cdf)
        assert mapped == pytest.approx(base, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_statistic([], QuarticLaw(1.0).cdf)

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            ks_statistic([1.0, 0.0], QuarticLaw(1.0).cdf)

    def test_cdf_of_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            ks_statistic([-1.0, 0.0, 1.0], lambda xs: 0.5)


def _invert_monotone(f, y, lo=-50.0, hi=50.0):
    from scipy.optimize import brentq

    return brentq(lambda x: f(x) - y, lo, hi, xtol=1e-13)


class TestCheckReport:
    def test_pass_iff_within_tolerance(self):
        from cwsoc.verification import _abs_check, _rel_check

        assert _abs_check("a", 1.0005, 1.0, 1e-3).passed
        assert not _abs_check("a", 1.002, 1.0, 1e-3).passed
        assert _rel_check("r", 110.0, 100.0, 0.2).passed
        assert not _rel_check("r", 130.0, 100.0, 0.2).passed

    def test_json_schema_uses_pass_key(self):
        report = CheckReport("x", 1.0, 1.0, 0.1, True, "absolute")
        d = report.to_json_dict()
        assert set(d) == {"name", "value", "expected", "tolerance", "pass", "details"}
        assert d["pass"] is True


class TestSuites:
    def test_complex_suite_all_pass(self):
        reports = run_suites(["complex"])
        assert reports, "complex suite must emit reports"
        failed = [r.name for r in reports if not r.passed]
        assert not failed, f"failing checks: {failed}"

    def test_reports_sorted_by_name(self):
        reports = run_suites(["complex"])
        names = [r.name for r in reports]
        assert names == sorted(names)

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suites(["bogus"])

    def test_plain_string_suite_name_accepted(self):
        assert run_suites("complex") == run_suites(["complex"])

    def test_unknown_tolerance_knob_rejected(self):
        with pytest.raises(DomainError):
            run_suites(["complex"], tol_overrides={"nope": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_meaningless_tolerance_value_rejected(self, value):
        with pytest.raises(DomainError, match="ratio_tol_400"):
            run_suites(["laplace"], tol_overrides={"ratio_tol_400": value})

    @pytest.mark.parametrize("n_list", [[3, 4], [3, 6]])
    def test_n_list_below_5_rejected(self, n_list):
        with pytest.raises(DomainError, match="at least 5, got \\[3"):
            run_suites(["density"], n_list=n_list)

    def test_repeated_n_list_order_rejected(self):
        with pytest.raises(DomainError, match="distinct, got \\[5\\]"):
            run_suites(["density"], n_list=[5, 6, 5])

    def test_laplace_suite_respects_n_list(self):
        reports = run_suites(["laplace"], n_list=[5, 6])
        bound_checks = [r for r in reports if "normalization_bound" in r.name]
        assert len(bound_checks) == 2
        assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
