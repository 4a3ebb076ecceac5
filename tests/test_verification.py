"""Tests for the complex-analytic checks, Fourier inversion and Laplace analysis."""

import cmath
import ctypes
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, hyp1f1, logsumexp

import cwsoc
from cwsoc._native import kernel
from cwsoc.cli import main
from cwsoc.limit_law import QuarticLaw
from cwsoc.model import (
    DomainError, ModelParams, SupportError, UnsupportedOrderError, log_joint_density_unnormalized, psi_unchecked,
)
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
from cwsoc.verification import (
    BOUND_GRID_M,
    BOX_DELTA,
    C_N_NODES,
    DELTA_STAR,
    FIRST_CYCLE_PANELS,
    GRID_M,
    GRID_X_MAX,
    GRID_Y_MAX,
    LAPLACE_ORDERS,
    LAPLACE_RATIO_NODES,
    PANEL_NODES,
    PANEL_PHASE,
    Q_WIDTHS,
    TOLERANCES,
    _GAUSS_INTEGRAL_GRID_T,
    _GAUSS_INTEGRAL_GRID_ZETA,
    _GAUSS_INTEGRAL_POINTS,
    _TWO_PI,
    InversionAccuracyError,
    _OuterIntegrand,
    _closed_form_mass,
    _gauss_legendre,
    _gaussian_integral_by_quadrature,
    _inner_cos_integral,
    _log_rescaled_mass,
    _min_over_row_blocks,
    _qawf,
    _rescaled_cutoffs,
    _rescaled_log_terms,
    _support_dblquad,
    suite_complex,
    suite_density,
)

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


# The v of the tests that tie char_fn to its two named oracles.
NAMED_ORACLE_V = (-50.0, -7.5, -1.3, -0.2, 0.0, 0.1, 0.9, 3.0, 40.0)


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

    def test_compiled_log_inverts_one_minus_2iv(self):
        # Phi_2(0, v) = exp(-Log(1 - 2iv)) = 1/(1 - 2iv), through the compiled
        # Log that the inversion integrates, which is principal_log's bit for bit
        vs = np.geomspace(1e-8, 1e12, 401).tolist()
        for v in (0.0, *vs, *(-v for v in vs)):
            assert abs(char_fn(0.0, v, 2) * complex(1.0, -2.0 * v) - 1.0) <= 1e-14, v
            assert char_fn(0.0, v, 2) == complex(np.exp(-principal_log(complex(1.0, -2.0 * v)))), v

    @pytest.mark.parametrize("v, n", [(0.0, 5), (0.3, 6), (-2.5, 8), (37.25, 16)])
    def test_array_equals_elementwise_scalar_calls(self, v, n):
        us = np.concatenate([[0.0, -1.7, 1e-3], np.linspace(0.0, 12.0, 97)])
        phi = char_fn(us, v, n)
        scalars = [char_fn(float(u), v, n) for u in us]
        assert all(type(c) is complex for c in scalars)
        assert phi.shape == us.shape
        assert [c.hex() for c in phi.real] == [c.real.hex() for c in scalars]
        assert [c.hex() for c in phi.imag] == [c.imag.hex() for c in scalars]

    @pytest.mark.parametrize("v", NAMED_ORACLE_V)
    def test_phi_1_is_the_gaussian_integral_over_the_normal_density(self, v):
        """Phi_1(u, v) = E exp(iux + ivx^2), x ~ N(0, 1), is the closed-form
        Gaussian-Fourier integral of exp(iux - (1 - 2iv) x^2/2) over sqrt(2 pi):
        an independent route to char_fn."""
        us = np.linspace(-6.0, 6.0, 49)
        expected = [complex_gaussian_integral(u, complex(1.0, -2.0 * v)) / math.sqrt(_TWO_PI) for u in us]
        assert np.max(np.abs(char_fn(us, v, 1) - expected)) <= 1e-15

    @pytest.mark.parametrize("v", NAMED_ORACLE_V)
    def test_phi_n_at_u_0_is_the_chi_square_cf(self, v):
        """Phi_n(0, v) = (1 - 2iv)^{-n/2}, the characteristic function of
        chi^2_n = Gamma(n/2, 2), is gamma_law_cf's value bit for bit.  This is
        shared arithmetic, not an independent route: both sides take the C
        library's clog of 1 - 2iv and then exp."""
        for n in range(1, 31):
            phi, expected = char_fn(0.0, v, n), gamma_law_cf(v, n / 2, 2.0)
            assert (phi.real.hex(), phi.imag.hex()) == (expected.real.hex(), expected.imag.hex()), n


def python_log_density(x, y, n):
    """Reference oracle of the compiled closed-form density: the formula of its
    logarithm in Python, in the operation order the compiled one keeps."""
    gap = y - x * x / n
    if gap <= 0.0:
        return -math.inf
    return (
        -0.5 * y
        + 0.5 * (n - 3) * math.log(gap)
        - 0.5 * (n * math.log(2.0) + math.log(math.pi * n))
        - float(gammaln(0.5 * (n - 1)))
    )


def recording_low_level_callables(monkeypatch, call):
    """Replaces verification's scipy.LowLevelCallable by Python functions that
    evaluate the same compiled function, through call(func, args, data), so
    that QUADPACK visits the same points; returns the list in which every
    (function name, args) asked for is recorded."""
    visited = []

    def recording(func, data):
        def f(*args):
            visited.append((func.__name__, args))
            return call(func, args, data)

        return f

    monkeypatch.setattr("cwsoc.verification.LowLevelCallable", recording)
    return visited



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

    # the model's density and the inversion reject these too; the kernel alone
    # would return nan for nan or y = +inf, and 0 for an infinite x
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_point_rejected(self, bad, where):
        x, y = (bad, 5.0) if where == "x" else (0.0, bad)
        with pytest.raises(DomainError, match="finite"):
            density_closed_form(x, y, 6)

    @pytest.mark.parametrize("n", [5, 6, 8, 13, 64, 1000])
    def test_compiled_density_keeps_the_python_bits(self, n):
        edge = math.sqrt(n * 2.0)  # x^2 = n y at y = 2
        points = [(0.0, 5.0), (edge, 2.0), (-edge, 2.0), (4.0, -1.0), (0.0, 0.0), (1e-300, 1e-300)]
        xs, ys = np.linspace(-3.0 * n, 3.0 * n, 23).tolist(), np.geomspace(0.01, 5.0 * n, 29).tolist()
        points += [(x, y) for x in xs for y in ys]
        for x, y in points:
            expected = python_log_density(x, y, n)
            assert density_closed_form(x, y, n) == (0.0 if expected == -math.inf else math.exp(expected)), (x, y)

    def test_every_point_the_mass_quadrature_visits(self, monkeypatch):
        mass = _closed_form_mass(6)
        visited = recording_low_level_callables(
            monkeypatch, lambda func, args, data: func(2, (ctypes.c_double * 2)(*args), data)
        )
        assert _closed_form_mass(6).hex() == mass.hex()
        assert len(visited) > 10000 and {name for name, _ in visited} == {"cw_density"}
        for _, (y, x) in visited:
            expected = python_log_density(x, y, 6)
            assert density_closed_form(x, y, 6) == (0.0 if expected == -math.inf else math.exp(expected)), (x, y)


GAUSS_INTEGRAL_GRID = [(t, zeta) for t in _GAUSS_INTEGRAL_GRID_T for zeta in _GAUSS_INTEGRAL_GRID_ZETA]


class TestGaussianIntegralOracle:
    """The trapezoid sum of _gaussian_integral_by_quadrature at each point of
    the report's grid against QUADPACK on the cmath expression of its
    integrand, its oracle, against itself at twice the points, and against
    the closed form as the report row takes it."""

    @pytest.mark.parametrize("zeta", _GAUSS_INTEGRAL_GRID_ZETA)
    @pytest.mark.parametrize("t", _GAUSS_INTEGRAL_GRID_T)
    def test_trapezoid_sum_on_the_report_grid(self, monkeypatch, t, zeta):
        value = _gaussian_integral_by_quadrature(t, zeta)
        cutoff = max(12.0, math.sqrt(60.0 / zeta.real))

        def integrand(x):
            return cmath.exp(1j * t * x - 0.5 * zeta * x * x)

        # QUADPACK's default epsrel (1.49e-8) ends the subdivision up to 6.1e-10
        # away; with epsrel=1e-12 it comes within 7.1e-16 of the sum
        re, _ = quad(lambda x: integrand(x).real, -cutoff, cutoff, epsabs=1e-12, epsrel=1e-12, limit=400)
        im, _ = quad(lambda x: integrand(x).imag, -cutoff, cutoff, epsabs=1e-12, epsrel=1e-12, limit=400)
        assert abs(value - complex(re, im)) <= 1e-12
        assert abs(complex_gaussian_integral(t, zeta) - value) <= 1e-14
        monkeypatch.setattr("cwsoc.verification._GAUSS_INTEGRAL_POINTS", 2 * _GAUSS_INTEGRAL_POINTS)
        assert abs(_gaussian_integral_by_quadrature(t, zeta) - value) <= 1e-14

    def test_report_rows_fail_for_a_closed_form_off_by_1e_9(self, monkeypatch):
        # the rows read at most 2.7e-15 unpatched; the default tolerance must
        # see an error far below the 1e-8 it once had
        def off(t, zeta):
            return complex_gaussian_integral(t, zeta) + 1e-9

        monkeypatch.setattr("cwsoc.verification.complex_gaussian_integral", off)
        rows = [r for r in suite_complex(TOLERANCES) if r.name.startswith("complex/gaussian_integral[")]
        assert len(rows) == len(GAUSS_INTEGRAL_GRID) == 12
        assert [r.passed for r in rows] == [False] * 12


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_point_rejected_before_any_quadrature(self, monkeypatch, axis, bad):
        # QUADPACK's Fourier transform crashes the interpreter on these
        def unused(*args):
            raise AssertionError("no outer integrand may be built")

        monkeypatch.setattr("cwsoc.verification._OuterIntegrand", unused)
        point = {"x": 1.0, "y": 5.0, axis: bad}
        with pytest.raises(DomainError, match="finite point"):
            invert_char_fn(point["x"], point["y"], 5, tol=1e-3)

    def test_unreachable_tolerance_fails_loudly(self):
        from cwsoc.verification import InversionAccuracyError

        with pytest.raises((InversionAccuracyError, DomainError)):
            invert_char_fn(0.0, 5.0, 5, tol=1e-18)


def oracle_inversion(x, y, n, tol):
    """Reference Fourier inversion that integrates both halves of the v axis.

    h_neg is built from _inner_cos_integral at -v, not from the conjugate of
    h_pos, and the eight QAWF passes are summed as complex numbers.  When
    y == x^2/n it runs four plain quad passes instead, the oracle of QAWF at
    frequency 0, which invert_char_fn runs there.  Returns the complex
    density, whose imaginary part the conjugate symmetry makes zero.
    Argument checks and the error bound are left out: they do not touch the
    value.
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
            (7.5, 7.5 * 7.5 / 6, 6),
        ],
    )
    def test_value_bit_equal_and_oracle_imaginary_part_zero(self, x, y, n):
        res = invert_char_fn(x, y, n, tol=1e-4)
        reference = oracle_inversion(x, y, n, tol=1e-4)
        assert res.value.hex() == reference.real.hex()
        assert reference.imag == 0.0

    @pytest.mark.parametrize("n", [5, 6, 8, 16])
    def test_negative_v_is_conjugate_mirror(self, n):
        us = np.linspace(0.0, 12.0, 97)
        for v in np.concatenate([np.geomspace(1e-4, 1e3, 15), [0.5, 2.0, 37.25]]).tolist():
            phi, mirrored = char_fn(us, v, n), char_fn(us, -v, n)
            assert np.array_equal(mirrored.real, phi.real) and np.array_equal(mirrored.imag, -phi.imag), v
        for x in (0.0, 0.37, 2.9, 11.0):
            with _OuterIntegrand(x, n) as h:
                for v in np.concatenate([np.geomspace(1e-4, 1e3, 15), [0.5, 2.0, 37.25]]).tolist():
                    direct = _inner_cos_integral(x, v, n)
                    assert _inner_cos_integral(x, -v, n) == direct.conjugate(), (x, v)
                    # the compiled outer integrand the inversion integrates
                    assert compiled_h(h, -v) == compiled_h(h, v).conjugate(), (x, v)

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


def numpy_char_fn(u, v, n):
    """Reference oracle of char_fn: its formula in numpy, with principal_log."""
    z = complex(1.0, -2.0 * v)
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * n / z * u * u + -0.5 * n * principal_log(z))


def numpy_inner_cos_integral(x, v, n):
    """Reference oracle of _inner_cos_integral: the same panels and nodes, with
    numpy_char_fn evaluated at every node and the panels summed by numpy."""
    u_scale = math.sqrt((1.0 + 4.0 * v * v) / n)
    upper = Q_WIDTHS * u_scale
    phase = abs(x) * upper + Q_WIDTHS * Q_WIDTHS * abs(v)
    panels = 6 + int(phase / PANEL_PHASE)
    ref_nodes, ref_weights = _gauss_legendre(PANEL_NODES)
    width = upper / panels
    u = width * (np.arange(panels)[:, None] + (0.5 + 0.5 * ref_nodes)).ravel()
    f = np.cos(x * u) * numpy_char_fn(u, v, n)
    # 2 * (width / 2) * sum_j w_j sum_k f(u_kj)
    return complex(width * (f.reshape(panels, PANEL_NODES).sum(axis=0) * ref_weights).sum())


def modulus_integral(v, n):
    """int_R |Phi_n(u, v)| du = sqrt(2 pi (1+4v^2)/n) * (1+4v^2)^{-n/4}."""
    return math.sqrt(_TWO_PI * (1.0 + 4.0 * v * v) / n) * (1.0 + 4.0 * v * v) ** (-n / 4.0)


def inner_rule_grid(n):
    """(x, v) over the inversion's probe abscissae and v in {0} and 1e-4..1e3."""
    probes = [x for x, _ in inversion_probe_points(n)] + [1.5 * math.sqrt(n * 0.8 * n)]
    return [(x, v) for x in probes for v in [0.0, *np.geomspace(1e-4, 1e3, 22).tolist()]]


class TestInnerRuleMatchesClosedForm:
    """The inner u-rule of the inversion against the closed Gaussian form.

    int_R e^{-ixu} Phi_n(u, v) du = G(-x, n/z) * z^{-n/2} with z = 1 - 2iv and
    G = complex_gaussian_integral; the error is measured in units of
    int_R |Phi_n(u, v)| du.
    """

    @pytest.mark.parametrize("n", [5, 6, 8, 16, 64])
    def test_within_1e_10_of_the_modulus_integral(self, n):
        for x, v in inner_rule_grid(n):
            z = complex(1.0, -2.0 * v)
            exact = complex_gaussian_integral(-x, n / z) * cmath.exp(-0.5 * n * principal_log(z))
            assert abs(_inner_cos_integral(x, v, n) - exact) <= 1e-10 * modulus_integral(v, n), (x, v)


class TestInnerRuleMatchesNumpyOracle:
    """The compiled recurrence against char_fn at every node, summed by numpy."""

    @pytest.mark.parametrize("n", [5, 6, 8, 16, 64])
    def test_within_1e_12_of_the_modulus_integral(self, n):
        for x, v in inner_rule_grid(n):
            difference = abs(_inner_cos_integral(x, v, n) - numpy_inner_cos_integral(x, v, n))
            assert difference <= 1e-12 * modulus_integral(v, n), (x, v)

    @pytest.mark.parametrize("x, v, n", [(10.0, 1e3, 400), (5.0, 300.0, 2000)])
    def test_underflowed_anchors_give_zero(self, x, v, n):
        assert numpy_inner_cos_integral(x, v, n) == 0j
        value = _inner_cos_integral(x, v, n)
        assert value == 0j and not cmath.isnan(value)

    def test_anchors_leaving_the_normal_range_mid_rule(self):
        # |Phi_n| falls from about 1e-307 at u = 0 to below DBL_MIN (2.2e-308)
        # inside [0, U], where later blocks run the recurrence on
        x, v, n = 5.0, 1e3, 186
        assert modulus_integral(v, n) < 1e-304
        difference = abs(_inner_cos_integral(x, v, n) - numpy_inner_cos_integral(x, v, n))
        assert difference <= 1e-12 * modulus_integral(v, n)


def reference_h(x, v, n):
    """Reference oracle of the outer integrand: cmath's e^{-icv} times
    numpy_inner_cos_integral, as the inversion composed them in Python."""
    return cmath.exp(complex(0.0, -(x * x / n) * v)) * numpy_inner_cos_integral(x, v, n)


def compiled_h(h, v):
    """The compiled outer integrand of _OuterIntegrand h at v, through ctypes."""
    lib = kernel()
    return complex(lib.cw_outer_re(v, h.data), lib.cw_outer_im(v, h.data))


def recorded_inversion(x, y, n, tol):
    """invert_char_fn's quadrature passes, with the compiled Re h and Im h
    called from Python so that the v QUADPACK asks for can be recorded.
    Returns the density, the v in the order asked and the count of inner
    rules the cw_outer evaluated."""
    w = y - x * x / n
    eps_component = tol / 12.0
    visited = []
    lib = kernel()
    with _OuterIntegrand(x, n) as h:

        def recording(part):
            def f(v):
                visited.append(v)
                return part(v, h.data)

            return f

        cos_re = _qawf(recording(lib.cw_outer_re), abs(w), "cos", eps_component)[0]
        sin_im = _qawf(recording(lib.cw_outer_im), abs(w), "sin", eps_component)[0]
        total = (cos_re + cos_re) + math.copysign(1.0, w) * (sin_im + sin_im)
        evaluations = h.evaluations()
    return total * (1.0 / (_TWO_PI * _TWO_PI)), visited, evaluations


class TestCompiledOuterIntegrand:
    """The compiled char_fn and h(v) = e^{-icv} I(x, v, n) against the numpy
    and cmath expressions they replace."""

    @pytest.mark.parametrize("n", [1, 5, 6, 8, 16, 64])
    def test_char_fn_matches_numpy_oracle(self, n):
        us = np.linspace(0.0, 9.0, 41)
        compiled, reference = [], []
        for v in [0.0, *np.geomspace(1e-4, 1e3, 60).tolist()]:
            compiled.append(char_fn(us * math.sqrt(1.0 + 4.0 * v * v), v, n))
            reference.append(numpy_char_fn(us * math.sqrt(1.0 + 4.0 * v * v), v, n))
        compiled, reference = np.concatenate(compiled), np.concatenate(reference)
        assert np.array_equal(compiled.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("n", [5, 6, 8, 16, 64])
    def test_within_1e_12_of_reference_on_inner_rule_grid(self, n):
        for x in {x for x, _ in inner_rule_grid(n)}:
            with _OuterIntegrand(x, n) as h:
                for _, v in [p for p in inner_rule_grid(n) if p[0] == x]:
                    difference = abs(compiled_h(h, v) - reference_h(x, v, n))
                    assert difference <= 1e-12 * modulus_integral(v, n), (x, v)

    @pytest.mark.parametrize(
        "x, y, n",
        [
            (*inversion_probe_points(5)[4], 5),
            (*inversion_probe_points(6)[8], 6),
            (*inversion_probe_points(8)[11], 8),
            (3.0, 3.0 * 3.0 / 5, 5),  # y == x^2/n: QAWF at frequency 0
            (7.5, 7.5 * 7.5 / 6, 6),
        ],
    )
    def test_every_v_quadpack_visits(self, x, y, n):
        value, visited, evaluations = recorded_inversion(x, y, n, tol=1e-4)
        assert value.hex() == invert_char_fn(x, y, n, tol=1e-4).value.hex()
        distinct = set(visited)
        # one inner rule per distinct v, shared by the cosine and sine passes
        assert evaluations == len(distinct)
        if y != x * x / n:
            assert len(visited) > len(distinct)
        with _OuterIntegrand(x, n) as h:
            for v in sorted(distinct):
                difference = abs(compiled_h(h, v) - reference_h(x, v, n))
                assert difference <= 1e-12 * modulus_integral(v, n), v

    def test_rule_too_large_to_evaluate(self):
        # the panel count does not fit in an int64: NaN and a sticky failure, not a hang
        with pytest.raises(DomainError, match="2\\^62 panels"):
            _inner_cos_integral(1.0, 1e30, 5)
        with _OuterIntegrand(1.0, 5) as h:
            assert cmath.isnan(compiled_h(h, 1e30))
            assert h.evaluations() == -1
            compiled_h(h, 0.5)
            assert h.evaluations() == -1


class TestInversionAccuracyErrorPaths:
    def test_truncation_alone_fails_before_any_quadrature(self, monkeypatch):
        def unused(*args):
            raise AssertionError("no outer integrand may be built")

        monkeypatch.setattr("cwsoc.verification._OuterIntegrand", unused)
        with pytest.raises(InversionAccuracyError, match="truncation error .* alone exceeds tol 1.000e-18"):
            invert_char_fn(0.0, 5.0, 5, tol=1e-18)

    def test_unmet_error_bound_fails(self):
        # above the truncation term (4.54e-14) but below what QUADPACK reaches
        with pytest.raises(InversionAccuracyError, match="reached error bound .* > tol 4.700e-14"):
            invert_char_fn(0.0, 5.0, 5, tol=4.7e-14)

    # (3, 9/5) lies on the support boundary y = x^2/n of n = 5
    NEAR_BOUNDARY = (1.8 + 1e-3, 1.8 + 1e-4, 1.8 - 1e-4, 1.8 + 1e-6, math.nextafter(1.8, 2.0))

    @pytest.mark.parametrize("y", NEAR_BOUNDARY)
    def test_near_boundary_fails_before_any_quadrature(self, monkeypatch, y):
        def unused(*args):
            raise AssertionError("no outer integrand may be built")

        monkeypatch.setattr("cwsoc.verification._OuterIntegrand", unused)
        with pytest.raises(InversionAccuracyError, match=f"more than {FIRST_CYCLE_PANELS} panels"):
            invert_char_fn(3.0, y, 5, tol=1e-4)

    def test_near_boundary_fails_fast_in_a_child_process(self):
        # Without the panel budget these calls run for seconds to minutes, and
        # CI's job limit is 30 minutes: the child's timeout fails a regression
        # in seconds.
        script = (
            "import sys\n"
            "from cwsoc.verification import InversionAccuracyError, invert_char_fn\n"
            f"for y in {self.NEAR_BOUNDARY!r}:\n"
            "    try:\n"
            "        invert_char_fn(3.0, y, 5, tol=1e-4)\n"
            "    except InversionAccuracyError:\n"
            "        continue\n"
            "    sys.exit(f'y = {y!r} returned')\n"
            "print(invert_char_fn(3.0, 9 / 5, 5, tol=1e-4).value)\n"
        )
        src = str(Path(cwsoc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        # y = x^2/n keeps QUADPACK's QAGI pass, where the closed form is 0
        assert abs(float(proc.stdout)) < 1e-4

    def test_non_finite_gap_rejected_before_any_quadrature(self, monkeypatch):
        # x^2 overflows, so y - x^2/n is -inf: QUADPACK crashes the interpreter on it
        def unused(*args):
            raise AssertionError("no outer integrand may be built")

        monkeypatch.setattr("cwsoc.verification._OuterIntegrand", unused)
        with pytest.raises(DomainError, match="finite point"):
            invert_char_fn(1e200, 1.0, 5, tol=1e-3)


def psi_log_rescaled_mass(n, nodes):
    """Reference oracle of _log_rescaled_mass: the same tensor Gauss-Legendre
    grid, with -n psi(a, y) - (3/2) log(y - a) and the log weights evaluated
    at every node and added up on the full grid."""
    x_cut, y_hi = _rescaled_cutoffs(n)
    ref_nodes, ref_weights = _gauss_legendre(nodes)
    hx = 0.5 * x_cut
    xt = hx * (ref_nodes + 1.0)
    wx = hx * ref_weights
    a = xt * xt / math.sqrt(n)
    hy = 0.5 * (y_hi - a)
    yt = a[:, None] + hy[:, None] * (ref_nodes[None, :] + 1.0)
    wy = hy[:, None] * ref_weights[None, :]
    gap = yt - a[:, None]
    log_integrand = -n * psi_unchecked(a[:, None], yt) - 1.5 * np.log(gap)
    log_terms = log_integrand + np.log(wy) + np.log(wx)[:, None] + math.log(2.0)
    return float(logsumexp(log_terms))


class TestSeparableGridMatchesPsiOracle:
    @pytest.mark.parametrize("nodes", [220, 240, 319])
    @pytest.mark.parametrize("n", [5, 6, 17, 30, 100, 400, 10**4, 10**6])
    def test_within_1e_13_or_two_ulps(self, n, nodes):
        # |log mass| grows like n/2, and at n = 1e4 and 1e6 one ulp of it
        # (9.1e-13, 5.8e-11) exceeds 1e-13
        expected = psi_log_rescaled_mass(n, nodes)
        assert abs(_log_rescaled_mass(n, nodes) - expected) <= max(1e-13, 2.0 * np.spacing(abs(expected)))


def whole_grid_log_terms(n, nodes):
    # _rescaled_log_terms with its quotient taken on the whole grid at once: its oracle
    x_cut, y_hi = _rescaled_cutoffs(n)
    ref_nodes, ref_weights = _gauss_legendre(nodes)
    hx = 0.5 * x_cut
    rho = ref_nodes + 1.0
    xt = hx * rho
    a = xt * xt / math.sqrt(n)
    hy = 0.5 * (y_hi - a)
    row = 0.5 * (n - 1) * np.log(hy) + np.log(hx * ref_weights) + math.log(2.0)
    column = 0.5 * (n - 3) * np.log(rho) + np.log(ref_weights)
    log_terms = np.multiply.outer(hy, rho)
    log_terms += a[:, None]
    log_terms -= a[:, None] / log_terms
    log_terms *= -0.5 * n
    log_terms += row[:, None]
    log_terms += column
    return log_terms


@pytest.mark.parametrize("nodes", [31, 32, 33, C_N_NODES, LAPLACE_RATIO_NODES, int(1.45 * C_N_NODES)])
@pytest.mark.parametrize("n", [5, 30, 400])
def test_log_terms_in_row_blocks_keep_the_whole_grid_bits(n, nodes):
    assert np.array_equal(_rescaled_log_terms(n, nodes), whole_grid_log_terms(n, nodes))


class TestGridSumKeepsScipyBits:
    """_log_rescaled_mass's in-place sum against scipy.special.logsumexp of the
    same grid, on the 54 grids of the report: estimate_C_n's two at every
    order of the laplace suite and laplace_ratio's at n = 100 and 400."""

    @pytest.mark.parametrize(
        "n, nodes",
        [(n, nodes) for n in LAPLACE_ORDERS for nodes in (C_N_NODES, int(1.45 * C_N_NODES))]
        + [(100, LAPLACE_RATIO_NODES), (400, LAPLACE_RATIO_NODES)],
    )
    def test_bit_equal(self, n, nodes):
        assert _log_rescaled_mass(n, nodes).hex() == float(logsumexp(_rescaled_log_terms(n, nodes))).hex()


class TestNormalization:
    @pytest.mark.parametrize("n", [*range(5, 31), 60, 200])
    def test_log_Z_n_matches_kummer_function(self, n):
        # Z_n = E[e^{nB/2}], B ~ Beta(1/2, (n-1)/2), is 1F1(1/2; n/2; n/2)
        est = estimate_C_n(n)
        assert abs(est.log_Z_n - math.log(hyp1f1(0.5, 0.5 * n, 0.5 * n))) <= est.quadrature_error_bound

    def test_identity_between_constants_holds_by_construction(self):
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

    @pytest.mark.parametrize("n", [5, 7])
    def test_raw_route_integrates_the_model_density(self, monkeypatch, n):
        # the integrand's formula written out, the oracle of the model's density
        # on the raw route
        def inline(y, x):
            gap = y - x * x / n
            if gap <= 0.0:
                return 0.0
            return math.exp(x * x / (2.0 * y) - 0.5 * y + 0.5 * (n - 3) * math.log(gap))

        oracle = math.log(_support_dblquad(inline, n, epsabs=1e-12, epsrel=1e-10))
        calls = []

        def recording(stats, params):
            calls.append((stats, params))
            return log_joint_density_unnormalized(stats, params)

        monkeypatch.setattr("cwsoc.verification.log_joint_density_unnormalized", recording)
        assert log_C_n_by_raw_quadrature(n).hex() == oracle.hex()
        assert len(calls) > 10000
        assert {params for _, params in calls} == {ModelParams(n, 1.0)}

    def test_error_bound_populated(self):
        est = estimate_C_n(6)
        assert 0.0 < est.quadrature_error_bound < 1e-4

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            estimate_C_n(4)

    def test_log_Z_n_outside_its_bound_raises(self, monkeypatch):
        monkeypatch.setattr("cwsoc.verification._log_rescaled_mass", lambda n, nodes: 1e3)
        with pytest.raises(NormalizationBoundError, match=r"log Z_5 = .* escaped \[0, 2\.5\]"):
            estimate_C_n(5)

    def test_log_Z_n_outside_its_bound_fails_verify(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("cwsoc.verification._log_rescaled_mass", lambda n, nodes: 1e3)
        out = tmp_path / "verify"
        assert main(["verify", "--suite", "laplace", "--n-list", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "log Z_5 = " in err and "escaped [0, 2.5]" in err
        assert not (out / "report.json").exists()


def raising(*args):
    raise AssertionError("a route's partner was called")


class TestRoutesStayApart:
    """Each pair of routes to one quantity runs with one route broken, and
    the other returns what an unpatched call returns.  The two routes to
    log C_n share _rescaled_cutoffs (the window) and _support_dblquad (the
    raw route's quadrature, which the total-mass check also uses) on
    purpose; the breaks leave those alone."""

    def test_raw_route_to_log_C_n_without_the_rescaled_grid(self, monkeypatch):
        expected = log_C_n_by_raw_quadrature(5)
        monkeypatch.setattr("cwsoc.verification._rescaled_log_terms", raising)
        monkeypatch.setattr("cwsoc.verification._log_rescaled_mass", raising)
        assert log_C_n_by_raw_quadrature(5) == expected

    def test_rescaled_grid_without_the_model_density(self, monkeypatch):
        expected = estimate_C_n(5)
        monkeypatch.setattr("cwsoc.verification.log_joint_density_unnormalized", raising)
        assert estimate_C_n(5) == expected

    def test_inversion_without_the_closed_form_density(self, monkeypatch):
        (x, y), tol = inversion_probe_points(5)[4], TOLERANCES["inversion_tol"]
        expected = invert_char_fn(x, y, 5, tol)
        monkeypatch.setattr(kernel(), "cw_density", raising)
        assert invert_char_fn(x, y, 5, tol) == expected

    def test_closed_form_density_without_the_inversion(self, monkeypatch):
        x, y = inversion_probe_points(5)[4]
        expected = density_closed_form(x, y, 5)
        monkeypatch.setattr("cwsoc.verification._OuterIntegrand", raising)
        monkeypatch.setattr(kernel(), "cw_inner_cos", raising)
        monkeypatch.setattr(kernel(), "cw_char_fn", raising)
        assert density_closed_form(x, y, 5) == expected

    def test_trapezoid_sum_without_the_principal_log(self, monkeypatch):
        expected = [_gaussian_integral_by_quadrature(t, zeta) for t, zeta in GAUSS_INTEGRAL_GRID]
        monkeypatch.setattr("cwsoc.verification.complex_pow", raising)
        assert [_gaussian_integral_by_quadrature(t, zeta) for t, zeta in GAUSS_INTEGRAL_GRID] == expected

    def test_closed_form_gaussian_integral_without_the_trapezoid_sum(self, monkeypatch):
        expected = [complex_gaussian_integral(t, zeta) for t, zeta in GAUSS_INTEGRAL_GRID]
        monkeypatch.setattr("cwsoc.verification.trapezoid", raising)
        assert [complex_gaussian_integral(t, zeta) for t, zeta in GAUSS_INTEGRAL_GRID] == expected

    def test_complex_suite_without_a_compiled_integrand(self, monkeypatch):
        expected = suite_complex(TOLERANCES)
        monkeypatch.setattr("cwsoc.verification.LowLevelCallable", raising)
        assert suite_complex(TOLERANCES) == expected


class TestIntegerOrders:
    """Every order n must be an integer; numpy integers act as Python ints."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: char_fn(0.3, 0.2, n),
            lambda n: density_closed_form(0.0, 5.0, n),
            lambda n: invert_char_fn(1.0, 5.0, n, 1e-3),
            estimate_C_n,
            log_C_n_by_raw_quadrature,
            laplace_ratio,
        ],
        ids=["char_fn", "density_closed_form", "invert_char_fn", "estimate_C_n", "raw_quadrature", "laplace_ratio"],
    )
    @pytest.mark.parametrize("n", [5.5, 7.5, 100.5, 6.0, True, np.float64(7.0)])
    def test_non_integer_order_rejected(self, call, n):
        with pytest.raises(DomainError, match="integer order"):
            call(n)

    def test_float_order_rejected_after_its_integer_was_cached(self):
        # np.int64(6) == np.float64(6.0), and an untyped cache key treats them as one
        assert density_closed_form(0.0, 6.0, np.int64(6)) > 0.0
        with pytest.raises(DomainError, match="integer order"):
            density_closed_form(0.0, 6.0, np.float64(6.0))

    def test_numpy_integer_order_gives_python_values(self):
        est = estimate_C_n(np.int64(7))
        assert est == estimate_C_n(7)
        assert type(est.n) is int
        assert all(type(f) is float for f in (est.log_C_n, est.log_Z_n, est.quadrature_error_bound))
        assert type(laplace_ratio(np.int32(100))) is float
        assert char_fn(0.3, 0.2, np.int64(5)) == char_fn(0.3, 0.2, 5)
        assert type(density_closed_form(1.0, 6.0, np.int16(6))) is float

    @pytest.mark.parametrize("n", [5, 6, 9, 40])
    def test_cached_normalizer_keeps_the_bits(self, n):
        for x, y in ((0.0, 5.0), (1.3, 0.8 * n), (2.0, 1.7 * n)):
            gap = y - x * x / n
            log_value = -0.5 * y + 0.5 * (n - 3) * math.log(gap)
            expected = log_value - 0.5 * (n * math.log(2.0) + math.log(math.pi * n)) - float(gammaln(0.5 * (n - 1)))
            assert density_closed_form(x, y, n) == math.exp(expected)


class TestLaplaceRatio:
    def test_moderate_n_near_one(self):
        assert abs(laplace_ratio(100) - 1.0) < 0.15

    def test_converges_towards_one(self):
        r100, r400 = laplace_ratio(100), laplace_ratio(400)
        assert abs(r400 - 1.0) < 0.08
        assert abs(r400 - 1.0) < abs(r100 - 1.0)


def whole_grid_min_outside_box():
    # psi_grid_min_outside_box on the whole grid at once: its oracle
    xg = np.linspace(0.0, GRID_X_MAX, GRID_M)[:, None]
    yg = np.linspace(1e-6, GRID_Y_MAX, GRID_M)[None, :]
    valid = yg > xg
    outside_box = (np.abs(xg) >= BOX_DELTA) | (np.abs(yg - 1.0) >= BOX_DELTA)
    mask = valid & outside_box
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = psi_unchecked(xg, yg)
    return float(np.where(mask, vals, np.inf).min())


def whole_grid_lower_bound_margin():
    # psi_quadratic_lower_bound_margin on the whole grid at once: its oracle
    xg = np.linspace(0.0, DELTA_STAR, BOUND_GRID_M, endpoint=False)[:, None]
    yg = np.linspace(1.0 - DELTA_STAR, 1.0 + DELTA_STAR, BOUND_GRID_M + 1)[None, :]
    valid = yg > xg
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = psi_unchecked(xg, yg) - 0.5 - (xg * xg + (yg - 1.0) ** 2) / 8.0
    return float(np.where(valid, margin, np.inf).min())


PSI_GRID_CHECKS = [
    (psi_grid_min_outside_box, whole_grid_min_outside_box),
    (psi_quadratic_lower_bound_margin, whole_grid_lower_bound_margin),
]


class TestPsiGeometry:
    @pytest.mark.parametrize("check, oracle", PSI_GRID_CHECKS)
    def test_row_blocks_keep_the_whole_grid_bits(self, check, oracle):
        assert check() == oracle()

    @pytest.mark.parametrize("check", [check for check, _ in PSI_GRID_CHECKS])
    def test_no_temporary_spans_the_whole_grid(self, check):
        # the oracles' whole-grid temporaries peak at about 9.7 MB and 4.0 MB
        check()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            check()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 65])
    def test_row_blocks_cover_every_row(self, rows):
        # the grid's minimum put in each row in turn, a last partial block included
        rng = np.random.default_rng(rows)
        for row in range(rows):
            vals = rng.random((rows, 7))
            vals[row, 3] = -1.0
            got = _min_over_row_blocks(
                lambda xg, yg: vals[xg.astype(int), yg.astype(int)], np.arange(rows, dtype=float), np.arange(7.0)
            )
            assert got == -1.0, row

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # NaN compares False both ways, so the sort check alone let it through
        for samples in ([0.1, bad, 0.3], [bad], [0.1, 0.3, bad]):
            with pytest.raises(DomainError, match="finite"):
                ks_statistic(samples, QuarticLaw(1.0).cdf)


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
