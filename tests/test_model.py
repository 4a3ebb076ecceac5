"""Unit and property tests for the core model quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwsoc.model import (
    DomainError,
    ModelParams,
    SumStats,
    SupportError,
    UnsupportedOrderError,
    compensated_sum,
    log_joint_density_unnormalized,
    psi,
    sum_stats,
)


class TestSumStats:
    def test_small_vector(self):
        assert sum_stats([1.0, 2.0]) == (3.0, 5.0)

    def test_zero_configuration_flagged_invalid_downstream(self):
        stats = sum_stats([0.0] * 5)
        assert stats == (0.0, 0.0)
        with pytest.raises(SupportError):
            log_joint_density_unnormalized(stats, ModelParams(5))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(101)
        x = rng.normal(size=10)
        stats = sum_stats(x)
        # independent exactly-rounded summation oracle
        assert stats.s == pytest.approx(math.fsum(x), rel=1e-15, abs=1e-300)
        assert stats.t == pytest.approx(math.fsum(v * v for v in x), rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sum_stats([])

    def test_compensated_sum_beats_naive(self):
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0


class TestLogJointDensity:
    def test_term_by_term_hand_value(self):
        got = log_joint_density_unnormalized(SumStats(0.0, 5.0), ModelParams(5, 1.0))
        assert got == pytest.approx(-2.5 + math.log(5.0), abs=1e-14)
        assert got == pytest.approx(-0.8905620875658997, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_even_in_s(self, s, t):
        params = ModelParams(8, 1.3)
        if not t - s * s / params.n > 0.0:
            return
        plus = log_joint_density_unnormalized(SumStats(s, t), params)
        minus = log_joint_density_unnormalized(SumStats(-s, t), params)
        assert plus == minus

    def test_boundary_is_error(self):
        with pytest.raises(SupportError):
            log_joint_density_unnormalized(SumStats(math.sqrt(5.0), 1.0), ModelParams(5))

    def test_outside_support_is_error(self):
        with pytest.raises(SupportError):
            log_joint_density_unnormalized(SumStats(4.0, 1.0), ModelParams(5))

    def test_gap_rounding_to_zero_is_support_error(self):
        # s^2 < n t holds here, but t - s^2/n rounds to 0.0: the log's argument
        s, t = 6.421489887329466, 8.24710647461492
        assert s * s < 5 * t and t - s * s / 5 == 0.0
        with pytest.raises(SupportError):
            log_joint_density_unnormalized(SumStats(s, t), ModelParams(5))

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            log_joint_density_unnormalized(SumStats(0.0, 1.0), ModelParams(4))


class TestInSupport:
    """The open support t > 0, t - s^2/n > 0 that log_joint_density_unnormalized checks."""

    def test_interior(self):
        params = ModelParams(5)
        assert math.isfinite(log_joint_density_unnormalized(SumStats(0.0, 1.0), params))
        # the smallest positive gap of this t is still inside: no error, a large negative log
        s, t = 5.0, math.nextafter(5.0, math.inf)
        assert t - s * s / 5 > 0.0
        assert log_joint_density_unnormalized(SumStats(s, t), params) < -30.0

    def test_boundary_excluded(self):
        # s^2 = n t exactly
        with pytest.raises(SupportError):
            log_joint_density_unnormalized(SumStats(5.0, 5.0), ModelParams(5))

    def test_outside(self):
        for s, t in [(2.0, 0.5), (0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.nan)]:
            with pytest.raises(SupportError):
                log_joint_density_unnormalized(SumStats(s, t), ModelParams(5))


class TestLogTiltWeight:
    """The tilt s^2/(2t), the log of e^{S^2/(2T)}, in log_joint_density_unnormalized."""

    def test_zero_numerator(self):
        for n, sigma in [(5, 1.0), (8, 1.3), (12, 0.5)]:
            got = log_joint_density_unnormalized(SumStats(0.0, 5.0), ModelParams(n, sigma))
            assert got == pytest.approx(-5.0 / (2 * sigma**2) + 0.5 * (n - 3) * math.log(5.0), abs=1e-14)

    def test_hand_arithmetic(self):
        got = log_joint_density_unnormalized(SumStats(3.0, 5.0), ModelParams(5, 1.0))
        # tilt 9/10, base -5/2, gap term ln(5 - 9/5)
        assert got - (-2.5 + math.log(3.2)) == pytest.approx(0.9, abs=1e-14)
        assert got == pytest.approx(-0.4368491901943192, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_t_rejected(self, t):
        with pytest.raises(SupportError):
            log_joint_density_unnormalized(SumStats(1.0, t), ModelParams(5))


class TestPsi:
    def test_minimum_value_exact(self):
        assert psi(0.0, 1.0) == 0.5

    def test_axis_value(self):
        assert psi(0.0, math.e) == pytest.approx((math.e - 1.0) / 2.0, abs=1e-15)

    def test_hand_evaluation(self):
        # 0.5 * (-0.25 + 2 - ln 1.5)
        assert psi(0.5, 2.0) == pytest.approx(0.6722674459459178, abs=1e-15)

    @pytest.mark.parametrize("point", [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.5)])
    def test_domain_errors(self, point):
        with pytest.raises(DomainError):
            psi(*point)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=1e-6, max_value=30.0),
    )
    @settings(max_examples=300)
    def test_strictly_above_minimum_away_from_it(self, x, gap):
        y = x + gap
        if x * x + (y - 1.0) ** 2 < 1e-4:  # skip the flat neighborhood of the minimum
            return
        assert psi(x, y) > 0.5

    def test_never_below_minimum_near_it(self):
        for x in np.linspace(0.0, 1e-7, 7):
            for y in 1.0 + np.linspace(-1e-7, 1e-7, 7):
                assert psi(float(x), float(y)) >= 0.5 - 1e-15


class TestParamTypes:
    def test_model_params_validation(self):
        with pytest.raises(DomainError):
            ModelParams(0)
        with pytest.raises(DomainError):
            ModelParams(5, -1.0)
        with pytest.raises(DomainError):
            ModelParams(5, math.inf)

    @pytest.mark.parametrize("sigma", [1e-170, 1.4e-154, 1.35e154, 1e200])
    def test_sigma_whose_square_is_not_a_finite_normal_double_rejected(self, sigma):
        # below, every spin's square underflows to 0; above, sigma^2 overflows
        with pytest.raises(DomainError, match="finite normal double"):
            ModelParams(8, sigma)

    @pytest.mark.parametrize("sigma", [1.5e-154, 1.34e154])
    def test_sigma_just_inside_the_normal_range_accepted(self, sigma):
        assert ModelParams(8, sigma).sigma == sigma

    def test_numpy_integer_n_accepted_bool_rejected(self):
        for n in (np.int64(8), np.int32(8)):
            params = ModelParams(n)
            assert params.n == 8 and type(params.n) is int
        with pytest.raises(DomainError):
            ModelParams(True)

    def test_numpy_float_sigma_accepted_bool_rejected(self):
        for sigma, stored in ((np.float32(1.5), 1.5), (np.float64(2.25), 2.25), (np.int64(2), 2.0), (3, 3.0)):
            params = ModelParams(4, sigma)
            assert params.sigma == stored and type(params.sigma) is float
        for bad in (True, np.float32(-1.0), np.float32(np.inf), "1.5"):
            with pytest.raises(DomainError):
                ModelParams(4, bad)
