"""Unit and property tests for the core model quantities."""

import math
import sys

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
    in_support,
    interaction_energy,
    log_joint_density_unnormalized,
    log_rescaled_density_unnormalized,
    log_tilt_weight,
    phi_weight,
    psi,
    sum_stats,
)

finite_spin = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
# t = sum(x^2) must not underflow to zero, so require one spin whose square is nonzero
configurations = st.lists(finite_spin, min_size=1, max_size=30).filter(
    lambda xs: any(x * x > 0.0 for x in xs)
)


class TestSumStats:
    def test_small_vector(self):
        assert sum_stats([1.0, 2.0]) == (3.0, 5.0)

    def test_zero_configuration_flagged_invalid_downstream(self):
        stats = sum_stats([0.0] * 5)
        assert stats == (0.0, 0.0)
        assert not in_support(stats, 5)
        with pytest.raises(DomainError):
            log_tilt_weight(stats)

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


class TestInteractionEnergy:
    def test_constant_configuration_attains_maximum(self):
        assert interaction_energy([1.0, 1.0, 1.0, 1.0]) == 2.0

    def test_symmetric_cancellation(self):
        assert interaction_energy([1.0, -1.0]) == 0.0

    def test_hand_arithmetic(self):
        assert interaction_energy([3.0, 4.0]) == pytest.approx(0.98, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            interaction_energy([0.0, 0.0, 0.0])

    @given(configurations)
    @settings(max_examples=200)
    def test_equals_tilt_weight_of_stats(self, xs):
        # interaction_energy works on the spins scaled by the power of two that
        # puts max|x| in [0.5, 1); the raw stats agree unless a square is subnormal
        k = math.frexp(max(abs(x) for x in xs))[1]
        scaled = [math.ldexp(x, -k) for x in xs]
        assert interaction_energy(xs) == log_tilt_weight(sum_stats(scaled))
        raw = sum_stats(xs)
        squares = [x * x for x in xs] + [raw.s * raw.s, raw.t]
        if all(v == 0.0 or v >= sys.float_info.min for v in squares):
            assert interaction_energy(xs) == log_tilt_weight(raw)

    @given(configurations)
    @settings(max_examples=200)
    def test_cauchy_schwarz_bounds(self, xs):
        e = interaction_energy(xs)
        assert 0.0 <= e <= 0.5 * len(xs) * (1.0 + 1e-12)

    def test_subnormal_squares_keep_full_precision(self):
        # (s, t) of the raw spins are subnormal here and s^2/(2t) came out 1.0004
        assert interaction_energy([5.530820815279729e-161] * 2) == 1.0

    def test_invariant_under_power_of_two_scaling(self):
        xs = [0.3, -1.7, 2.9, 1e-3]
        expected = log_tilt_weight(sum_stats(xs))
        for k in (-900, -40, 0, 40, 900):
            assert interaction_energy([math.ldexp(x, k) for x in xs]) == expected


class TestLogTiltWeight:
    def test_zero_numerator(self):
        assert log_tilt_weight(SumStats(0.0, 5.0)) == 0.0

    def test_hand_arithmetic(self):
        assert log_tilt_weight(SumStats(3.0, 5.0)) == pytest.approx(0.9, abs=1e-15)

    def test_equality_case(self):
        n = 7
        assert log_tilt_weight(SumStats(float(n), float(n))) == pytest.approx(n / 2, abs=1e-15)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_t_rejected(self, t):
        with pytest.raises(DomainError):
            log_tilt_weight(SumStats(1.0, t))


class TestInSupport:
    def test_interior(self):
        assert in_support(SumStats(0.0, 1.0), 5)

    def test_boundary_excluded(self):
        assert not in_support(SumStats(math.sqrt(5), 1.0), 5)

    def test_outside(self):
        assert not in_support(SumStats(2.0, 0.5), 5)  # 4 >= 2.5


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
        if not in_support(SumStats(s, t), params.n):
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

    def test_small_n_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            log_joint_density_unnormalized(SumStats(0.0, 1.0), ModelParams(4))


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


class TestPhiWeight:
    def test_unit_gap(self):
        assert phi_weight(0.0, 1.0) == 1.0

    def test_hand_value(self):
        assert phi_weight(0.0, 4.0) == 0.125

    def test_near_boundary_large_but_not_nan(self):
        val = phi_weight(1.0, 1.0 + 1e-12)
        assert val > 1e17
        assert math.isfinite(val)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            phi_weight(2.0, 2.0)


class TestLogRescaledDensity:
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_minimum_point(self, n):
        got = log_rescaled_density_unnormalized(0.0, 1.0, ModelParams(n, 1.0))
        assert got == pytest.approx(-n / 2.0, abs=1e-12)

    def test_change_of_variables_identity(self):
        n = 8
        params = ModelParams(n, 1.0)
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 5:
            x = rng.uniform(-2.0, 2.0)
            y = rng.uniform(0.5, 2.0)
            if y <= x * x / math.sqrt(n):
                continue
            s, t = x * n**0.75, y * n
            lhs = log_joint_density_unnormalized(SumStats(s, t), params)
            rhs = log_rescaled_density_unnormalized(x, y, params) + 0.5 * (n - 3) * math.log(n)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            checked += 1

    def test_support_edge_is_error(self):
        n = 9
        with pytest.raises(SupportError):
            log_rescaled_density_unnormalized(2.0, 4.0 / math.sqrt(n), ModelParams(n, 1.0))

    def test_requires_unit_sigma(self):
        with pytest.raises(DomainError):
            log_rescaled_density_unnormalized(0.0, 1.0, ModelParams(8, 2.0))


class TestParamTypes:
    def test_model_params_validation(self):
        with pytest.raises(DomainError):
            ModelParams(0)
        with pytest.raises(DomainError):
            ModelParams(5, -1.0)
        with pytest.raises(DomainError):
            ModelParams(5, math.inf)

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
