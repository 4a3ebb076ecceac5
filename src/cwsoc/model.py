"""Core model quantities: energies, sufficient statistics and exact joint densities.

The model lives on configurations x = (x_1, ..., x_n) of real-valued spins.
Everything of interest factors through the sufficient statistics
s = sum(x_i) and t = sum(x_i^2), and every density in this module is exposed
unnormalized and in log space: the exponents grow like n*log(n), so nothing
here ever exponentiates a large quantity.  Normalization constants are
estimated in :mod:`cwsoc.verification`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "SupportError",
    "UnsupportedOrderError",
    "ModelParams",
    "SumStats",
    "MIN_DENSITY_N",
    "is_integer",
    "positive_real",
    "nonnegative_real",
    "compensated_sum",
    "sum_stats",
    "interaction_energy",
    "log_tilt_weight",
    "in_support",
    "log_joint_density_unnormalized",
    "psi",
    "psi_unchecked",
    "phi_weight",
    "log_rescaled_density_unnormalized",
]

# The closed-form joint density of (s, t) only exists for n >= 5.
MIN_DENSITY_N = 5


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SupportError(DomainError):
    """A statistics pair lies outside the open support {s^2 < n*t}."""


class UnsupportedOrderError(DomainError):
    """The requested n is below the smallest order with a closed-form density."""


def is_integer(value) -> bool:
    """Any integral type (numpy integers included) except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A finite real of any real type (numpy scalars included) except bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def positive_real(value, name: str) -> float:
    """value as a Python float if it is a finite positive real of any real type
    (numpy scalars included) except bool; DomainError naming it otherwise."""
    if not (_is_finite_real(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")
    return float(value)


def nonnegative_real(value, name: str) -> float:
    """As positive_real, but zero is allowed too."""
    if not (_is_finite_real(value) and value >= 0):
        raise DomainError(f"{name} must be a nonnegative finite real, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """Number of spins and the standard deviation of the base Gaussian.

    n may be any integral type and sigma any real type except bool (numpy
    scalars included); they are stored as a Python int and a Python float.
    """

    n: int
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (is_integer(self.n) and self.n >= 1):
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", positive_real(self.sigma, "sigma"))


class SumStats(NamedTuple):
    """The pair (s, t) = (sum of spins, sum of squared spins)."""

    s: float
    t: float


def compensated_sum(values: Iterable[float]) -> float:
    """Left-to-right Neumaier (compensated) summation with a fixed order."""
    total = 0.0
    comp = 0.0
    for v in values:
        v = float(v)
        partial = total + v
        if abs(total) >= abs(v):
            comp += (total - partial) + v
        else:
            comp += (v - partial) + total
        total = partial
    return total + comp


def sum_stats(config: Sequence[float] | np.ndarray) -> SumStats:
    """Sufficient statistics (s, t) of a configuration.

    Summation order is fixed (left to right, compensated) so that incremental
    updates in the samplers can be checked against a reproducible reference.
    """
    x = np.asarray(config, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("configuration must be a nonempty 1-d sequence of reals")
    s = compensated_sum(x)
    t = compensated_sum(x * x)
    return SumStats(s, t)


def log_tilt_weight(stats: SumStats) -> float:
    """Log of the tilt e^{s^2/(2t)} that turns the product measure into the model.

    Always in [0, n/2] when (s, t) comes from an actual n-spin configuration
    (Cauchy-Schwarz).
    """
    s, t = stats
    if not t > 0.0:
        raise DomainError(f"t must be positive, got t={t!r}")
    return s * s / (2.0 * t)


def interaction_energy(config: Sequence[float] | np.ndarray) -> float:
    """(sum x_i)^2 / (2 sum x_i^2) for a configuration with at least one nonzero spin.

    The configuration is first scaled by the power of two that puts max|x_i|
    in [0.5, 1).  The ratio is scale-invariant and such a scaling is exact, so
    the result keeps its bits unless squares would leave the normal range,
    where t = sum x_i^2 would otherwise lose its precision to subnormals.
    """
    x = np.asarray(config, dtype=float)
    _, exponent = np.frexp(np.max(np.abs(x), initial=0.0))
    stats = sum_stats(np.ldexp(x, -exponent))
    if not stats.t > 0.0:
        raise DomainError("interaction energy is undefined for the all-zero configuration")
    return log_tilt_weight(stats)


def in_support(stats: SumStats, n: int) -> bool:
    """True iff (s, t) lies strictly inside the support {t > 0, s^2 < n t}."""
    s, t = stats
    return t > 0.0 and s * s < n * t


def log_joint_density_unnormalized(stats: SumStats, params: ModelParams) -> float:
    """Unnormalized log density of (s, t) under the tilted model, n >= 5.

    Returns s^2/(2t) - t/(2 sigma^2) + ((n-3)/2) * ln(t - s^2/n).  The support
    boundary s^2 = n t is excluded: evaluating there is an error, not -inf.
    """
    if params.n < MIN_DENSITY_N:
        raise UnsupportedOrderError(
            f"closed-form joint density requires n >= {MIN_DENSITY_N}, got n={params.n}"
        )
    s, t = stats
    if not in_support(stats, params.n):
        raise SupportError(f"(s, t)=({s!r}, {t!r}) outside open support s^2 < {params.n}*t")
    gap = t - s * s / params.n
    return (
        s * s / (2.0 * t)
        - t / (2.0 * params.sigma**2)
        + 0.5 * (params.n - 3) * math.log(gap)
    )


def psi_unchecked(x, y):
    """The formula of psi, elementwise on scalars or arrays, without the wedge check.

    Off the wedge it is the analytic continuation of psi while y > x (centered
    finite differences at x = 0 step to x < 0) and nan or inf where y <= x.
    """
    return 0.5 * (-x / y + y - np.log(y - x))


def psi(x: float, y: float) -> float:
    """Laplace exponent (1/2)(-x/y + y - ln(y - x)) on the wedge y > x >= 0.

    Attains its unique minimum 1/2 at (0, 1).
    """
    if not (x >= 0.0 and y > x):
        raise DomainError(f"point ({x!r}, {y!r}) outside the wedge y > x >= 0")
    return float(psi_unchecked(x, y))


def phi_weight(x: float, y: float) -> float:
    """Jacobian-type weight (y - x)^{-3/2} on the wedge y > x >= 0."""
    if not (x >= 0.0 and y > x):
        raise DomainError(f"point ({x!r}, {y!r}) outside the wedge y > x >= 0")
    return (y - x) ** -1.5


def log_rescaled_density_unnormalized(x: float, y: float, params: ModelParams) -> float:
    """Unnormalized log density of (s/n^{3/4}, t/n), the statistics scaled by
    the critical exponents 3/4 and 1; sigma = 1 only.

    Equals -n*psi(a, y) - (3/2)*ln(y - a) at the mapped point (a, y) with
    a = x^2/n^{1/2}.  Differs from log_joint_density_unnormalized at
    (s, t) = (x n^{3/4}, y n) by the additive constant ((n-3)/2) ln(n), which
    makes the two routes mutually testable.
    """
    if params.sigma != 1.0:
        raise DomainError("rescaled density is defined for sigma = 1; rescale the caller's units first")
    n = params.n
    a = x * x / n**0.5
    if not y > a:
        raise SupportError(
            f"mapped point ({a!r}, {y!r}) outside the wedge y > x >= 0"
        )
    return -n * psi(a, y) - 1.5 * math.log(y - a)
