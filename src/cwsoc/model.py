"""Core model quantities: parameters, sufficient statistics, the exact joint
density of the statistics and the saddle-point exponent psi.

The model lives on configurations x = (x_1, ..., x_n) of real-valued spins.
Everything of interest factors through the sufficient statistics
s = sum(x_i) and t = sum(x_i^2) (``sum_stats``, a compensated sum in a fixed
order).  ``log_joint_density_unnormalized`` is the closed-form density of
(s, t), unnormalized and in log space: the exponents grow like n*log(n), so
nothing here ever exponentiates a large quantity (the raw-coordinate route
to C_n in :mod:`cwsoc.verification` integrates its exponential at small n).
``psi`` is the exponent of the Laplace analysis that :mod:`cwsoc.verification`
uses, where the normalization constants are estimated too.  The module also
holds the argument checks and the error types the whole package raises.
"""

from __future__ import annotations

import math
import numbers
import sys
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
    "integer_at_least",
    "positive_real",
    "nonnegative_real",
    "compensated_sum",
    "sum_stats",
    "log_joint_density_unnormalized",
    "psi",
    "psi_unchecked",
]

# The closed-form joint density of (s, t) only exists for n >= 5.
MIN_DENSITY_N = 5


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SupportError(DomainError):
    """A statistics pair lies outside the open support {t - s^2/n > 0}."""


class UnsupportedOrderError(DomainError):
    """The requested n is below the smallest order with a closed-form density."""


def is_integer(value) -> bool:
    """Any integral type (numpy integers included) except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A finite real of any real type (numpy scalars included) except bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def integer_at_least(value, name: str, minimum: int) -> int:
    """value as a Python int if it is an integer of any integral type (numpy
    integers included) except bool, and at least minimum; DomainError naming
    it otherwise."""
    if not (is_integer(value) and value >= minimum):
        what = {0: "a nonnegative integer", 1: "a positive integer"}.get(minimum, f"an integer of at least {minimum}")
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return int(value)


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
    sigma^2 must be a finite normal double, so sigma lies between about
    1.49e-154 and 1.34e154: beyond, sigma^2 overflows or the spins' squares
    underflow.
    """

    n: int
    sigma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer_at_least(self.n, "n", 1))
        sigma = positive_real(self.sigma, "sigma")
        if not sys.float_info.min <= sigma * sigma < math.inf:
            raise DomainError(f"sigma^2 must be a finite normal double, got sigma={sigma!r}")
        object.__setattr__(self, "sigma", sigma)


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


def log_joint_density_unnormalized(stats: SumStats, params: ModelParams) -> float:
    """Unnormalized log density of (s, t) under the tilted model, n >= 5.

    Returns s^2/(2t) - t/(2 sigma^2) + ((n-3)/2) * ln(gap), gap = t - s^2/n.
    The support is t > 0 and gap > 0, tested on the computed gap itself, so
    a pair whose gap rounds to zero or below is a SupportError, like the
    boundary s^2 = n t: evaluating there is an error, not -inf.
    """
    if params.n < MIN_DENSITY_N:
        raise UnsupportedOrderError(
            f"closed-form joint density requires n >= {MIN_DENSITY_N}, got n={params.n}"
        )
    s, t = stats
    gap = t - s * s / params.n
    if not (t > 0.0 and gap > 0.0):
        raise SupportError(f"(s, t)=({s!r}, {t!r}) outside open support t - s^2/{params.n} > 0")
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
