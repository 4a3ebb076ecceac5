"""The quartic limit law C * exp(-x^4 / (4 sigma^4)) dx.

sigma is a pure scale: each quantity is computed in z = x/sigma under the
unit law and scaled once.  The CDF is 1/2 +- P(1/4, z^4/4)/2 with P the
regularized lower incomplete gamma (its far lower tail Q(1/4, z^4/4)/2, Q the
upper one), so the CDF and the quantile are closed forms in ``scipy.special``
and accept arrays.  The test suite checks the gamma functions used here
against adaptive quadrature of the defining integrals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammainc, gammaincc, gammainccinv, gammaincinv, gammaln

from .model import DomainError, integer_at_least, positive_real

__all__ = [
    "normalizer",
    "QuarticLaw",
]


def normalizer(sigma: float) -> float:
    """Total mass of exp(-x^4/(4 sigma^4)) dx, i.e. (sigma/sqrt(2)) * Gamma(1/4)."""
    return positive_real(sigma, "sigma") / math.sqrt(2.0) * float(gamma(0.25))


_LOG_UNIT_NORMALIZER = math.log(normalizer(1.0))
_LOG_DBL_MAX = math.log(sys.float_info.max)


def _unit_log_density(z: float) -> float:
    """Log density of the law at sigma = 1; -inf where z^4 overflows, as the density underflows there."""
    try:
        return -(z**4) / 4.0 - _LOG_UNIT_NORMALIZER
    except OverflowError:
        return -math.inf


@dataclass(frozen=True)
class QuarticLaw:
    """The distribution with density exp(-x^4/(4 sigma^4)) / ((sigma/sqrt 2) Gamma(1/4)).

    sigma may be any positive finite real except bool (numpy scalars
    included); it is stored as a Python float.  No power of sigma is formed,
    so a value overflows only where it exceeds the double range: the density,
    1/sigma times the unit density, for sigma below about 2e-309.
    """

    sigma: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", positive_real(self.sigma, "sigma"))

    def log_density(self, x: float) -> float:
        return _unit_log_density(x / self.sigma) - math.log(self.sigma)

    def density(self, x: float) -> float:
        return math.exp(_unit_log_density(x / self.sigma)) / self.sigma

    def cdf(self, x):
        """Exact CDF 1/2 +- P(1/4, z^4/4)/2, z = x/sigma; elementwise on arrays.

        Where z < 0 and z^4/4 > 2 the lower tail is Q(1/4, z^4/4)/2 instead,
        with Q = 1 - P the regularized upper incomplete gamma: 1/2 - P/2 would
        lose the tail to cancellation (0 at z = -4 against 9.7e-31).
        """
        x = np.asarray(x, dtype=float)
        z = x / self.sigma
        with np.errstate(over="ignore"):  # an infinite z^4 gives P = 1
            z_sq = z * z
            w = z_sq * z_sq / 4.0
            p_half = 0.5 * gammainc(0.25, w)
        cdf = np.where(x >= 0.0, 0.5 + p_half, 0.5 - p_half)
        tail = (z < 0.0) & (w > 2.0)
        cdf[tail] = 0.5 * gammaincc(0.25, w[tail])
        return cdf[()]

    def quantile(self, p):
        """Inverse CDF +-sigma (4 P^{-1}(1/4, |2p - 1|))^{1/4}; elementwise on arrays.

        The upper-half probability max(p, 1 - p) is what gets inverted, so
        quantile(1 - p) == -quantile(p) holds exactly for 2^-10 <= p <=
        1 - 2^-10.  Below 2^-10 the lower tail, the inverse of cdf's
        Q(1/4, z^4/4)/2, is -sigma (4 Q^{-1}(1/4, 2p))^{1/4} instead: |2p - 1|
        would lose its digits to cancellation (-inf at cdf(-3.5 sigma)).  The
        two forms give the same bits at p = 2^-10.  The far upper tail keeps
        the loss: 1 - p rounds to 1 for p within about 1.1e-16 of 1, whose
        quantile is then +inf.
        """
        # Here and in cdf, products and square roots stand in for numpy's
        # power, which can round differently on arrays than on scalars.
        probs = np.asarray(p, dtype=float)
        if not np.all((probs > 0.0) & (probs < 1.0)):
            raise DomainError(f"quantile requires p in (0, 1), got {p!r}")
        upper = np.maximum(probs, 1.0 - probs)
        w = np.where(probs < 2.0**-10, gammainccinv(0.25, 2.0 * probs), gammaincinv(0.25, 2.0 * upper - 1.0))
        magnitude = self.sigma * np.sqrt(np.sqrt(4.0 * w))
        return np.where(probs < 0.5, -magnitude, magnitude)[()]

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Exact draws: X = +/- sigma (4 G)^{1/4}, G ~ Gamma(1/4, 1), sign fair.

        Consumes the generator in a fixed order (gamma block, then sign block)
        so that draws are reproducible given the generator state; size=None
        draws one variate as size=1 does and returns it as a scalar.
        """
        g = rng.gamma(0.25, size=size)
        negative = rng.random(size) < 0.5
        # np.power takes a scalar g through the same loop as an array; Python's
        # float ** can round differently.
        magnitude = self.sigma * np.power(4.0 * g, 0.25)
        return np.where(negative, -magnitude, magnitude)[()]

    def even_moment(self, m: int) -> float:
        """E[X^{2m}] = sigma^{2m} 2^m Gamma((2m+1)/4) / Gamma(1/4); inf past
        the double range."""
        m = integer_at_least(m, "m", 1)
        log_unit = 0.5 * m * math.log(4.0) + gammaln((2 * m + 1) / 4.0) - gammaln(0.25)
        log_moment = log_unit + 2 * m * math.log(self.sigma)
        return math.exp(log_moment) if log_moment < _LOG_DBL_MAX else math.inf

    def moment(self, k: int) -> float:
        """E[X^k]; exactly 0 for odd k by symmetry."""
        k = integer_at_least(k, "k", 0)
        if k == 0:
            return 1.0
        if k % 2 == 1:
            return 0.0
        return self.even_moment(k // 2)
