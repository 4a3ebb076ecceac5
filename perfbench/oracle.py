"""Reference laws the output checks compare against, computed without cwsoc.

* ``quartic_cdf``: the sigma = 1 limit law exp(-x^4 / 4) through the
  regularized incomplete gamma function.
* ``FiniteLaw``: the exact law of s / n^(3/4) and the exact mean of t / n for
  the n-spin model at sigma = 1.  Under the untilted product measure s is
  N(0, n) and r = t - s^2/n is chi-square with n - 1 degrees of freedom,
  independent of s; the model tilts that pair by exp(s^2 / (2t)).  Both
  quantities follow from one quadrature grid over (s, r).
* ``ks_distance``: the one-sample Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

X_MAX = 5.0  # s/n^(3/4) range of the grid; the limit law's mass beyond it is below 1e-60
X_NODES, R_NODES = 1201, 3000  # FiniteLaw grid over s/n^(3/4) and r = t - s^2/n


def quartic_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    half = 0.5 * gammainc(0.25, x**4 / 4.0)
    return 0.5 + np.sign(x) * half


def ks_distance(samples: np.ndarray, cdf) -> float:
    x = np.sort(np.asarray(samples, dtype=float))
    f = cdf(x)
    i = np.arange(1, x.size + 1)
    return float(max((i / x.size - f).max(), (f - (i - 1) / x.size).max()))


class FiniteLaw:
    """Exact n-spin law of s/n^(3/4) (as a CDF) and E[t/n], for sigma = 1."""

    def __init__(self, n: int):
        k = n - 1
        x = np.linspace(-X_MAX, X_MAX, X_NODES)
        r = np.linspace(0.0, k + 40.0 * math.sqrt(2.0 * k), R_NODES + 1)[1:]
        s = x[:, None] * n**0.75
        t = r[None, :] + s * s / n
        log_w = -s * s / (2.0 * n) + (0.5 * k - 1.0) * np.log(r)[None, :] - 0.5 * r[None, :] + s * s / (2.0 * t)
        w = np.exp(log_w - log_w.max())
        density = w.sum(axis=1)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(x))))
        self._x = x
        self._cdf = cdf / cdf[-1]
        self.mean_t_scaled = float((w * t).sum() / w.sum() / n)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self._x, self._cdf)
