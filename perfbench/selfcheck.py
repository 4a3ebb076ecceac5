"""Checks the benchmark's own estimators against series whose answers are known.

    python3 perfbench/selfcheck.py

* tau_int on AR(1) series with tau = (1 + phi) / (1 - phi); the tolerance is
  four standard deviations of Sokal's estimator, sqrt(2 (2M + 1) / N) * tau
  with window M = 5 tau.
* ks_distance and quartic_cdf on exact draws from the quartic law.
* FiniteLaw's CDF at large n against the quartic limit, and E[t/n] = 1.
Exits 1 on the first failure.
"""

import math
import sys

import numpy as np

from ess import SOKAL_C, tau_int
from oracle import FiniteLaw, ks_distance, quartic_cdf


def ar1(phi: float, size: int, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(size)
    x = np.empty(size)
    x[0] = noise[0] / math.sqrt(1.0 - phi * phi)
    for i in range(1, size):
        x[i] = phi * x[i - 1] + noise[i]
    return x


def main() -> int:
    rng = np.random.default_rng(12345)
    failures = []
    size = 200_000
    for phi in (0.0, 0.5, 0.9, 0.98):
        tau = (1.0 + phi) / (1.0 - phi)
        got = tau_int(ar1(phi, size, rng))
        tol = 4.0 * math.sqrt(2.0 * (2.0 * SOKAL_C * tau + 1.0) / size) * tau
        print(f"AR(1) phi={phi}: tau {got:.3f}, exact {tau:.3f}, tolerance {tol:.3f}")
        if abs(got - tau) > tol:
            failures.append(f"tau_int for phi={phi}")

    # Quartic variates: |X|^4 / 4 is Gamma(1/4, 1), with a random sign.
    draws = (4.0 * rng.gamma(0.25, 1.0, 100_000)) ** 0.25 * rng.choice((-1.0, 1.0), 100_000)
    ks = ks_distance(draws, quartic_cdf)
    print(f"KS of exact quartic draws: {ks:.5f}")
    if ks > 1.95 / math.sqrt(draws.size):  # 0.1% Kolmogorov critical value
        failures.append("quartic_cdf / ks_distance")

    law = FiniteLaw(40_000)
    x = np.linspace(-3.0, 3.0, 61)
    gap = float(np.abs(law.cdf(x) - quartic_cdf(x)).max())
    print(f"n=40000 law vs quartic limit: {gap:.5f}; E[t/n] {law.mean_t_scaled!r}")
    if gap > 0.005 or abs(law.mean_t_scaled - 1.0) > 1e-9:
        failures.append("FiniteLaw")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
