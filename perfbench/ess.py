"""Integrated autocorrelation time of one chain (its ESS is N / tau_int).

Sokal's automatic windowing: the autocorrelation function comes from an FFT,
tau(M) = 1 + 2 * sum_{k=1..M} rho(k), and the window M is the smallest lag
with M >= c * tau(M).  With this convention an AR(1) series with coefficient
phi has tau = (1 + phi) / (1 - phi) and ESS = N / tau.

This file imports nothing from cwsoc, so it stays an independent oracle for
any diagnostics the package may grow.
"""

from __future__ import annotations

import numpy as np

SOKAL_C = 5.0


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation rho(0..N-1) of a 1-d series, via zero-padded FFT."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d series of at least two values")
    centered = x - x.mean()
    size = 1 << (2 * x.size - 1).bit_length()
    spectrum = np.fft.rfft(centered, n=size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), n=size)[: x.size]
    if acf[0] <= 0.0:
        raise ValueError("series is constant")
    return acf / acf[0]


def tau_int(x: np.ndarray) -> float:
    """Integrated autocorrelation time in units of the series' spacing."""
    taus = 2.0 * np.cumsum(autocorrelation(x)) - 1.0
    inside = np.arange(taus.size) < SOKAL_C * taus
    window = int(np.argmin(inside)) if not inside.all() else taus.size - 1
    return float(taus[window])

