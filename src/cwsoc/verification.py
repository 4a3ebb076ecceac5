"""Numerical verification machinery: complex-analytic identities, Fourier
inversion of the joint characteristic function, normalization constants and
the saddle-point constant asymptotics.

Design notes
------------
* Every quantity of size e^{+-n/2} * n^{n/2} is handled exclusively as a
  logarithm; exponentiation happens only on ratios expected to be O(1).
* Quadrature is built from nested adaptive 1-d rules.  The oscillatory
  Fourier-inversion integral uses QUADPACK's cosine/sine transforms on the
  outer axis and composite Gauss-Legendre panels (sized by a phase budget) on
  the inner axis; the inner truncation radius comes from the explicit modulus
  bound |Phi_n(u, v)| = exp(-n u^2 / (2(1+4v^2))) * (1+4v^2)^{-n/4}.  The
  whole outer integrand is compiled (``_kernel.c``, loaded on first use):
  QUADPACK calls it through scipy.LowLevelCallable, and it evaluates Phi_n
  only at anchor nodes, re-anchored every BLOCK_PANELS panels, filling in
  the other nodes by the exact Gaussian-in-u recurrence of Phi_n.  char_fn
  wraps the same C code.  The tests keep the numpy char_fn expression and
  the node-by-node numpy rule as their oracles.
  Phi_n(u, -v) = conj Phi_n(u, v), so only the v >= 0 half is integrated and
  the inverted density has no imaginary part to report.
* The closed-form density is one compiled function, cw_density, that
  density_closed_form wraps and the total-mass check hands to dblquad; it
  keeps the operations of the Python expression the tests hold as its
  oracle.  The complex suite's Gaussian-integral oracle is a trapezoid sum
  of the integrand through np.exp, apart from the closed form's principal
  log.  The raw route log_C_n_by_raw_quadrature integrates the model's
  own density and is the one quadrature left that calls Python at its
  nodes, so that the laplace suite never loads the kernel.  The
  normalization grids sum their exponentials in place, with the bits of
  scipy.special.logsumexp, which the tests keep as the oracle.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import LowLevelCallable
from scipy.integrate import dblquad, quad, trapezoid
from scipy.special import gammaln, roots_legendre

from ._native import kernel
from .limit_law import normalizer
from .model import DomainError, ModelParams, SupportError, UnsupportedOrderError, MIN_DENSITY_N, is_integer
from .model import log_joint_density_unnormalized, psi, psi_unchecked

__all__ = [
    "principal_log",
    "complex_pow",
    "complex_gaussian_integral",
    "gamma_law_cf",
    "char_fn",
    "density_closed_form",
    "invert_char_fn",
    "InversionResult",
    "InversionAccuracyError",
    "NormalizationEstimate",
    "NormalizationBoundError",
    "estimate_C_n",
    "log_C_n_by_raw_quadrature",
    "laplace_ratio",
    "psi_quadratic_expansion",
    "psi_expansion_check",
    "psi_grid_min_outside_box",
    "psi_quadratic_lower_bound_margin",
    "ks_statistic",
    "CheckReport",
    "run_suites",
    "SUITE_NAMES",
    "TOLERANCES",
    "DENSITY_ORDERS",
    "LAPLACE_ORDERS",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# complex arithmetic on the cut plane
# ---------------------------------------------------------------------------

def principal_log(z: complex) -> complex:
    """Principal complex logarithm on C minus the ray (-inf, 0].

    numpy's complex log, which is the C library's clog, the Log that char_fn
    and the inversion evaluate in ``_kernel.c``; not cmath.log, which rounds
    apart from it.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(f"principal log undefined on the branch cut, got {z!r}")
    return complex(np.log(z))


def complex_pow(z: complex, a: complex) -> complex:
    """z**a through the principal logarithm: exp(a * Log z)."""
    return cmath.exp(complex(a) * principal_log(z))


def complex_gaussian_integral(t: float, zeta: complex) -> complex:
    """Closed form of the Gaussian-Fourier integral of exp(i t x - zeta x^2 / 2).

    Valid for Re(zeta) > 0:
    sqrt(2 pi / Re zeta) * exp(-t^2 / (2 zeta)) * (1 + i Im/Re)^{-1/2}.
    """
    zeta = complex(zeta)
    if not zeta.real > 0.0:
        raise DomainError(f"requires Re(zeta) > 0, got {zeta!r}")
    prefactor = math.sqrt(_TWO_PI / zeta.real)
    return (
        prefactor
        * cmath.exp(-t * t / (2.0 * zeta))
        * complex_pow(complex(1.0, zeta.imag / zeta.real), -0.5)
    )


def gamma_law_cf(u: float, shape: float, scale: float) -> complex:
    """Characteristic function of the Gamma(shape, scale) law: (1 - i*scale*u)^{-shape}."""
    if not (shape > 0.0 and scale > 0.0):
        raise DomainError(f"shape and scale must be positive, got {shape!r}, {scale!r}")
    return complex_pow(complex(1.0, -scale * u), -shape)


def char_fn(u, v: float, n: int):
    """Joint characteristic function of the n-fold untilted (s, t) law at sigma = 1.

    exp(-(n/2) (u^2 / (1 - 2iv) + Log(1 - 2iv))); its modulus is
    exp(-n u^2 / (2(1+4v^2))) * (1+4v^2)^{-n/4}.  Elementwise in u: a complex
    array for an array of u, a Python complex for a scalar, with the same bits.
    Computed by cw_char_fn of the compiled kernel (``_kernel.c``), the code the
    inversion's inner rule evaluates.
    """
    n = _order(n, "char_fn", minimum=1)
    u = np.asarray(u, dtype=float, order="C")
    phi = np.empty(u.shape, dtype=complex)
    kernel().cw_char_fn(u.ctypes.data, u.size, float(v), n, phi.ctypes.data)
    return complex(phi) if phi.ndim == 0 else phi


# ---------------------------------------------------------------------------
# closed-form density of the untilted (s, t) law and its inversion oracle
# ---------------------------------------------------------------------------

def _order(n, what: str, minimum: int = MIN_DENSITY_N) -> int:
    """n as a Python int if it is an integer (numpy integers included, bool not)
    of at least minimum; DomainError or UnsupportedOrderError naming what otherwise."""
    if not is_integer(n):
        raise DomainError(f"{what} requires an integer order n, got {n!r}")
    if n < minimum:
        raise UnsupportedOrderError(f"{what} requires n >= {minimum}, got n={n}")
    return int(n)


@functools.lru_cache(maxsize=None, typed=True)
def _untilted_normalizer(n) -> tuple[int, float, float]:
    """(int(n), (1/2) log(2^n pi n), log Gamma((n-1)/2)): the order, checked
    once per order and type, and the two terms of the log normalizer of the
    untilted (s, t) density at sigma = 1, sqrt(2^n pi n) Gamma((n-1)/2)."""
    n = _order(n, "the closed-form density")
    return n, 0.5 * (n * math.log(2.0) + math.log(math.pi * n)), float(gammaln(0.5 * (n - 1)))


def density_closed_form(x: float, y: float, n: int) -> float:
    """Density of the n-fold untilted (s, t) law at sigma = 1; zero outside support.
    Computed by cw_density of the compiled kernel (``_kernel.c``), which takes
    _untilted_normalizer(n) as its data.  A non-finite x or y raises
    DomainError, as the model's density and the inversion do."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"the closed-form density needs finite (x, y), got ({x!r}, {y!r})")
    data = (ctypes.c_double * 3)(*_untilted_normalizer(n))
    return kernel().cw_density(2, (ctypes.c_double * 2)(y, x), data)


class InversionAccuracyError(RuntimeError):
    """The inversion quadrature could not meet the requested tolerance."""


class InversionResult(NamedTuple):
    value: float
    error_bound: float


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [-1, 1].

    scipy's banded Golub-Welsch route, not numpy's leggauss, whose dense
    eigensolver wakes the BLAS threads: in a fresh process that sometimes
    stalled for 0.1-0.9 s.  Against mpmath at m = 319 the nodes are within
    1.6e-16 and the weights within 5.7e-10 relative (at the two end nodes;
    leggauss: 4.3e-11).
    """
    return roots_legendre(m)


# The inner u-integral of the Fourier inversion stops at q = Q_WIDTHS Gaussian
# widths of |Phi_n|, on equal panels of PANEL_NODES (at most CW_LANES = 8 of
# ``_kernel.c``) Gauss-Legendre nodes that each span at most PANEL_PHASE
# radians of the integrand's total phase.  The compiled rule re-anchors its
# recurrence at the start of every block of BLOCK_PANELS panels: run over all
# panels from one anchor pair, the recurrence drifted to 2.0e-10 of
# int |Phi_n| du from the closed form at (n=64, x=21.4, v=1e3), against
# 1.5e-11 for the node-by-node rule.
Q_WIDTHS = 7.5
PANEL_NODES = 8
PANEL_PHASE = 8.0
BLOCK_PANELS = 32
# invert_char_fn's panel budget of the inner rule at v = pi/|y - x^2/n|
FIRST_CYCLE_PANELS = 2**14


class _InnerRule(ctypes.Structure):
    """The cw_rule of ``_kernel.c``: the constants above and the reference panel."""

    _fields_ = [
        ("q_widths", ctypes.c_double),
        ("panel_phase", ctypes.c_double),
        ("block", ctypes.c_int64),
        ("nodes", ctypes.c_int64),
        ("ref_nodes", ctypes.c_void_p),
        ("weights", ctypes.c_void_p),
    ]


@functools.cache
def _inner_rule() -> _InnerRule:
    # the node arrays stay alive in _gauss_legendre's cache
    ref_nodes, weights = _gauss_legendre(PANEL_NODES)
    return _InnerRule(Q_WIDTHS, PANEL_PHASE, BLOCK_PANELS, PANEL_NODES, ref_nodes.ctypes.data, weights.ctypes.data)


def _inner_cos_integral(x: float, v: float, n: int) -> complex:
    """int_R e^{-ixu} Phi_n(u, v) du = 2 int_0^U cos(xu) Phi_n(u, v) du.

    U = q * sqrt((1+4v^2)/n) truncates at q Gaussian widths of |Phi_n|.
    [0, U] is cut into 6 + floor(phase / PANEL_PHASE) equal panels of width h,
    where phase = |x| U + q^2 |v| is the total phase of the integrand on
    [0, U], so each PANEL_NODES-node Gauss-Legendre panel spans at most
    PANEL_PHASE radians, about 1.3 oscillation periods.

    The compiled cw_inner_cos (``_kernel.c``) evaluates Phi_n only at anchors:
    u = 0, h, 2h and the nodes of the first two panels of every block of
    BLOCK_PANELS panels.  It fills in the other nodes of each block by the
    exact Gaussian-in-u recurrence Phi(u + h) = Phi(u) R, R <- R D with
    D = Phi(2h) Phi(0) / Phi(h)^2, rotates e^{ixu} by e^{ixh}, and sums the
    panels node by node before weighting.  Re-anchoring every block bounds
    the rounding the recurrence accumulates.  On the probe grid of the tests,
    the result stays within 1e-12 of int |Phi_n(u, v)| du of the same rule
    evaluated by numpy at every node, its reference oracle, and within 1e-10
    of that integral of the closed Gaussian form.  Blocks whose anchors fall
    below the normal range run the previous block's recurrence on, and where
    every anchor underflows the result is 0j, as the node-by-node rule gives.
    Negating v conjugates every anchor and so, bit for bit, the result.
    """
    out = (ctypes.c_double * 2)()
    if not kernel().cw_inner_cos(ctypes.byref(_inner_rule()), float(x), float(v), int(n), out):
        raise DomainError(f"the inner rule at (x={x!r}, v={v!r}, n={n}) needs 2^62 panels or more")
    return complex(out[0], out[1])


class _OuterIntegrand:
    """The outer integrand h(v) = e^{-icv} I(x, v, n), c = x^2/n, of one
    inversion, where I is _inner_cos_integral.  ``re`` and ``im`` are Re h and
    Im h as scipy.LowLevelCallable objects over one compiled cw_outer
    (``_kernel.c``), so QUADPACK calls C, and the two share a cache that
    evaluates I once per distinct v.  Leaving the context frees the cw_outer.
    """

    def __init__(self, x: float, n: int):
        self._lib = kernel()
        self.data = ctypes.c_void_p(self._lib.cw_outer_new(ctypes.byref(_inner_rule()), float(x), int(n)))
        if not self.data:
            raise MemoryError("cannot allocate the outer integrand of the inversion")
        self.re = LowLevelCallable(self._lib.cw_outer_re, self.data)
        self.im = LowLevelCallable(self._lib.cw_outer_im, self.data)

    def evaluations(self) -> int:
        """The number of inner rules evaluated so far, or -1 once one failed
        (h was then NaN there)."""
        return self._lib.cw_outer_evaluations(self.data)

    def __enter__(self) -> "_OuterIntegrand":
        return self

    def __exit__(self, *exc_info) -> None:
        self._lib.cw_outer_free(self.data)


def _abs_cf_v_integral(n: int) -> float:
    """int_R (1 + 4 v^2)^{-(n-2)/4} dv, used in the truncation error budget."""
    p = 0.25 * (n - 2)
    return 0.5 * math.sqrt(math.pi) * math.exp(gammaln(p - 0.5) - gammaln(p))


def _qawf(
    f: Callable[[float], float] | LowLevelCallable, omega: float, kind: str, epsabs: float
) -> tuple[float, float]:
    """QUADPACK Fourier transform int_0^inf f(v) * cos/sin(omega v) dv."""
    out = quad(
        f,
        0.0,
        np.inf,
        weight=kind,
        wvar=omega,
        epsabs=epsabs,
        limlst=200,
        limit=150,
        maxp1=80,
        full_output=1,
    )
    return out[0], out[1]


def invert_char_fn(x: float, y: float, n: int, tol: float) -> InversionResult:
    """Density at (x, y) by 2-d quadrature of the Fourier-inversion integral.

    The characteristic function is integrable only for n >= 5.  The outer
    (oscillatory) axis is handled as an infinite Fourier transform with net
    frequency |y - x^2/n| after factoring the known linear phase x^2 v / n out
    of the inner integral; at frequency 0 (y == x^2/n) QUADPACK's QAWF
    integrates the cosine pass by QAGI and returns 0 for the sine pass.
    Phi_n(u, -v) = conj Phi_n(u, v), so the v < 0 half of the outer
    integrand is the conjugate of the v > 0 half: only v >= 0 is integrated
    and the imaginary parts cancel exactly; the report's
    density/inversion_conjugate_mirror checks that the inner integral keeps
    this symmetry bit for bit.  The outer integrand is _OuterIntegrand's
    compiled h, so the passes call no Python.  error_bound covers the
    truncation of the inner integral at Q_WIDTHS widths and the error
    estimates of the two QAWF passes; it leaves out the inner Gauss-Legendre
    rule, whose error tests/test_verification.py bounds by 1e-10 of
    int |Phi_n(u, v)| du.
    Raises InversionAccuracyError if the error bound exceeds tol; before any
    quadrature if the truncation term alone does, or if w = y - x^2/n != 0 is
    so small that the inner rule at the end of the first cycle, v = pi/|w|,
    needs more than FIRST_CYCLE_PANELS = 2^14 panels (about 7 v): run time
    grows as 1/|w|, and at |w| = 1e-4 the error estimate was 20 times short.
    """
    n = _order(n, "Fourier inversion")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    # QUADPACK's Fourier transform crashes the interpreter on a non-finite
    # frequency or integrand value; w is not finite where x or y is not
    w = y - x * x / n
    if not math.isfinite(w):
        raise DomainError(f"Fourier inversion requires a finite point and y - x^2/n, got (x={x!r}, y={y!r})")
    inv_four_pi_sq = 1.0 / (_TWO_PI * _TWO_PI)
    # Truncation of the inner integral at q Gaussian widths.  The quadrature
    # error only adds to this term, so a tol below it cannot be met.
    u_tail = math.exp(-0.5 * Q_WIDTHS * Q_WIDTHS) * math.sqrt(_TWO_PI / n) * _abs_cf_v_integral(n)
    truncation = inv_four_pi_sq * u_tail
    if truncation > tol:
        raise InversionAccuracyError(
            f"inversion at (x={x!r}, y={y!r}, n={n}): truncation error "
            f"{truncation:.3e} alone exceeds tol {tol:.3e}"
        )
    if w != 0.0:
        v_end = math.pi / abs(w)
        phase = abs(x) * Q_WIDTHS * math.sqrt((1.0 + 4.0 * v_end * v_end) / n) + Q_WIDTHS * Q_WIDTHS * v_end
        if not 6.0 + phase / PANEL_PHASE < FIRST_CYCLE_PANELS + 1:
            raise InversionAccuracyError(
                f"inversion at (x={x!r}, y={y!r}, n={n}): |y - x^2/n| = {abs(w):.3e} is so small that the "
                f"inner rule needs more than {FIRST_CYCLE_PANELS} panels at v = {v_end:.3e}"
            )
    # The v < 0 half doubles Re h against cos(wv) and Im h against sin(wv),
    # and cancels the other two products.  QUADPACK's subdivision, and with
    # it every bit of the value, depends on epsabs = tol / 12.
    eps_component = tol / 12.0
    with _OuterIntegrand(x, n) as h:
        cos_re, e_cos = _qawf(h.re, abs(w), "cos", eps_component)
        sin_im, e_sin = _qawf(h.im, abs(w), "sin", eps_component)
        total = (cos_re + cos_re) + math.copysign(1.0, w) * (sin_im + sin_im)
        err = e_cos + e_sin
        if h.evaluations() < 0:
            raise InversionAccuracyError(
                f"inversion at (x={x!r}, y={y!r}, n={n}): the inner rule needs 2^62 panels or more at some v"
            )

    error_bound = inv_four_pi_sq * 2.0 * err + truncation
    if error_bound > tol:
        raise InversionAccuracyError(
            f"inversion at (x={x!r}, y={y!r}, n={n}) reached error bound "
            f"{error_bound:.3e} > tol {tol:.3e}"
        )
    return InversionResult(total * inv_four_pi_sq, error_bound)


def inversion_probe_points(n: int) -> list[tuple[float, float]]:
    """Twelve in-support probe points spread over the bulk of the density."""
    points = []
    for y_mult in (0.7, 1.0, 1.3, 1.8):
        y = y_mult * n
        for frac in (0.0, 0.4, 0.75):
            points.append((frac * math.sqrt(n * y), y))
    return points


# ---------------------------------------------------------------------------
# normalization constants and the saddle-point constant asymptotics
# ---------------------------------------------------------------------------

class NormalizationBoundError(RuntimeError):
    """An estimated log Z_n escaped [0, n/2]; this signals an implementation bug."""


@dataclass(frozen=True)
class NormalizationEstimate:
    n: int
    log_C_n: float
    log_Z_n: float
    quadrature_error_bound: float


CUTOFF_MARGIN = 60.0


@functools.cache
def _rescaled_cutoffs(n: int) -> tuple[float, float]:
    """Window [0, X] x [., y_hi] outside which exp(-n(psi - 1/2)) < e^{-CUTOFF_MARGIN}.

    psi is increasing in its first argument, so the y cutoff only needs the
    x = 0 section (y - ln y)/2.
    """
    y_offsets = np.geomspace(1e-4, 80.0, 500)
    a = 0.25
    while n * (psi_unchecked(a, a + y_offsets).min() - 0.5) < CUTOFF_MARGIN and a < 1e6:
        a *= 1.5
    x_cut = math.sqrt(a * math.sqrt(n))
    target = 1.0 + 2.0 * CUTOFF_MARGIN / n
    y_hi = 2.0
    while y_hi - math.log(y_hi) < target:
        y_hi *= 1.5
    return x_cut, y_hi


def _rescaled_log_terms(n: int, nodes: int) -> np.ndarray:
    """The logarithms of the weighted terms of _log_rescaled_mass's grid, a
    fresh nodes x nodes array.

    With rho_j = r_j + 1 for the reference nodes r_j and weights w_j, node i
    of the x axis on [0, x_cut] maps to a_i = (h_x rho_i)^2 / sqrt(n), and
    node j of its y column on [a_i, y_hi] to y_ij = a_i + h_i rho_j with
    h_i = (y_hi - a_i)/2.  So y_ij - a_i = h_i rho_j, and the logarithm of each
    weighted term splits into -(n/2)(y_ij - a_i/y_ij) + R_i + K_j, with
    R_i = ((n-1)/2) log h_i + log(h_x w_i) + log 2 (evenness in x) and
    K_j = ((n-3)/2) log rho_j + log w_j: only the rational part is evaluated
    on the full grid, and y - a is never formed by a cancelling subtraction.
    """
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
    for i in range(0, nodes, 32):  # no grid-sized temporary for the quotient
        block = log_terms[i:i + 32]
        block -= a[i:i + 32, None] / block
    log_terms *= -0.5 * n
    log_terms += row[:, None]
    log_terms += column
    return log_terms


def _log_rescaled_mass(n: int, nodes: int) -> float:
    """log of the integral of exp(-n psi(x^2/sqrt(n), y)) (y - x^2/sqrt(n))^{-3/2}
    over the rescaled (critical-exponent) coordinates, by tensorized
    Gauss-Legendre with a log-sum-exp accumulation: the grid is shifted by its
    maximum and exponentiated in place.  On the 54 grids of the report this
    gives scipy.special.logsumexp's bits, which the tests keep as its oracle.
    """
    log_terms = _rescaled_log_terms(n, nodes)
    top = log_terms.max()
    log_terms -= top
    np.exp(log_terms, out=log_terms)
    return float(top + math.log(log_terms.sum()))


# Gauss-Legendre nodes per axis: estimate_C_n's coarse grid (its fine grid has
# 1.45 times as many) and laplace_ratio's grid.
C_N_NODES = 220
LAPLACE_RATIO_NODES = 240


def estimate_C_n(n: int) -> NormalizationEstimate:
    """Joint-density normalization constant, via log-space quadrature in
    rescaled coordinates (x/n^{3/4}, y/n); also derives log Z_n and enforces
    the convexity bound 0 <= log Z_n <= n/2."""
    n = _order(n, "normalization estimate")
    coarse = _log_rescaled_mass(n, C_N_NODES)
    fine = _log_rescaled_mass(n, int(1.45 * C_N_NODES))
    quad_err = abs(fine - coarse) + 1e-13
    log_c = (1.75 + 0.5 * (n - 3)) * math.log(n) + fine
    # log Z_n = log C_n minus the log normalizer of the untilted density
    _, log_sqrt_2n_pi_n, log_gamma = _untilted_normalizer(n)
    log_z = log_c - log_sqrt_2n_pi_n - log_gamma
    if not 0.0 <= log_z <= 0.5 * n:
        raise NormalizationBoundError(
            f"log Z_{n} = {log_z!r} escaped [0, {0.5 * n}]; implementation bug"
        )
    return NormalizationEstimate(n, log_c, log_z, quad_err)


def _support_dblquad(integrand, n: int, epsabs: float, epsrel: float) -> float:
    """Twice dblquad's integral of integrand(y, x) over 0 <= x <= x_cut n^{3/4},
    x^2/n <= y <= y_hi n: the x >= 0 half of _rescaled_cutoffs's window in
    raw coordinates, doubled by evenness in x."""
    x_cut, y_hi = _rescaled_cutoffs(n)
    val, _ = dblquad(integrand, 0.0, x_cut * n**0.75, lambda x: x * x / n, y_hi * n, epsabs=epsabs, epsrel=epsrel)
    return 2.0 * val


def log_C_n_by_raw_quadrature(n: int) -> float:
    """Second, independent route to log C_n: adaptive 2-d quadrature, in raw
    coordinates, of the model's own density model.log_joint_density_unnormalized
    at sigma = 1, 0 off its support.  Only sensible for small n, where the
    integrand fits ordinary double precision."""
    params = ModelParams(_order(n, "raw-coordinate quadrature"), 1.0)

    def integrand(y: float, x: float) -> float:
        try:
            return math.exp(log_joint_density_unnormalized((x, y), params))
        except SupportError:
            return 0.0

    return math.log(_support_dblquad(integrand, params.n, epsabs=1e-12, epsrel=1e-10))


def laplace_ratio(n: int) -> float:
    """Ratio of C_n to its saddle-point asymptotic equivalent
    n^{7/4} n^{(n-3)/2} sqrt(4 pi / n) e^{-n/2} * (total quartic mass);
    tends to 1 as n grows."""
    n = _order(n, "laplace ratio")
    log_mass = _log_rescaled_mass(n, LAPLACE_RATIO_NODES)
    log_rhs = 0.5 * math.log(4.0 * math.pi / n) - 0.5 * n + math.log(normalizer(1.0))
    return math.exp(log_mass - log_rhs)


# ---------------------------------------------------------------------------
# geometry of the Laplace exponent near its minimum
# ---------------------------------------------------------------------------

def psi_quadratic_expansion(h: float) -> tuple[tuple[float, float], tuple[float, float, float]]:
    """Central finite differences of psi at (0, 1): ((g_x, g_y), (H_xx, H_yy, H_xy))."""
    if not 0.0 < h < 0.1:
        raise DomainError(f"step must lie in (0, 0.1), got {h!r}")

    def f(x: float, y: float) -> float:
        return float(psi_unchecked(x, y))  # the stencil steps to x = -h, off the wedge

    f00 = f(0.0, 1.0)
    g_x = (f(h, 1.0) - f(-h, 1.0)) / (2.0 * h)
    g_y = (f(0.0, 1.0 + h) - f(0.0, 1.0 - h)) / (2.0 * h)
    h_xx = (f(h, 1.0) - 2.0 * f00 + f(-h, 1.0)) / (h * h)
    h_yy = (f(0.0, 1.0 + h) - 2.0 * f00 + f(0.0, 1.0 - h)) / (h * h)
    h_xy = (f(h, 1.0 + h) - f(h, 1.0 - h) - f(-h, 1.0 + h) + f(-h, 1.0 - h)) / (4.0 * h * h)
    return (g_x, g_y), (h_xx, h_yy, h_xy)


def psi_expansion_check(h: float) -> "CheckReport":
    """Single report on the quadratic expansion of psi at (0, 1).

    Deviations are normalized by tolerances of size O(h^2) plus the roundoff
    floor of a second difference, so the reported value should stay below 1.
    """
    (g_x, g_y), (h_xx, h_yy, h_xy) = psi_quadratic_expansion(h)
    grad_tol = 4.0 * (h * h + 1e-16 / h)
    hess_tol = 40.0 * (h * h + 4e-16 / (h * h))
    deviation = max(
        abs(g_x) / grad_tol,
        abs(g_y) / grad_tol,
        abs(h_xx - 0.5) / hess_tol,
        abs(h_yy - 0.5) / hess_tol,
        abs(h_xy) / hess_tol,
    )
    return CheckReport(
        name="laplace/psi_expansion[h={:g}]".format(h),
        value=deviation,
        expected=0.0,
        tolerance=1.0,
        passed=deviation <= 1.0,
        details=(
            "absolute, normalized: max FD deviation over gradient (tol {:.2e}) and "
            "Hessian vs diag(1/2, 1/2) (tol {:.2e}); grad=({:.3e}, {:.3e}), "
            "hess=({:.8f}, {:.8f}, cross {:.3e})".format(
                grad_tol, hess_tol, g_x, g_y, h_xx, h_yy, h_xy
            )
        ),
    )


def _min_over_row_blocks(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], xs: np.ndarray, ys: np.ndarray
) -> float:
    """Minimum of f(x[:, None], y[None, :]) over the grid xs x ys, 32 rows at a time.

    No temporary spans the whole grid.  Every element goes through the same
    elementwise ufunc arithmetic as on the whole grid, and a minimum is exact in
    any order, so the value is the whole grid's, bit for bit.
    """
    yg = ys[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return min(float(f(xs[i:i + 32, None], yg).min()) for i in range(0, xs.size, 32))


# psi_grid_min_outside_box: half-width of the box at (0, 1) it leaves out, and
# its GRID_M x GRID_M grid of the window [0, GRID_X_MAX] x [1e-6, GRID_Y_MAX].
BOX_DELTA = 0.1
GRID_X_MAX = 6.0
GRID_Y_MAX = 8.0
GRID_M = 600


def psi_grid_min_outside_box() -> float:
    """Minimum of psi over a fine grid of the wedge minus the BOX_DELTA-box at (0, 1).

    Beyond the window [0, 6] x [1e-6, 8] psi exceeds 2.9, so the grid minimum
    is the global one.  The grid is taken in blocks of rows (_min_over_row_blocks).
    """
    def psi_outside_box(xg, yg):
        outside_box = (np.abs(xg) >= BOX_DELTA) | (np.abs(yg - 1.0) >= BOX_DELTA)
        return np.where((yg > xg) & outside_box, psi_unchecked(xg, yg), np.inf)

    return _min_over_row_blocks(
        psi_outside_box, np.linspace(0.0, GRID_X_MAX, GRID_M), np.linspace(1e-6, GRID_Y_MAX, GRID_M)
    )


# psi_quadratic_lower_bound_margin: half-width delta* of its box at (0, 1),
# sampled on BOUND_GRID_M x (BOUND_GRID_M + 1) points.
DELTA_STAR = 0.5
BOUND_GRID_M = 400


def psi_quadratic_lower_bound_margin() -> float:
    """min over the DELTA_STAR-box of [psi - 1/2 - (x^2 + (y-1)^2)/8]; nonnegative
    means the local quadratic lower bound holds on that box.  The grid is taken
    in blocks of rows (_min_over_row_blocks)."""
    def margin(xg, yg):
        bound = psi_unchecked(xg, yg) - 0.5 - (xg * xg + (yg - 1.0) ** 2) / 8.0
        return np.where(yg > xg, bound, np.inf)

    return _min_over_row_blocks(
        margin,
        np.linspace(0.0, DELTA_STAR, BOUND_GRID_M, endpoint=False),
        np.linspace(1.0 - DELTA_STAR, 1.0 + DELTA_STAR, BOUND_GRID_M + 1),
    )


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def ks_statistic(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS distance between a sorted finite sample and a reference CDF.

    ``cdf`` is called once, on the whole sorted sample as a float array, and
    must return the CDF at every sample in an array of the same shape (as
    ``QuarticLaw.cdf`` does); wrap a scalar-only CDF in ``np.vectorize``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("samples must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainError("samples must be finite")
    if np.any(np.diff(arr) < 0.0):
        raise DomainError("samples must be sorted in nondecreasing order")
    n = arr.size
    f_vals = np.asarray(cdf(arr), dtype=float)
    if f_vals.shape != arr.shape:
        raise DomainError(f"cdf returned shape {f_vals.shape} for {arr.shape} samples")
    i = np.arange(1, n + 1, dtype=float)
    upper = float((i / n - f_vals).max())
    lower = float((f_vals - (i - 1.0) / n).max())
    return max(upper, lower)


# ---------------------------------------------------------------------------
# check reports and suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """One named verification result; pass iff |value - expected| <= tolerance
    (interpreted absolutely or relatively as stated in details)."""

    name: str
    value: float
    expected: float
    tolerance: float
    passed: bool
    details: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "details": self.details,
        }


def _abs_check(name: str, value: float, expected: float, tol: float, details: str = "") -> CheckReport:
    note = "absolute" + (f"; {details}" if details else "")
    return CheckReport(name, value, expected, tol, abs(value - expected) <= tol, note)


def _rel_check(name: str, value: float, expected: float, tol: float, details: str = "") -> CheckReport:
    note = "relative" + (f"; {details}" if details else "")
    return CheckReport(name, value, expected, tol, abs(value - expected) <= tol * abs(expected), note)


def _margin_check(name: str, shortfall: float, details: str) -> CheckReport:
    # one-sided condition: value is the clipped shortfall, zero when satisfied
    return CheckReport(name, max(0.0, shortfall), 0.0, 0.0, shortfall <= 0.0, "absolute; " + details)


_GAUSS_INTEGRAL_GRID_T = (0.0, 1.0, 2.5)
_GAUSS_INTEGRAL_GRID_ZETA = (1.0 + 0.0j, 1.0 + 2.0j, 1.0 - 2.0j, 0.2 + 3.0j)
# Points of the Gaussian-integral oracle's trapezoid sum.  Its integrand is
# analytic and decays like a Gaussian, so the sum converges geometrically in
# the spacing (Trefethen and Weideman, SIAM Review 56(3), 2014).  Largest
# |closed form - sum| over the grid above: 7.7e-10 at 257 points, 1.3e-15 at
# 513 and 2.7e-15 here, at half that spacing.
_GAUSS_INTEGRAL_POINTS = 1025


def _gaussian_integral_by_quadrature(t: float, zeta: complex) -> complex:
    """The integral of exp(i t x - zeta x^2 / 2) by the trapezoid sum of
    np.exp at _GAUSS_INTEGRAL_POINTS equally spaced points."""
    zeta = complex(zeta)
    # envelope exp(-Re(zeta) x^2 / 2) below 1e-13 at the cutoff
    cutoff = max(12.0, math.sqrt(60.0 / zeta.real))
    x = np.linspace(-cutoff, cutoff, _GAUSS_INTEGRAL_POINTS)
    return complex(trapezoid(np.exp(1j * t * x - 0.5 * zeta * x * x), x))


def suite_complex(tols: Mapping[str, float]) -> list[CheckReport]:
    reports: list[CheckReport] = []
    reports.append(_abs_check("complex/log_at_unity", abs(principal_log(1.0 + 0.0j)), 0.0, 1e-15))
    reports.append(
        _abs_check("complex/log_at_i", abs(principal_log(1j) - 0.5j * math.pi), 0.0, 1e-15)
    )
    rng = np.random.Generator(np.random.PCG64(20240917))
    worst = 0.0
    for re, im in rng.uniform(-4, 4, size=(1000, 2)).tolist():
        z = complex(re, im)
        if z.imag == 0.0 and z.real <= 0.0:
            continue
        expected = complex(0.5 * math.log(abs(z) ** 2), math.atan2(z.imag, z.real))
        worst = max(worst, abs(principal_log(z) - expected))
    reports.append(
        _abs_check("complex/log_vs_atan2_oracle", worst, 0.0, 1e-13,
                   "max error over 1000 random points off the cut")
    )
    z0 = complex(1.3, -0.7)
    reports.append(_abs_check("complex/pow_exponent_one", abs(complex_pow(z0, 1.0) - z0), 0.0, 1e-14))
    reports.append(_abs_check("complex/pow_exponent_zero", abs(complex_pow(z0, 0.0) - 1.0), 0.0, 1e-15))
    polar = 2.0 ** -0.25 * cmath.exp(-1j * math.pi / 8.0)
    reports.append(
        _abs_check("complex/pow_vs_polar_form", abs(complex_pow(1.0 + 1.0j, -0.5) - polar), 0.0, 1e-14)
    )
    for t in _GAUSS_INTEGRAL_GRID_T:
        for zeta in _GAUSS_INTEGRAL_GRID_ZETA:
            closed = complex_gaussian_integral(t, zeta)
            oracle = _gaussian_integral_by_quadrature(t, zeta)
            reports.append(
                _abs_check(
                    f"complex/gaussian_integral[t={t:g},zeta={zeta:g}]",
                    abs(closed - oracle),
                    0.0,
                    tols["complex_quad_tol"],
                    "closed form vs trapezoid sum, envelope-scaled cutoff",
                )
            )
    reports.append(_abs_check("complex/gamma_cf_at_zero", abs(gamma_law_cf(0.0, 2.3, 1.7) - 1.0), 0.0, 1e-15))
    worst = 0.0
    for u in (-3.0, -0.5, 0.1, 2.0):
        theta = 1.3
        worst = max(worst, abs(gamma_law_cf(u, 1.0, theta) - 1.0 / complex(1.0, -theta * u)))
    reports.append(_abs_check("complex/gamma_cf_exponential_case", worst, 0.0, 1e-14))
    worst = 0.0
    for u in (-2.0, 0.7, 5.0):
        k, theta = 0.8, 2.2
        worst = max(worst, abs(abs(gamma_law_cf(u, k, theta)) - (1.0 + theta**2 * u**2) ** (-k / 2.0)))
    reports.append(_abs_check("complex/gamma_cf_modulus_identity", worst, 0.0, 1e-14))
    reports.append(_abs_check("complex/char_fn_at_origin", abs(char_fn(0.0, 0.0, 7) - 1.0), 0.0, 1e-15))
    worst = 0.0
    for u in (0.3, 1.1):
        for n in (2, 6):
            worst = max(worst, abs(char_fn(u, 0.0, n) - math.exp(-0.5 * n * u * u)))
    reports.append(_abs_check("complex/char_fn_gaussian_marginal", worst, 0.0, 1e-14))
    reports.append(
        _abs_check("complex/char_fn_hand_value", abs(char_fn(0.0, 0.5, 2) - (0.5 + 0.5j)), 0.0, 1e-14)
    )
    worst = 0.0
    for n in range(1, 11):
        for u, v in ((0.4, -0.8), (1.2, 0.3)):
            powered = complex(1.0, 0.0)
            base = char_fn(u, v, 1)
            for _ in range(n):
                powered *= base
            worst = max(worst, abs(char_fn(u, v, n) - powered))
    reports.append(
        _abs_check("complex/char_fn_power_consistency", worst, 0.0, 1e-10,
                   "n-fold product of the one-variable factor, n <= 10")
    )
    worst = 0.0
    for u, v, n in ((0.5, 1.5, 5), (2.0, -0.7, 8), (0.0, 3.0, 6)):
        expected = math.exp(-n * u * u / (2.0 * (1.0 + 4.0 * v * v))) * (1.0 + 4.0 * v * v) ** (-n / 4.0)
        worst = max(worst, abs(abs(char_fn(u, v, n)) - expected))
    reports.append(_abs_check("complex/char_fn_modulus_identity", worst, 0.0, 1e-13))
    return reports


def _closed_form_mass(n: int) -> float:
    """Total mass of the closed-form density by nested adaptive quadrature;
    QUADPACK calls the compiled density (cw_density) through
    scipy.LowLevelCallable."""
    data = (ctypes.c_double * 3)(*_untilted_normalizer(n))
    density = LowLevelCallable(kernel().cw_density, ctypes.cast(data, ctypes.c_void_p))
    return _support_dblquad(density, n, epsabs=1e-10, epsrel=1e-9)


def suite_density(n_values: Iterable[int], tols: Mapping[str, float]) -> list[CheckReport]:
    inversion_tol = tols["inversion_tol"]
    reports: list[CheckReport] = []
    for n in n_values:
        probes = inversion_probe_points(n)
        x_out, y_out = 1.5 * math.sqrt(n * 0.8 * n), 0.8 * n
        worst = 0.0
        worst_point = None
        for x, y in probes:
            res = invert_char_fn(x, y, n, tol=min(1e-4, inversion_tol / 4.0))
            err = abs(res.value - density_closed_form(x, y, n))
            if err > worst:
                worst = err
                worst_point = (x, y)
        reports.append(
            _abs_check(
                f"density/inversion_vs_closed_form[n={n}]",
                worst,
                0.0,
                inversion_tol,
                f"max abs error over 12 in-support probes; worst at {worst_point}",
            )
        )
        # integrating v >= 0 only rests on this mirror holding bit for bit
        mirror = np.max([
            abs(_inner_cos_integral(x, -v, n) - _inner_cos_integral(x, v, n).conjugate())
            for x, _ in (*probes, (x_out, y_out))
            for v in (0.1, 1.0, 10.0)
        ])
        reports.append(
            _abs_check(
                f"density/inversion_conjugate_mirror[n={n}]",
                float(mirror),
                0.0,
                0.0,
                "max |I(x, -v) - conj I(x, v)| of the inner u-integral over the 13 probes, v in {0.1, 1, 10}",
            )
        )
        res = invert_char_fn(x_out, y_out, n, tol=min(1e-4, inversion_tol / 4.0))
        reports.append(
            _abs_check(
                f"density/inversion_outside_support[n={n}]",
                abs(res.value),
                0.0,
                inversion_tol,
                f"probe ({x_out:.3f}, {y_out:.3f}) has x^2 > n y; closed form is 0 there",
            )
        )
    reports.append(
        _abs_check(
            "density/closed_form_total_mass[n=6]",
            _closed_form_mass(6),
            1.0,
            tols["density_mass_tol"],
            "2-d adaptive quadrature over the support",
        )
    )
    return reports


def suite_laplace(n_values: Iterable[int], tols: Mapping[str, float]) -> list[CheckReport]:
    reports: list[CheckReport] = []
    reports.append(_abs_check("laplace/psi_minimum_value", psi(0.0, 1.0), 0.5, 1e-14))
    (g_x, g_y), (h_xx, h_yy, h_xy) = psi_quadratic_expansion(1e-4)
    reports.append(
        _abs_check("laplace/psi_gradient_at_minimum", max(abs(g_x), abs(g_y)), 0.0, 1e-6)
    )
    reports.append(
        _abs_check(
            "laplace/psi_hessian_at_minimum",
            max(abs(h_xx - 0.5), abs(h_yy - 0.5), abs(h_xy)),
            0.0,
            1e-4,
            "finite differences at step 1e-4 vs diag(1/2, 1/2) with zero cross term",
        )
    )
    reports.append(psi_expansion_check(1e-4))
    grid_min = psi_grid_min_outside_box()
    reports.append(
        _margin_check(
            "laplace/psi_grid_min_outside_box",
            0.5 - grid_min,
            f"grid min {grid_min!r} outside the {BOX_DELTA}-box must exceed 0.5",
        )
    )
    margin = psi_quadratic_lower_bound_margin()
    reports.append(
        _margin_check(
            f"laplace/psi_quadratic_lower_bound[delta*={DELTA_STAR}]",
            -margin,
            f"calibrated delta* = {DELTA_STAR}; min of psi - 1/2 - r^2/8 on the box is {margin!r}",
        )
    )
    estimates = {n: estimate_C_n(n) for n in n_values}
    for n, est in estimates.items():
        shortfall = max(0.0 - est.log_Z_n, est.log_Z_n - 0.5 * n, 0.0)
        reports.append(
            _margin_check(
                f"laplace/normalization_bound[n={n:02d}]",
                shortfall,
                f"log Z_n = {est.log_Z_n!r} must lie in [0, {0.5 * n}]; "
                f"quadrature error bound {est.quadrature_error_bound:.2e}",
            )
        )
    est5 = estimates[5] if 5 in estimates else estimate_C_n(5)
    raw5 = log_C_n_by_raw_quadrature(5)
    reports.append(
        _rel_check(
            "laplace/normalization_cross_route[n=05]",
            math.exp(est5.log_C_n),
            math.exp(raw5),
            tols["norm_cross_tol"],
            "rescaled log-sum-exp grid vs raw-coordinate adaptive quadrature",
        )
    )
    ratio_100 = laplace_ratio(100)
    ratio_400 = laplace_ratio(400)
    reports.append(_abs_check("laplace/asymptotic_ratio[n=100]", ratio_100, 1.0, tols["ratio_tol_100"]))
    reports.append(_abs_check("laplace/asymptotic_ratio[n=400]", ratio_400, 1.0, tols["ratio_tol_400"]))
    reports.append(
        _margin_check(
            "laplace/asymptotic_ratio_monotone",
            abs(ratio_400 - 1.0) - abs(ratio_100 - 1.0),
            f"|ratio(400) - 1| = {abs(ratio_400 - 1.0):.4e} must be below "
            f"|ratio(100) - 1| = {abs(ratio_100 - 1.0):.4e}",
        )
    )
    return reports


SUITE_NAMES = ("complex", "density", "laplace")

# Default of each verification tolerance, by the name `--tol` overrides it with.
TOLERANCES = {
    "complex_quad_tol": 1e-12,  # complex/gaussian_integral[...]
    "inversion_tol": 1e-3,  # density/inversion_vs_closed_form[n], density/inversion_outside_support[n]
    "density_mass_tol": 1e-6,  # density/closed_form_total_mass[n=6]
    "norm_cross_tol": 1e-6,  # laplace/normalization_cross_route[n=05]
    "ratio_tol_100": 0.15,  # laplace/asymptotic_ratio[n=100]
    "ratio_tol_400": 0.08,  # laplace/asymptotic_ratio[n=400]
}

# Default orders n of the density suite and of the laplace suite's normalization bounds.
DENSITY_ORDERS = (5, 6, 8)
LAPLACE_ORDERS = range(5, 31)


def run_suites(
    names: Sequence[str],
    n_list: Sequence[int] | None = None,
    tol_overrides: dict[str, float] | None = None,
) -> list[CheckReport]:
    """Run the named verification suites and merge reports in name order.

    tol_overrides replaces entries of TOLERANCES.  A nonempty n_list replaces
    the orders of the density and laplace suites; its orders must be distinct
    and at least MIN_DENSITY_N.
    """
    if isinstance(names, str):
        names = [names]
    overrides = tol_overrides or {}
    unknown = set(overrides) - set(TOLERANCES)
    if unknown:
        raise DomainError(f"unknown tolerance overrides: {sorted(unknown)}; known: {sorted(TOLERANCES)}")
    requested = list(names)
    if "all" in requested:
        requested = list(SUITE_NAMES)
    bad = [s for s in requested if s not in SUITE_NAMES]
    if bad:
        raise DomainError(f"unknown suites: {bad}; known: {list(SUITE_NAMES)} or 'all'")
    for name, value in overrides.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"tolerance override {name} must be finite and positive, got {value!r}")
    tols = {**TOLERANCES, **overrides}
    if n_list:
        small = [m for m in n_list if m < MIN_DENSITY_N]
        if small:
            raise DomainError(f"n-list orders must be at least {MIN_DENSITY_N}, got {small}")
        repeated = sorted({m for m in n_list if n_list.count(m) > 1})
        if repeated:
            raise DomainError(f"n-list orders must be distinct, got {repeated} more than once")
    reports: list[CheckReport] = []
    if "complex" in requested:
        reports.extend(suite_complex(tols))
    if "density" in requested:
        reports.extend(suite_density(n_list or DENSITY_ORDERS, tols))
    if "laplace" in requested:
        reports.extend(suite_laplace(n_list or LAPLACE_ORDERS, tols))
    return sorted(reports, key=lambda r: r.name)
