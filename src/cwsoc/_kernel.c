/* The compiled kernels of cwsoc.  They export two entries: cw_sweeps, the
 * Metropolis sweeps of cwsoc.samplers, and cw_inner_cos, the inner u-rule of
 * the Fourier inversion in cwsoc.verification.
 *
 * cw_sweeps runs whole sweeps.  Each sweep draws its n sites, n proposal
 * normals and n acceptance uniforms on the chain's own numpy bit generator
 * through the functions numpy.random.Generator calls for
 * integers(0, n, size=n), standard_normal(n) and random(n), in that order,
 * so the stream is the one the Python API would consume.
 *
 * Its static helper cw_metropolis runs one single-site random-walk step per
 * drawn (site, normal, uniform) triple.  Its floating-point operations are
 * those of the reference loop in the tests, in the same order, and it calls
 * the C library's exp as math.exp does; built without FMA contraction or
 * -ffast-math, it accepts and rejects exactly as that loop does.
 *
 * cw_inner_cos sums a composite Gauss-Legendre rule for
 * 2 int_0^U cos(xu) Phi(u) du from values of Phi the caller evaluated at a
 * few anchor nodes; it fills in the other nodes by the Gaussian recurrence
 * described at its definition.  Its complex products and quotients are
 * written out in real arithmetic so that conjugate anchors give the exact
 * conjugate sum.
 */

#include <float.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#include "numpy/random/bitgen.h"

/* From numpy's static libnpyrandom (numpy/random/lib). */
void random_bounded_uint64_fill(bitgen_t *state, uint64_t off, uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);
void random_standard_normal_fill(bitgen_t *state, intptr_t cnt, double *out);
void random_standard_uniform_fill(bitgen_t *state, intptr_t cnt, double *out);

/* Steps x and the cached st = {s, t} through m proposals; returns the number
 * accepted.  A proposal whose t would not be positive (float cancellation
 * only) is rejected outright. */
static int64_t cw_metropolis(double *x, double *st, const int64_t *sites, const double *normals,
                             const double *uniforms, int64_t m, double scale, double inv_two_sigma_sq)
{
    double s = st[0];
    double t = st[1];
    int64_t accepted = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t k = sites[i];
        double old = x[k];
        double new = old + scale * normals[i];
        double s_new = s - old + new;
        double t_new = t - old * old + new * new;
        if (!(t_new > 0.0)) {
            continue;
        }
        double delta = s_new * s_new / (2.0 * t_new)
                       - t_new * inv_two_sigma_sq
                       - s * s / (2.0 * t)
                       + t * inv_two_sigma_sq;
        if (delta >= 0.0 || uniforms[i] < exp(delta)) {
            x[k] = new;
            s = s_new;
            t = t_new;
            accepted++;
        }
    }
    st[0] = s;
    st[1] = t;
    return accepted;
}

/* Runs `sweeps` sweeps of n steps each, writing the cached (s, t) after
 * sweep i to s_out[i] and t_out[i]; returns the number of accepted
 * proposals, or -1 when the draw buffers cannot be allocated. */
int64_t cw_sweeps(bitgen_t *bitgen, double *x, int64_t n, double *st, int64_t sweeps,
                  double scale, double inv_two_sigma_sq, double *s_out, double *t_out)
{
    uint64_t *sites = malloc((size_t)n * sizeof *sites);
    double *normals = malloc((size_t)n * sizeof *normals);
    double *uniforms = malloc((size_t)n * sizeof *uniforms);
    int64_t accepted = -1;
    if (sites != NULL && normals != NULL && uniforms != NULL) {
        accepted = 0;
        for (int64_t i = 0; i < sweeps; i++) {
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)(n - 1), n, false, sites);
            random_standard_normal_fill(bitgen, n, normals);
            random_standard_uniform_fill(bitgen, n, uniforms);
            accepted += cw_metropolis(x, st, (const int64_t *)sites, normals, uniforms, n,
                                      scale, inv_two_sigma_sq);
            s_out[i] = st[0];
            t_out[i] = st[1];
        }
    }
    free(sites);
    free(normals);
    free(uniforms);
    return accepted;
}

/* A complex number laid out as numpy's complex128: real part, then imaginary. */
typedef struct {
    double re, im;
} cw_complex;

static cw_complex cw_mul(cw_complex a, cw_complex b)
{
    return (cw_complex){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/* a / b by Smith's algorithm, which squares no part of b: anchors far below
 * sqrt(DBL_MIN) in modulus still divide. */
static cw_complex cw_div(cw_complex a, cw_complex b)
{
    if (fabs(b.re) >= fabs(b.im)) {
        double r = b.im / b.re;
        double d = b.re + b.im * r;
        return (cw_complex){(a.re + a.im * r) / d, (a.im - a.re * r) / d};
    }
    double r = b.re / b.im;
    double d = b.re * r + b.im;
    return (cw_complex){(a.re * r + a.im) / d, (a.im * r - a.re) / d};
}

static bool cw_is_zero(cw_complex a)
{
    return a.re == 0.0 && a.im == 0.0;
}

/* Whether either part of a is at least DBL_MIN in magnitude: below that, the
 * parts carry too few bits to divide by. */
static bool cw_is_normal(cw_complex a)
{
    return fabs(a.re) >= DBL_MIN || fabs(a.im) >= DBL_MIN;
}

/* sum_k cos(x u_kj) Phi(u_kj) over the panels of column j; see cw_inner_cos. */
static cw_complex cw_inner_column(const double *u, const cw_complex *anchor, int64_t panels, int64_t nodes,
                                  int64_t block, int64_t j, double x, cw_complex d, cw_complex turn)
{
    cw_complex sum = {0.0, 0.0};
    cw_complex f = {0.0, 0.0};
    cw_complex r = {0.0, 0.0};
    cw_complex e = {0.0, 0.0};
    for (int64_t first = 0; first < panels; first += block) {
        int64_t at = 3 + 2 * nodes * (first / block) + j;
        int64_t len = panels - first < block ? panels - first : block;
        bool anchored = cw_is_normal(anchor[at]) && cw_is_normal(anchor[at + nodes]);
        for (int64_t k = 0; k < len; k++) {
            if (anchored && k < 2) {
                int64_t i = at + k * nodes;
                if (k == 1) {
                    r = cw_div(anchor[i], f);
                }
                f = anchor[i];
                e = (cw_complex){cos(x * u[i]), sin(x * u[i])};
            } else {
                r = cw_mul(r, d);
                f = cw_mul(f, r);
                e = cw_mul(e, turn);
            }
            if (cw_is_zero(f)) {
                return sum;
            }
            sum.re += e.re * f.re;
            sum.im += e.re * f.im;
        }
    }
    return sum;
}

/* Writes to out[0], out[1] the complex
 *     h * sum_j weights[j] * sum_k cos(x u_kj) Phi(u_kj),
 * the rule over `panels` equal panels of width h whose node j in panel k is
 * u_kj = h (k + 1/2 + xi_j/2), where xi_j is the j-th of `nodes` reference
 * nodes.  The panels come in blocks of `block`.  u and anchor hold the
 * anchors, u and Phi(u), in this order: 0, h, 2h, then for every block the `nodes`
 * nodes of its first panel and those of its second (present even where the
 * block has one panel, and then unused).
 *
 * Phi(u) = exp(-a u^2 + b) with Re a > 0, so along a column j the ratio
 * R = Phi(u + h) / Phi(u) obeys R(u + h) = R(u) D with the constant
 * D = exp(-2 a h^2) = Phi(2h) Phi(0) / Phi(h)^2, and |R|, |D| < 1.  Each
 * block takes its first two values of a column from the anchors, and the
 * rest by that recurrence, with e^{ixu} rotated by e^{ixh}; re-anchoring
 * every block keeps the rounding the recurrence accumulates small.  Anchors
 * below the normal range are too coarse to divide by: a block whose two
 * anchors of the column are not both normal runs the previous block's
 * recurrence on, and D is 0 where Phi(h) or Phi(2h) is not normal, since
 * every node past 2h is then smaller still.  |Phi| falls as u grows, so a
 * column ends at its first value that is zero. */
void cw_inner_cos(const double *u, const cw_complex *anchor, int64_t panels, int64_t nodes, int64_t block,
                  double x, const double *weights, double *out)
{
    double h = u[1];
    cw_complex d = {0.0, 0.0};
    if (cw_is_normal(anchor[1]) && cw_is_normal(anchor[2])) {
        d = cw_mul(cw_div(anchor[0], anchor[1]), cw_div(anchor[2], anchor[1]));
    }
    cw_complex turn = {cos(x * h), sin(x * h)};
    double sum_re = 0.0;
    double sum_im = 0.0;
    for (int64_t j = 0; j < nodes; j++) {
        cw_complex col = cw_inner_column(u, anchor, panels, nodes, block, j, x, d, turn);
        sum_re += weights[j] * col.re;
        sum_im += weights[j] * col.im;
    }
    out[0] = h * sum_re;
    out[1] = h * sum_im;
}
