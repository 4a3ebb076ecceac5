/* The compiled kernels of cwsoc.  They export these entries:
 *   cw_draw and cw_walk   the Metropolis sweeps of cwsoc.samplers: the draws
 *                         of a block of sweeps and the walk over them;
 *   cw_current_cpu        the calling thread's CPU, which samplers keeps its
 *                         helper thread off;
 *   cw_ziggurat_check     whether cw_draw's normals can run, which _native
 *                         asks when it loads the library;
 *   cw_char_fn            Phi_n(u, v), verification.char_fn;
 *   cw_inner_cos          the inner u-rule of the Fourier inversion,
 *                         verification._inner_cos_integral;
 *   cw_outer_new, cw_outer_re, cw_outer_im, cw_outer_evaluations and
 *   cw_outer_free         the outer integrand of verification.invert_char_fn,
 *                         which QUADPACK calls through scipy.LowLevelCallable;
 *   cw_density            the closed-form (s, t) density,
 *                         verification.density_closed_form, and the
 *                         integrand of the total-mass check;
 *   cw_gauss_re and       the integrand of the complex suite's Gaussian-
 *   cw_gauss_im           integral oracle.
 * The entries QUADPACK calls have scipy.LowLevelCallable's signatures.
 *
 * The sweep entries allocate nothing: the caller owns the draw buffers and
 * the outputs.  cw_draw draws the random numbers of a block of sweeps on the
 * chain's own numpy bit generator: the sites and uniforms through the
 * functions numpy.random.Generator calls, and each normal by the one-word
 * fast path of numpy's ziggurat, which takes about 99 % of words, with any
 * other word replayed into numpy's own random_standard_normal (cw_normal).
 * The stream is the one the Python API would consume, value for value and
 * word for word: per sweep n sites, n proposal normals and n acceptance
 * uniforms as integers(0, n, size=n), standard_normal(n) and random(n) give
 * them, in that order, and then, for each of the sweep's `moves`
 * translations x -> x + delta 1, delta = d z, its z as standard_normal(1)
 * and its acceptance uniform as random(1), so the stream runs z1, u1, z2,
 * u2, ...; the caller passes moves = 0 when the translation scale is 0, and
 * nothing more is drawn.  cw_walk runs the sweeps on those draws; it touches
 * no bit generator, so one thread can walk a block while another draws the
 * next.
 *
 * cw_walk's static helper cw_metropolis runs one single-site random-walk
 * step per drawn (site, normal, uniform) triple, and cw_translate runs the
 * translation.  Their floating-point operations are those of the reference
 * loop in the tests, in the same order, and cw_accept calls the C library's
 * exp as math.exp does; built without FMA contraction or -ffast-math, they
 * accept and reject exactly as that loop does.
 *
 * Phi_n(u, v) = exp(-(n/2) (u^2 / (1 - 2iv) + Log(1 - 2iv))) is computed
 * with the operations of the numpy expression the tests keep as its oracle,
 * in its order.
 * cw_inner_cos evaluates Phi only at a few anchor nodes and fills in the
 * other nodes by the Gaussian recurrence described at its definition.  A
 * cw_outer holds one inversion's x and n and a cache of h(v), so that the
 * cosine and sine passes evaluate each distinct v once.  Complex products and
 * quotients are written out in real arithmetic so that conjugate inputs give
 * exact conjugate results.
 */

#define _GNU_SOURCE /* sched_getcpu */

#include <complex.h>
#include <float.h>
#include <sched.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#include "numpy/random/bitgen.h"

/* From numpy's static libnpyrandom (numpy/random/lib). */
void random_bounded_uint64_fill(bitgen_t *state, uint64_t off, uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);
double random_standard_normal(bitgen_t *state);
void random_standard_uniform_fill(bitgen_t *state, intptr_t cnt, double *out);

/* The fast path of numpy's ziggurat normal (Marsaglia and Tsang, J. Stat.
 * Softw. 5(8), 2000): a word r with idx = r & 0xff, sign bit 8 and
 * rabs = bits 9-60 gives +-rabs wi[idx] when rabs < ki[idx], and nothing
 * more is drawn.  cw_read_ziggurat reads ki and wi off the linked
 * random_standard_normal when the library is loaded. */
#define CW_RABS_BITS 52
static uint64_t cw_ki[256];
static double cw_wi[256];
/* -1 once the tables are read and checked, -2 before; else the first idx
 * at which random_standard_normal did not behave as the fast path assumes */
static int64_t cw_ziggurat_idx = -2;

/* A bit generator that hands out `word` first and then, from a splitmix64
 * sequence, words and doubles in [0, 1), counting every call. */
typedef struct {
    uint64_t word, mix;
    int64_t calls;
} cw_probe;

static uint64_t cw_probe_u64(void *st)
{
    cw_probe *p = st;
    if (p->calls++ == 0) {
        return p->word;
    }
    uint64_t z = (p->mix += UINT64_C(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

static uint32_t cw_probe_u32(void *st)
{
    return (uint32_t)(cw_probe_u64(st) >> 32);
}

static double cw_probe_double(void *st)
{
    return (double)(cw_probe_u64(st) >> 11) * 0x1p-53;
}

/* Whether random_standard_normal takes the word of (idx, sign, rabs), with
 * bits 61-63 set to top, as its only draw; sets *x to what it returns. */
static bool cw_probe_normal(uint64_t idx, uint64_t sign, uint64_t rabs, uint64_t top, double *x)
{
    cw_probe p = {idx | sign << 8 | rabs << 9 | top << 61, 0, 0};
    bitgen_t probe = {&p, cw_probe_u64, cw_probe_u32, cw_probe_double, cw_probe_u64};
    *x = random_standard_normal(&probe);
    return p.calls == 1;
}

/* Whether the fast path's value for (sign, rabs, w) is bit for bit x. */
static bool cw_is_fast_value(double x, uint64_t sign, uint64_t rabs, double w)
{
    double y = (double)rabs * w;
    return memcmp(&x, &(double){sign ? -y : y}, sizeof x) == 0;
}

/* For each idx, bisects for the least rabs that random_standard_normal does
 * not take as its only draw, ki[idx], and reads wi[idx] off rabs = 1.  Then
 * checks the assumption: below ki the word, whatever its sign and top bits,
 * is the only draw and gives +-rabs wi; at ki and at the largest rabs it is
 * not the only draw. */
__attribute__((constructor)) static void cw_read_ziggurat(void)
{
    const uint64_t end = UINT64_C(1) << CW_RABS_BITS;
    double x;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = end;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            if (cw_probe_normal(idx, 0, mid, 0, &x)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        uint64_t k = lo;
        double w = 0.0;
        if (k > 1) {
            cw_probe_normal(idx, 0, 1, 0, &w);
        }
        bool holds = true;
        uint64_t below[] = {0, 1, k / 2, k - 1};
        for (size_t i = 0; i < 4 && below[i] < k; i++) {
            for (uint64_t sign = 0; sign < 2; sign++) {
                bool fast = cw_probe_normal(idx, sign, below[i], 7 * sign, &x);
                holds = holds && fast && cw_is_fast_value(x, sign, below[i], w);
            }
        }
        if (k < end) {
            holds = holds && !cw_probe_normal(idx, 1, k, 7, &x) && !cw_probe_normal(idx, 1, end - 1, 7, &x);
        }
        if (!holds) {
            cw_ziggurat_idx = (int64_t)idx;
            return;
        }
        cw_ki[idx] = k;
        cw_wi[idx] = w;
    }
    cw_ziggurat_idx = -1;
}

/* -1 when cw_draw's normals can run: the library read numpy's ziggurat
 * tables and checked them; else the idx at which the check failed. */
int64_t cw_ziggurat_check(void)
{
    return cw_ziggurat_idx;
}

/* Hands out `word` first and then the chain's own draws. */
typedef struct {
    bitgen_t *chain;
    uint64_t word;
    bool replayed;
} cw_replay;

static uint64_t cw_replay_u64(void *st)
{
    cw_replay *p = st;
    if (!p->replayed) {
        p->replayed = true;
        return p->word;
    }
    return p->chain->next_uint64(p->chain->state);
}

static uint32_t cw_replay_u32(void *st)
{
    cw_replay *p = st;
    return p->chain->next_uint32(p->chain->state);
}

static double cw_replay_double(void *st)
{
    cw_replay *p = st;
    return p->chain->next_double(p->chain->state);
}

static uint64_t cw_replay_raw(void *st)
{
    cw_replay *p = st;
    return p->chain->next_raw(p->chain->state);
}

/* numpy's random_standard_normal on the chain's generator, whose first word
 * r has already been drawn: the wedge and the tail run numpy's own code. */
__attribute__((noinline)) static double cw_normal_replay(bitgen_t *bitgen, uint64_t r)
{
    cw_replay p = {bitgen, r, false};
    bitgen_t replay = {&p, cw_replay_u64, cw_replay_u32, cw_replay_double, cw_replay_raw};
    return random_standard_normal(&replay);
}

/* One standard normal from the chain's generator, the draws and the value
 * of numpy's random_standard_normal: the fast path here, every other word
 * replayed into numpy. */
static inline double cw_normal(bitgen_t *bitgen)
{
    uint64_t r = bitgen->next_uint64(bitgen->state);
    uint64_t idx = r & 0xff;
    uint64_t rabs = (r >> 9) & ((UINT64_C(1) << CW_RABS_BITS) - 1);
    if (rabs < cw_ki[idx]) {
        uint64_t bits;
        double x = (double)rabs * cw_wi[idx];
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r & 0x100) << 55;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    return cw_normal_replay(bitgen, r);
}

/* Whether the Metropolis rule with uniform u accepts the move from (s, t) to
 * (s_new, t_new): the log ratio of exp(s^2/(2t) - t/(2 sigma^2)) is
 * nonnegative or exceeds log u.  A proposal whose t would not be positive
 * (float cancellation only) is rejected outright. */
static bool cw_accept(double s, double t, double s_new, double t_new, double u, double inv_two_sigma_sq)
{
    if (!(t_new > 0.0)) {
        return false;
    }
    double delta = s_new * s_new / (2.0 * t_new)
                   - t_new * inv_two_sigma_sq
                   - s * s / (2.0 * t)
                   + t * inv_two_sigma_sq;
    return delta >= 0.0 || u < exp(delta);
}

/* Steps x and the cached st = {s, t} through m proposals; returns the number
 * accepted. */
static int64_t cw_metropolis(double *x, double *st, const uint64_t *sites, const double *normals,
                             const double *uniforms, int64_t m, double scale, double inv_two_sigma_sq)
{
    double s = st[0];
    double t = st[1];
    int64_t accepted = 0;
    for (int64_t i = 0; i < m; i++) {
        uint64_t k = sites[i];
        double old = x[k];
        double new = old + scale * normals[i];
        double s_new = s - old + new;
        double t_new = t - old * old + new * new;
        if (cw_accept(s, t, s_new, t_new, uniforms[i], inv_two_sigma_sq)) {
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

/* One translation of all n spins by delta = d z, accepted by uniform u: it
 * leaves t - s^2/n unchanged and moves s by n delta, so (s, t) is updated in
 * O(1) and the n spins only when it is accepted.  The move is symmetric and
 * preserves volume, so it is accepted by the single-site steps' rule.
 * Returns whether it was accepted. */
static bool cw_translate(double *x, int64_t n, double *st, double d, double z, double u, double inv_two_sigma_sq)
{
    double delta = d * z;
    double s = st[0];
    double t = st[1];
    double s_new = s + (double)n * delta;
    double t_new = t + 2.0 * delta * s + (double)n * delta * delta;
    if (cw_accept(s, t, s_new, t_new, u, inv_two_sigma_sq)) {
        for (int64_t k = 0; k < n; k++) {
            x[k] += delta;
        }
        st[0] = s_new;
        st[1] = t_new;
        return true;
    }
    return false;
}

/* Draws the random numbers of `sweeps` sweeps of n steps and `moves`
 * translations each, in stream order.  Sweep i draws its n sites to
 * sites[i n ..], its n proposal normals to normals[i n ..] and its n
 * acceptance uniforms to uniforms[i n ..], and then, move by move, the
 * translation's normal z to zu[2 (i moves + j)] and its uniform u to the
 * entry after it. */
void cw_draw(bitgen_t *bitgen, int64_t n, int64_t sweeps, int64_t moves, uint64_t *sites, double *normals,
             double *uniforms, double *zu)
{
    for (int64_t i = 0; i < sweeps; i++) {
        random_bounded_uint64_fill(bitgen, 0, (uint64_t)(n - 1), n, false, sites + i * n);
        for (int64_t k = i * n; k < (i + 1) * n; k++) {
            normals[k] = cw_normal(bitgen);
        }
        random_standard_uniform_fill(bitgen, n, uniforms + i * n);
        for (int64_t j = 2 * i * moves; j < 2 * (i + 1) * moves; j += 2) {
            zu[j] = cw_normal(bitgen);
            random_standard_uniform_fill(bitgen, 1, zu + j + 1);
        }
    }
}

/* Walks `sweeps` sweeps on the draws cw_draw laid out in the same buffers:
 * each sweep's n single-site steps of scale `scale`, then its `moves`
 * translations of scale d, starting from the statistics (s, t) of x.  Writes
 * the cached (s, t) after sweep i to s_out[i] and t_out[i], and adds the
 * accepted single-site proposals to counts[0] and the accepted translations
 * to counts[1]. */
void cw_walk(double *x, int64_t n, double s, double t, int64_t sweeps, double scale, double inv_two_sigma_sq,
             double d, int64_t moves, const uint64_t *sites, const double *normals, const double *uniforms,
             const double *zu, double *s_out, double *t_out, int64_t *counts)
{
    double st[2] = {s, t};
    for (int64_t i = 0; i < sweeps; i++) {
        counts[0] += cw_metropolis(x, st, sites + i * n, normals + i * n, uniforms + i * n, n, scale,
                                   inv_two_sigma_sq);
        for (int64_t j = 2 * i * moves; j < 2 * (i + 1) * moves; j += 2) {
            counts[1] += cw_translate(x, n, st, d, zu[j], zu[j + 1], inv_two_sigma_sq);
        }
        s_out[i] = st[0];
        t_out[i] = st[1];
    }
}

/* The CPU the calling thread runs on, or -1 where that cannot be told. */
int64_t cw_current_cpu(void)
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
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
 * sqrt(DBL_MIN) in modulus still divide.  It is also CPython's complex
 * division, operation for operation. */
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

/* Whether either part of a is at least DBL_MIN in magnitude: below that, the
 * parts carry too few bits to divide by. */
static bool cw_is_normal(cw_complex a)
{
    return fabs(a.re) >= DBL_MIN || fabs(a.im) >= DBL_MIN;
}

/* Phi_n(u, v) = exp(q u^2 + p) for one v: q = -(n/2) / z and
 * p = -(n/2) Log z with z = 1 - 2iv. */
typedef struct {
    cw_complex q, p;
} cw_phi;

/* Log z is the C library's clog, which numpy's complex log and so
 * verification.principal_log call; the quotient is CPython's complex division. */
static cw_phi cw_phi_of(double v, int64_t n)
{
    double y = -2.0 * v;
    double half_n = -0.5 * (double)n;
    double complex log_z = clog(CMPLX(1.0, y));
    cw_complex p = {half_n * creal(log_z), half_n * cimag(log_z)};
    return (cw_phi){cw_div((cw_complex){half_n, 0.0}, (cw_complex){1.0, y}), p};
}

/* (q u) u + p, part by part as numpy multiplies a complex by a real, then the
 * C library's cexp, which numpy's complex exp calls. */
static cw_complex cw_phi_at(const cw_phi *phi, double u)
{
    double complex e = cexp(CMPLX(phi->q.re * u * u + phi->p.re, phi->q.im * u * u + phi->p.im));
    return (cw_complex){creal(e), cimag(e)};
}

/* Writes Phi_n(u[i], v) to out[i] for every i < len. */
void cw_char_fn(const double *u, int64_t len, double v, int64_t n, cw_complex *out)
{
    cw_phi phi = cw_phi_of(v, n);
    for (int64_t i = 0; i < len; i++) {
        out[i] = cw_phi_at(&phi, u[i]);
    }
}

/* The inner u-rule's constants, set by cwsoc.verification: the rule stops at
 * q_widths Gaussian widths of |Phi|; its panels span at most panel_phase
 * radians of phase and come in blocks of `block`; each has `nodes` (at most
 * CW_LANES) Gauss-Legendre nodes ref_nodes on [-1, 1] with weights. */
typedef struct {
    double q_widths;
    double panel_phase;
    int64_t block;
    int64_t nodes;
    const double *ref_nodes;
    const double *weights;
} cw_rule;

/* The most nodes a panel may have: the lanes in which cw_inner_cos runs the
 * columns of its rule side by side. */
#define CW_LANES 8

/* The state of every column of cw_inner_cos: its running sum, Phi at the
 * last node f, the ratio r and e^{ixu}, part by part. */
typedef struct {
    double sum_re[CW_LANES], sum_im[CW_LANES];
    double f_re[CW_LANES], f_im[CW_LANES];
    double r_re[CW_LANES], r_im[CW_LANES];
    double e_re[CW_LANES], e_im[CW_LANES];
} cw_columns;

/* Sets *out to the rule for 2 int_0^U cos(xu) Phi_n(u, v) du, the inner
 * u-integral of the inversion, and returns true; returns false, setting
 * nothing, when the panel count does not fit in an int64_t or a panel has
 * more than CW_LANES nodes.
 *
 * U = q_widths sqrt((1 + 4v^2) / n), cut into 6 + floor(phase / panel_phase)
 * equal panels of width h, where phase = |x| U + q_widths^2 |v|.  Node j of
 * panel k is u_kj = h (k + 1/2 + xi_j/2), and the rule is
 *     h * sum_j weights[j] * sum_k cos(x u_kj) Phi(u_kj),
 * each column j summed over k first.
 *
 * Phi is evaluated only at anchors: u = 0, h, 2h and the nodes of the first
 * two panels of every block (the second even where the block has one panel).
 * Phi(u) = exp(-a u^2 + b) with Re a > 0, so along a column the ratio
 * R = Phi(u + h) / Phi(u) obeys R(u + h) = R(u) D with the constant
 * D = exp(-2 a h^2) = Phi(2h) Phi(0) / Phi(h)^2, and |R|, |D| < 1.  Each
 * block takes its first two values of a column from the anchors, and the
 * rest by that recurrence, with e^{ixu} rotated by e^{ixh}; re-anchoring
 * every block keeps the rounding the recurrence accumulates small.  Anchors
 * below the normal range are too coarse to divide by: a block whose two
 * anchors of the column are not both normal runs the previous block's
 * recurrence on, and D is 0 where Phi(h) or Phi(2h) is not normal, since
 * every node past 2h is then smaller still.  |Phi| falls as u grows, so a
 * column ends at its first value that is zero, and the rule at the block
 * where every column has ended.  Complex products and quotients are written
 * out in real arithmetic, so negating v conjugates the result bit for bit. */
bool cw_inner_cos(const cw_rule *rule, double x, double v, int64_t n, cw_complex *out)
{
    double upper = rule->q_widths * sqrt((1.0 + 4.0 * v * v) / (double)n);
    double extra = (fabs(x) * upper + rule->q_widths * rule->q_widths * fabs(v)) / rule->panel_phase;
    if (!(extra < 0x1p62) || rule->nodes > CW_LANES) {
        return false;
    }
    int64_t panels = 6 + (int64_t)extra;
    double h = upper / (double)panels;
    cw_phi phi = cw_phi_of(v, n);
    cw_complex phi_h = cw_phi_at(&phi, h);
    cw_complex phi_2h = cw_phi_at(&phi, h * 2.0);
    cw_complex d = {0.0, 0.0};
    if (cw_is_normal(phi_h) && cw_is_normal(phi_2h)) {
        d = cw_mul(cw_div(cw_phi_at(&phi, 0.0), phi_h), cw_div(phi_2h, phi_h));
    }
    cw_complex turn = {cos(x * h), sin(x * h)};
    /* lanes past rule->nodes hold zeros throughout */
    cw_columns col = {0};
    bool done[CW_LANES] = {false};
    int64_t open = rule->nodes;
    for (int64_t first = 0; first < panels && open > 0; first += rule->block) {
        int64_t len = panels - first < rule->block ? panels - first : rule->block;
        /* the block's first two panels, column by column */
        for (int64_t j = 0; j < rule->nodes; j++) {
            if (done[j]) {
                continue;
            }
            double u[2];
            cw_complex anchor[2];
            for (int64_t k = 0; k < 2; k++) {
                u[k] = h * ((double)(first + k) + (0.5 + 0.5 * rule->ref_nodes[j]));
                anchor[k] = cw_phi_at(&phi, u[k]);
            }
            bool anchored = cw_is_normal(anchor[0]) && cw_is_normal(anchor[1]);
            cw_complex f = {col.f_re[j], col.f_im[j]};
            cw_complex r = {col.r_re[j], col.r_im[j]};
            cw_complex e = {col.e_re[j], col.e_im[j]};
            for (int64_t k = 0; k < 2 && k < len; k++) {
                if (anchored) {
                    if (k == 1) {
                        r = cw_div(anchor[1], f);
                    }
                    f = anchor[k];
                    e = (cw_complex){cos(x * u[k]), sin(x * u[k])};
                } else {
                    r = cw_mul(r, d);
                    f = cw_mul(f, r);
                    e = cw_mul(e, turn);
                }
                col.sum_re[j] += e.re * f.re;
                col.sum_im[j] += e.re * f.im;
            }
            col.f_re[j] = f.re;
            col.f_im[j] = f.im;
            col.r_re[j] = r.re;
            col.r_im[j] = r.im;
            col.e_re[j] = e.re;
            col.e_im[j] = e.im;
        }
        /* the rest of the block by the recurrence, every column in step */
        for (int64_t k = 2; k < len; k++) {
            for (int j = 0; j < CW_LANES; j++) {
                double r_re = col.r_re[j] * d.re - col.r_im[j] * d.im;
                double r_im = col.r_re[j] * d.im + col.r_im[j] * d.re;
                double f_re = col.f_re[j] * r_re - col.f_im[j] * r_im;
                double f_im = col.f_re[j] * r_im + col.f_im[j] * r_re;
                double e_re = col.e_re[j] * turn.re - col.e_im[j] * turn.im;
                double e_im = col.e_re[j] * turn.im + col.e_im[j] * turn.re;
                col.r_re[j] = r_re;
                col.r_im[j] = r_im;
                col.f_re[j] = f_re;
                col.f_im[j] = f_im;
                col.e_re[j] = e_re;
                col.e_im[j] = e_im;
                col.sum_re[j] += e_re * f_re;
                col.sum_im[j] += e_re * f_im;
            }
        }
        /* A column ends at its first zero value.  Within a block every later
         * value is zero too and adds zero, leaving the sum's bits alone (a
         * sum that starts at +0 never becomes -0), so the block can finish
         * before the column is marked. */
        for (int64_t j = 0; j < rule->nodes; j++) {
            if (!done[j] && col.f_re[j] == 0.0 && col.f_im[j] == 0.0) {
                done[j] = true;
                open--;
            }
        }
    }
    double sum_re = 0.0;
    double sum_im = 0.0;
    for (int64_t j = 0; j < rule->nodes; j++) {
        sum_re += rule->weights[j] * col.sum_re[j];
        sum_im += rule->weights[j] * col.sum_im[j];
    }
    *out = (cw_complex){h * sum_re, h * sum_im};
    return true;
}

/* One entry of a cw_outer cache: h at the v whose bits are key. */
typedef struct {
    uint64_t key;
    bool used;
    cw_complex value;
} cw_entry;

/* The outer integrand h(v) = e^{-icv} I(x, v, n), c = x^2 / n, of one
 * inversion, with a cache of the values it has computed: an open-addressing
 * table keyed by the bits of v, at most half full. */
typedef struct {
    const cw_rule *rule;
    double x, c;
    int64_t n;
    int64_t evaluations;
    bool failed;
    cw_entry *table;
    size_t capacity;
    size_t size;
} cw_outer;

/* A new outer integrand, or NULL when it cannot be allocated. */
cw_outer *cw_outer_new(const cw_rule *rule, double x, int64_t n)
{
    cw_outer *h = calloc(1, sizeof *h);
    if (h != NULL) {
        h->rule = rule;
        h->x = x;
        h->c = x * x / (double)n;
        h->n = n;
    }
    return h;
}

void cw_outer_free(cw_outer *h)
{
    if (h != NULL) {
        free(h->table);
        free(h);
    }
}

/* The number of inner rules h has evaluated, or -1 if one of them failed
 * (its value was then NaN). */
int64_t cw_outer_evaluations(const cw_outer *h)
{
    return h->failed ? -1 : h->evaluations;
}

/* The slot of key in a table of `capacity` (a power of two) entries: its own
 * entry, or the free one where it belongs. */
static size_t cw_slot(const cw_entry *table, size_t capacity, uint64_t key)
{
    size_t i = (size_t)((key * UINT64_C(0x9E3779B97F4A7C15)) >> 32) & (capacity - 1);
    while (table[i].used && table[i].key != key) {
        i = (i + 1) & (capacity - 1);
    }
    return i;
}

static bool cw_grow(cw_outer *h)
{
    size_t capacity = h->capacity > 0 ? 2 * h->capacity : 256;
    cw_entry *table = calloc(capacity, sizeof *table);
    if (table == NULL) {
        return false;
    }
    for (size_t i = 0; i < h->capacity; i++) {
        if (h->table[i].used) {
            table[cw_slot(table, capacity, h->table[i].key)] = h->table[i];
        }
    }
    free(h->table);
    h->table = table;
    h->capacity = capacity;
    return true;
}

/* h(v) from the cache, or computed and stored; a value the cache has no room
 * for is computed again when asked again.  e^{-icv} is cmath.exp's
 * (cos, sin) of -c v. */
static cw_complex cw_outer_value(cw_outer *h, double v)
{
    uint64_t key;
    memcpy(&key, &v, sizeof key);
    if (h->size > 0) {
        cw_entry *entry = &h->table[cw_slot(h->table, h->capacity, key)];
        if (entry->used) {
            return entry->value;
        }
    }
    cw_complex inner;
    if (!cw_inner_cos(h->rule, h->x, v, h->n, &inner)) {
        h->failed = true;
        return (cw_complex){NAN, NAN};
    }
    h->evaluations++;
    double theta = -h->c * v;
    cw_complex value = cw_mul((cw_complex){cos(theta), sin(theta)}, inner);
    if (2 * (h->size + 1) <= h->capacity || cw_grow(h)) {
        h->table[cw_slot(h->table, h->capacity, key)] = (cw_entry){key, true, value};
        h->size++;
    }
    return value;
}

/* Re h(v) and Im h(v), for scipy.LowLevelCallable as double (double, void *). */
double cw_outer_re(double v, void *h)
{
    return cw_outer_value(h, v).re;
}

double cw_outer_im(double v, void *h)
{
    return cw_outer_value(h, v).im;
}

/* The density exp(-y/2 + ((n-3)/2) log(y - x^2/n) - c[1] - c[2]) of the
 * untilted (s, t) law at sigma = 1, operation by operation as Python
 * evaluates it, at xx = {y, x} with data c = {n, (1/2) log(2^n pi n),
 * log Gamma((n-1)/2)}; zero outside the open support x^2 < n y.  For
 * scipy.LowLevelCallable as double (int, double *, void *): dblquad passes
 * the inner variable y first. */
double cw_density(int nargs, double *xx, void *data)
{
    (void)nargs;
    const double *c = data;
    double x = xx[1], y = xx[0];
    double gap = y - x * x / c[0];
    if (gap <= 0.0) {
        return 0.0;
    }
    return exp(-0.5 * y + 0.5 * (c[0] - 3.0) * log(gap) - c[1] - c[2]);
}

/* exp(i t x - zeta x^2 / 2) at x, data = {t, Re zeta, Im zeta}: the complex
 * products of the Python expression cmath.exp(1j * t * x - 0.5 * zeta * x * x)
 * step by step, each real operand a complex with zero imaginary part as
 * CPython takes it, then cmath.exp's exp(re) cos(im) and exp(re) sin(im).
 * For Re zeta > 0 the real part of the exponent is never positive, so
 * cmath.exp's branch for large real parts is never taken. */
static cw_complex cw_gauss_at(double x, const double *data)
{
    cw_complex real_x = {x, 0.0};
    cw_complex phase = cw_mul(cw_mul((cw_complex){0.0, 1.0}, (cw_complex){data[0], 0.0}), real_x);
    cw_complex decay = cw_mul(cw_mul(cw_mul((cw_complex){0.5, 0.0}, (cw_complex){data[1], data[2]}), real_x), real_x);
    double l = exp(phase.re - decay.re);
    double angle = phase.im - decay.im;
    return (cw_complex){l * cos(angle), l * sin(angle)};
}

/* Its real and imaginary parts, for scipy.LowLevelCallable as
 * double (double, void *). */
double cw_gauss_re(double x, void *data)
{
    return cw_gauss_at(x, data).re;
}

double cw_gauss_im(double x, void *data)
{
    return cw_gauss_at(x, data).im;
}
