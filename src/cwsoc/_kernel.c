/* The Metropolis kernel of cwsoc.samplers, compiled.  It exports one entry,
 * cw_sweeps.
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
 */

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
