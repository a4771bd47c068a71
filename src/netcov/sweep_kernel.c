/* The sweeps of netcov.solver.fit_at_lambda over the orthonormalized
 * design: one call, netcov_solve_block, runs up to n_max sweeps over
 * the active groups and stops after the first whose largest change
 * (intercept or coefficient) is below tol.
 *
 * A sweep takes the intercept step, then one cyclic pass over the
 * groups in `order`.  For the binomial family (eta not NULL) the step
 * residual is first re-taken from eta as (y - 1/(1 + exp(-eta))) / 0.25,
 * the logistic curvature bound; for the gaussian family it is the
 * state itself.  The intercept moves by the residual's mean, summed in
 * numpy's pairwise order, so mu takes the bits np.mean gives; resid and
 * eta move with it.  Each group then takes its exact block minimizer
 * given the residual, which is updated in place, and eta with it.
 * Every sweep that does not stop the block writes (mu, beta[coords]) as
 * a row of `record` and the state (eta, or the gaussian resid) as a row
 * of `states`, for the Anderson step the caller takes on them.  Returns
 * the number of rows written: n_max when no sweep stopped the block,
 * else one less than the sweeps run.
 *
 * The call reads and writes one struct block, mirrored field for field
 * by ctypes in solver.py: the per-path layout, y and buffers, one
 * solve's state, coefficients, intercept and threshold, and one active
 * set's groups and recorded coordinates, each field 8 bytes, so there is
 * no padding.  UT holds the design transposed: column j of U is the
 * contiguous row UT[j*N .. j*N+N).  Group g owns columns offsets[g] ..
 * offsets[g+1]-1 and has threshold t = thresh_scale * multipliers[g].
 * A width-1 group takes the soft-threshold z -/+ t; a wider group the
 * multiplicative shrinkage max(0, 1 - t/||z||) z, and exactly 0.0 when
 * it is shrunk away.  `work` holds N doubles for the block's residual
 * shift followed by the widest group's width for its target z.
 *
 * Built without -ffast-math and with -ffp-contract=off: no sum is
 * reassociated, no multiply-add is fused, and exp stays libm's scalar
 * exp (glibc offers its vector libmvec versions only under fast-math),
 * the exp scipy's expit calls.  A dot product keeps LANES independent
 * partial sums, each one a plain left-to-right sum, so the compiler can
 * vectorize across them without reordering any.
 *
 * A wider group is worked four columns at a time (register blocking):
 * dot4 loads each residual element once for four dots, and one pass
 * adds four columns' terms to each shift element.  That only interleaves
 * independent sums: each dot keeps its own partial sums, combine tree
 * and tail, and each shift element takes its terms in column order, so
 * the results are bit for bit those of one column at a time.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define LANES 8

struct block {
    const double *UT;           /* per path */
    int64_t N;
    const int64_t *offsets;
    const double *multipliers;
    double *work;
    const double *y;
    double *record;
    double *states;
    double *resid;              /* per solve */
    double *eta;
    double *beta;
    double mu;
    double thresh_scale;
    const int64_t *order;       /* per active set */
    int64_t n_order;
    const int64_t *coords;
    int64_t n_coords;
};

static double dot(const double *a, const double *b, int64_t n)
{
    double acc[LANES] = {0.0};
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES)
        for (int l = 0; l < LANES; l++)
            acc[l] += a[i + l] * b[i + l];
    double tail = 0.0;
    for (; i < n; i++)
        tail += a[i] * b[i];
    return ((acc[0] + acc[1]) + (acc[2] + acc[3]))
         + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail;
}

/* out[c] = dot(U + c*N, r, N), bit for bit, for four consecutive
 * columns, loading each r[i] once for all four */
static void dot4(const double *U, const double *r, int64_t N, double *out)
{
    double acc[4][LANES] = {{0.0}};
    int64_t i = 0;
    for (; i + LANES <= N; i += LANES)
        for (int l = 0; l < LANES; l++) {
            const double ri = r[i + l];
            for (int c = 0; c < 4; c++)
                acc[c][l] += U[c * N + i + l] * ri;
        }
    for (int c = 0; c < 4; c++) {
        const double *a = acc[c];
        double tail = 0.0;
        for (int64_t j = i; j < N; j++)
            tail += U[c * N + j] * r[j];
        out[c] = ((a[0] + a[1]) + (a[2] + a[3]))
               + ((a[4] + a[5]) + (a[6] + a[7])) + tail;
    }
}

/* resid -= shift, and eta += shift unless eta is NULL */
static void apply_shift(const double *shift, double *resid, double *eta,
                        int64_t N)
{
    for (int64_t i = 0; i < N; i++)
        resid[i] -= shift[i];
    if (eta)
        for (int64_t i = 0; i < N; i++)
            eta[i] += shift[i];
}

/* numpy's pairwise sum of a[0..n): eight partial sums up to 128
 * elements, two halves of a multiple of eight above */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int l = 0; l < 8; l++)
            r[l] = a[l];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int l = 0; l < 8; l++)
                r[l] += a[i + l];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* One cyclic pass over the groups in order; returns the largest
 * absolute coefficient change */
static double sweep_groups(const struct block *bk)
{
    const int64_t N = bk->N;
    double *resid = bk->resid, *eta = bk->eta;
    double max_delta = 0.0;
    double *shift = bk->work;
    double *z = bk->work + N;
    for (int64_t o = 0; o < bk->n_order; o++) {
        const int64_t g = bk->order[o];
        const int64_t s0 = bk->offsets[g];
        const int64_t width = bk->offsets[g + 1] - s0;
        const double t = bk->thresh_scale * bk->multipliers[g];
        const double *U = bk->UT + s0 * N;
        double *b = bk->beta + s0;

        if (width == 1) {
            const double zs = dot(U, resid, N) + b[0];
            double b_new = 0.0;
            if (zs > t)
                b_new = zs - t;
            else if (zs < -t)
                b_new = zs + t;
            const double delta = b_new - b[0];
            if (delta != 0.0) {
                if (eta)
                    for (int64_t i = 0; i < N; i++) {
                        const double s = U[i] * delta;
                        resid[i] -= s;
                        eta[i] += s;
                    }
                else
                    for (int64_t i = 0; i < N; i++)
                        resid[i] -= U[i] * delta;
                b[0] = b_new;
                if (fabs(delta) > max_delta)
                    max_delta = fabs(delta);
            }
            continue;
        }

        int64_t k = 0;
        for (; k + 4 <= width; k += 4)
            dot4(U + k * N, resid, N, z + k);
        for (; k < width; k++)
            z[k] = dot(U + k * N, resid, N);
        double nz2 = 0.0;
        int any_old = 0;
        for (k = 0; k < width; k++) {
            z[k] += b[k];
            nz2 += z[k] * z[k];
            any_old |= b[k] != 0.0;
        }
        const double nz = sqrt(nz2);
        if (nz <= t) {
            if (!any_old)
                continue;
            for (k = 0; k < width; k++)
                z[k] = 0.0;
        } else {
            const double scale = 1.0 - t / nz;
            for (k = 0; k < width; k++)
                z[k] = scale * z[k];
        }
        /* z now holds the new block; the change is z - b */
        double step = 0.0;
        for (k = 0; k < width; k++)
            if (fabs(z[k] - b[k]) > step)
                step = fabs(z[k] - b[k]);
        if (!(step > 0.0))
            continue;
        /* shift = sum_k (z[k] - b[k]) U_k, each element summed in k order
         * from the first term; the width mod 4 left over goes one by one */
        for (k = 0; k + 4 <= width; k += 4) {
            const double e0 = z[k] - b[k], e1 = z[k + 1] - b[k + 1];
            const double e2 = z[k + 2] - b[k + 2], e3 = z[k + 3] - b[k + 3];
            const double *V0 = U + k * N, *V1 = V0 + N, *V2 = V1 + N,
                         *V3 = V2 + N;
            if (k == 0)
                for (int64_t i = 0; i < N; i++)
                    shift[i] = ((e0 * V0[i] + e1 * V1[i]) + e2 * V2[i])
                             + e3 * V3[i];
            else
                for (int64_t i = 0; i < N; i++)
                    shift[i] = (((shift[i] + e0 * V0[i]) + e1 * V1[i])
                                + e2 * V2[i]) + e3 * V3[i];
        }
        for (; k < width; k++) {
            const double dk = z[k] - b[k];
            const double *Uk = U + k * N;
            if (k == 0)
                for (int64_t i = 0; i < N; i++)
                    shift[i] = dk * Uk[i];
            else
                for (int64_t i = 0; i < N; i++)
                    shift[i] += dk * Uk[i];
        }
        apply_shift(shift, resid, eta, N);
        for (k = 0; k < width; k++)
            b[k] = z[k];
        if (step > max_delta)
            max_delta = step;
    }
    return max_delta;
}

int64_t netcov_solve_block(struct block *bk, int64_t n_max, double tol)
{
    const int64_t N = bk->N;
    double *resid = bk->resid, *eta = bk->eta;
    const double *state = eta ? eta : resid;
    for (int64_t s = 0; s < n_max; s++) {
        if (eta)
            for (int64_t i = 0; i < N; i++)
                resid[i] = (bk->y[i] - 1.0 / (1.0 + exp(-eta[i]))) / 0.25;
        /* np.mean: the pairwise sum, from numpy's initial 0.0, over N */
        const double dmu = (0.0 + pairwise_sum(resid, N)) / (double)N;
        bk->mu += dmu;
        for (int64_t i = 0; i < N; i++)
            resid[i] -= dmu;
        if (eta)
            for (int64_t i = 0; i < N; i++)
                eta[i] += dmu;
        double delta = fabs(dmu);
        const double step = sweep_groups(bk);
        if (step > delta)
            delta = step;
        if (delta < tol)
            return s;
        double *row = bk->record + s * (1 + bk->n_coords);
        row[0] = bk->mu;
        for (int64_t c = 0; c < bk->n_coords; c++)
            row[1 + c] = bk->beta[bk->coords[c]];
        memcpy(bk->states + s * N, state, (size_t)N * sizeof(double));
    }
    return n_max;
}
