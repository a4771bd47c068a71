/* One path point of netcov.solver.fit_at_lambda over the orthonormalized
 * design: one call, netcov_solve_point, runs the point's whole active-set
 * loop and returns 1 when the point is certified, 0 when it reaches the
 * sweep cap uncertified.
 *
 * The loop runs one sweep at a time over the active groups, up to the
 * cap.  A sweep whose largest change (intercept or coefficient) is not
 * below the inner tolerance becomes row `rows` of `record` (mu, then beta
 * of the active groups, group by group in `order`) and of `states` (eta,
 * or the gaussian resid).  When rows reaches K + 1 (K = anderson_k) it
 * goes back to 0, and if the cap leaves a sweep to run the Anderson step
 * is tried on the K + 1 rows: the K x K Gram of the iterate differences,
 * solved for the affine weights by LU with partial pivoting, and the
 * trial point kept only if its penalized objective is below the current
 * one.  Its trial state is the same combination of the stored states,
 * since the state is affine in (mu, beta).  A sweep that stops, or the
 * cap, leads to the certificate pass, which also sets rows back to 0: the
 * fresh state from the nonzero groups alone, the working residual, U^T r
 * for every group and the intercept gradient.  Zero groups whose gradient
 * norm exceeds their threshold join the active set, which never shrinks,
 * and the loop goes on with rows as wide as the new active set; a pass
 * with no joiner returns if the KKT residual and the intercept gradient
 * are within kkt_tol, else divides the inner tolerance by 10.  The call
 * writes the counts, the certificate gradient, its intercept part and the
 * KKT residual of the last pass into the struct.
 *
 * A sweep takes the intercept step, then one cyclic pass over the groups
 * in `order`.  For the binomial family (eta not NULL) the step residual
 * is first re-taken from eta as (y - 1/(1 + exp(-eta))) / k, k the
 * logistic curvature bound; for the gaussian family it is the state
 * itself.  The intercept moves by the residual's mean, summed in numpy's
 * pairwise order, so mu takes the bits np.mean gives; resid and eta move
 * with it.  Each group then takes its exact block minimizer given the
 * residual, which is updated in place, and eta with it.
 *
 * The call reads and writes one struct block, mirrored field for field
 * by ctypes in solver.py: the per-path layout, buffers and the solver's
 * constants, one solve's state, coefficients, intercept and penalty,
 * and the counts it writes, each field 8 bytes, so there is no padding.
 * UT holds the design transposed: column j of U is the contiguous row
 * UT[j*N .. j*N+N).  Group g owns columns offsets[g] .. offsets[g+1]-1
 * and has threshold t = thresh_scale * multipliers[g].  A width-1 group
 * takes the soft-threshold z -/+ t; a wider group the multiplicative
 * shrinkage max(0, 1 - t/||z||) z, and exactly 0.0 when it is shrunk
 * away.  `work` holds N doubles for the group's residual shift, the
 * Anderson trial state or the certificate's sums, followed by the
 * widest group's width for its target z.
 *
 * Built without -ffast-math and with -ffp-contract=off: no sum is
 * reassociated, no multiply-add is fused, and exp stays libm's scalar
 * exp (glibc offers its vector libmvec versions only under fast-math),
 * the exp scipy's expit calls.  A dot product keeps LANES independent
 * partial sums, each one a plain left-to-right sum, so the compiler can
 * vectorize across them without reordering any; every other sum runs in
 * one fixed order, so no result depends on the vector width.  No BLAS
 * or LAPACK is called.
 *
 * A wider group is worked four columns at a time (register blocking):
 * dot4 loads each residual element once for four dots, and one pass
 * adds four columns' terms to each shift element.  That only interleaves
 * independent sums: each dot keeps its own partial sums, combine tree
 * and tail, and each shift element takes its terms in column order, so
 * the results are bit for bit those of one column at a time.  The
 * certificate's U^T r and U beta go through the same two routines, dots
 * and add_columns.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define LANES 8

struct block {
    const double *UT;           /* per path: layout, buffers, constants */
    int64_t N;
    int64_t n_groups;
    const int64_t *offsets;
    const double *multipliers;
    const double *y;
    double *work;
    double *record;
    double *states;
    double *diffs;
    double *gram;
    int64_t *order;
    uint8_t *in_active;
    int64_t anderson_k;
    int64_t max_sweeps;
    double tol;
    double kkt_tol;
    double curvature;
    double grad_scale;
    double *resid;              /* per solve */
    double *eta;
    double *beta;
    double *grad;
    double mu;
    double lam;
    double thresh_scale;
    int64_t n_order;
    int64_t start_fresh;
    int64_t sweeps;             /* written by the call */
    int64_t passes;
    int64_t violators;
    int64_t tried;
    int64_t accepted;
    int64_t tightened;
    double gmu;
    double kkt;
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

/* out[j] = dot(U + j*N, r, N) for m consecutive columns, four at a time */
static void dots(const double *U, const double *r, int64_t N, int64_t m,
                 double *out)
{
    int64_t j = 0;
    for (; j + 4 <= m; j += 4)
        dot4(U + j * N, r, N, out + j);
    for (; j < m; j++)
        out[j] = dot(U + j * N, r, N);
}

/* out[i] += sum_k c[k] U_k[i] over `width` columns, each element taking
 * its terms in column order, four columns a pass */
static void add_columns(const double *U, const double *c, int64_t width,
                        int64_t N, double *out)
{
    int64_t k = 0;
    for (; k + 4 <= width; k += 4) {
        const double c0 = c[k], c1 = c[k + 1], c2 = c[k + 2], c3 = c[k + 3];
        const double *V0 = U + k * N, *V1 = V0 + N, *V2 = V1 + N,
                     *V3 = V2 + N;
        for (int64_t i = 0; i < N; i++)
            out[i] = (((out[i] + c0 * V0[i]) + c1 * V1[i]) + c2 * V2[i])
                   + c3 * V3[i];
    }
    for (; k < width; k++) {
        const double ck = c[k];
        for (int64_t i = 0; i < N; i++)
            out[i] += ck * U[k * N + i];
    }
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

/* r = (y - 1/(1 + exp(-eta))) / k, the binomial working residual over k;
 * k = 1.0 divides exactly */
static void logistic_resid(const struct block *bk, double k, double *r)
{
    for (int64_t i = 0; i < bk->N; i++)
        r[i] = (bk->y[i] - 1.0 / (1.0 + exp(-bk->eta[i]))) / k;
}

/* Copies (mu, then the active groups' coefficients in `order`) into a
 * record row, or back from the row when to_row is 0 */
static void copy_row(struct block *bk, double *row, int to_row)
{
    if (to_row)
        *row = bk->mu;
    else
        bk->mu = *row;
    row++;
    for (int64_t o = 0; o < bk->n_order; o++) {
        const int64_t g = bk->order[o];
        const int64_t w = bk->offsets[g + 1] - bk->offsets[g];
        double *b = bk->beta + bk->offsets[g];
        memcpy(to_row ? row : b, to_row ? b : row, (size_t)w * sizeof(double));
        row += w;
    }
}

/* One sweep: the intercept step, then one cyclic pass over the groups in
 * order; returns the largest absolute change, the intercept's included */
static double sweep(struct block *bk)
{
    const int64_t N = bk->N;
    double *resid = bk->resid, *eta = bk->eta;
    double *shift = bk->work, *z = bk->work + N;
    if (eta)
        logistic_resid(bk, bk->curvature, resid);
    /* np.mean: the pairwise sum, from numpy's initial 0.0, over N */
    const double dmu = (0.0 + pairwise_sum(resid, N)) / (double)N;
    bk->mu += dmu;
    for (int64_t i = 0; i < N; i++)
        resid[i] -= dmu;
    if (eta)
        for (int64_t i = 0; i < N; i++)
            eta[i] += dmu;
    double max_delta = fabs(dmu);
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

        dots(U, resid, N, width, z);
        double nz2 = 0.0;
        int any_old = 0;
        int64_t k;
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
        for (k = 0; k < width; k++) {
            const double e = z[k] - b[k];
            b[k] = z[k];
            z[k] = e;
        }
        /* -0.0 + x is x bit for bit: the sum keeps its first term's bits */
        for (int64_t i = 0; i < N; i++)
            shift[i] = -0.0;
        add_columns(U, z, width, N, shift);
        for (int64_t i = 0; i < N; i++)
            resid[i] -= shift[i];
        if (eta)
            for (int64_t i = 0; i < N; i++)
                eta[i] += shift[i];
        if (step > max_delta)
            max_delta = step;
    }
    return max_delta;
}

/* numpy's logaddexp(0, e) */
static double softplus(double e)
{
    if (e == 0.0)
        return 0.693147180559945309417232121458176568;
    return e < 0.0 ? log1p(exp(e)) : e + log1p(exp(-e));
}

/* Q = deviance / N + lam sum_G w_G ||b_G|| at a state and a record row
 * (mu, then the active groups' coefficients in `order`); softplus is
 * finite at every finite eta, so eta is priced as it stands */
static double objective(const struct block *bk, const double *state,
                        const double *row)
{
    const int64_t N = bk->N;
    double dev;
    if (bk->eta) {
        /* the step residual is re-taken at each sweep: free to hold the
         * terms, summed as np.sum sums them */
        double *terms = bk->resid;
        for (int64_t i = 0; i < N; i++)
            terms[i] = bk->y[i] * state[i] - softplus(state[i]);
        dev = -2.0 * (0.0 + pairwise_sum(terms, N));
    } else {
        dev = 0.5 * dot(state, state, N);
    }
    const double *c = row + 1;
    double pen = 0.0;
    for (int64_t o = 0; o < bk->n_order; o++) {
        const int64_t g = bk->order[o];
        const int64_t w = bk->offsets[g + 1] - bk->offsets[g];
        double nb2 = 0.0;
        for (int64_t k = 0; k < w; k++)
            nb2 += c[k] * c[k];
        pen += bk->multipliers[g] * sqrt(nb2);
        c += w;
    }
    return dev / (double)N + bk->lam * pen;
}

/* Solves A x = b for n x n A by LU with partial pivoting, in place: b
 * becomes x.  Returns 0 at an exactly zero pivot. */
static int lu_solve(double *A, double *b, int64_t n)
{
    for (int64_t c = 0; c < n; c++) {
        int64_t p = c;
        for (int64_t r = c + 1; r < n; r++)
            if (fabs(A[r * n + c]) > fabs(A[p * n + c]))
                p = r;
        if (A[p * n + c] == 0.0)
            return 0;
        if (p != c) {
            for (int64_t k = 0; k < n; k++) {
                const double a = A[c * n + k];
                A[c * n + k] = A[p * n + k];
                A[p * n + k] = a;
            }
            const double t = b[c];
            b[c] = b[p];
            b[p] = t;
        }
        for (int64_t r = c + 1; r < n; r++) {
            const double f = A[r * n + c] / A[c * n + c];
            for (int64_t k = c + 1; k < n; k++)
                A[r * n + k] -= f * A[c * n + k];
            b[r] -= f * b[c];
        }
    }
    for (int64_t c = n - 1; c >= 0; c--) {
        double s = b[c];
        for (int64_t k = c + 1; k < n; k++)
            s -= A[c * n + k] * b[k];
        b[c] = s / A[c * n + c];
    }
    return 1;
}

/* out[i] = last[i] - sum_c a[c] (rows[c + 1][i] - rows[c][i]) over
 * c = 1 .. n-1, the differences summed in c order before they meet
 * last[i]; rows are `stride` apart, `len` long */
static void extrapolate(const double *a, const double *rows, int64_t n,
                        int64_t stride, int64_t len, const double *last,
                        double *out)
{
    for (int64_t i = 0; i < len; i++)
        out[i] = 0.0;
    for (int64_t c = 1; c < n; c++)
        for (int64_t i = 0; i < len; i++)
            out[i] += a[c] * (rows[(c + 1) * stride + i]
                              - rows[c * stride + i]);
    for (int64_t i = 0; i < len; i++)
        out[i] = last[i] - out[i];
}

/* The Anderson step on the K + 1 rows; returns 1 when the trial point
 * lowers the objective and replaces mu, beta and the state */
static int anderson(struct block *bk, int64_t width)
{
    const int64_t K = bk->anderson_k, N = bk->N;
    const double *h = bk->record;
    double *D = bk->diffs, *G = bk->gram, *z = bk->gram + K * K;
    for (int64_t a = 0; a < K; a++)
        for (int64_t j = 0; j < width; j++)
            D[a * width + j] = h[(a + 1) * width + j] - h[a * width + j];
    for (int64_t a = 0; a < K; a++) {
        for (int64_t b = 0; b <= a; b++)
            G[a * K + b] = G[b * K + a] = dot(D + a * width, D + b * width,
                                              width);
        z[a] = 1.0;
    }
    if (!lu_solve(G, z, K))
        return 0;
    double total = 0.0;
    for (int64_t a = 0; a < K; a++)
        total += z[a];
    if (!isfinite(total) || total == 0.0)
        return 0;
    /* the weights w = z / total sum to 1, so sum_a w[a] row[a + 1] is
     * the last row less sum_c W[c-1] (row[c + 1] - row[c]), W the running
     * sums of w: the same point, without large weights on whole rows */
    double running = 0.0;
    for (int64_t a = 0; a < K; a++) {
        const double w = z[a] / total;
        z[a] = running;
        running += w;
    }
    /* the trial row over D's first row, which it does not read; its
     * state over work */
    double *x = D, *trial = bk->work;
    double *state = bk->eta ? bk->eta : bk->resid;
    extrapolate(z, h, K, width, width, h + K * width, x);
    extrapolate(z, bk->states, K, N, N, state, trial);
    if (!(objective(bk, trial, x) < objective(bk, state, h + K * width)))
        return 0;
    copy_row(bk, x, 0);
    memcpy(state, trial, (size_t)N * sizeof(double));
    return 1;
}

/* The state at (mu, beta), U beta summed over the nonzero groups only */
static void fresh_state(struct block *bk)
{
    const int64_t N = bk->N;
    double *acc = bk->work;
    for (int64_t i = 0; i < N; i++)
        acc[i] = 0.0;
    for (int64_t g = 0; g < bk->n_groups; g++) {
        const int64_t s0 = bk->offsets[g], w = bk->offsets[g + 1] - s0;
        int nonzero = 0;
        for (int64_t k = 0; k < w; k++)
            nonzero |= bk->beta[s0 + k] != 0.0;
        if (nonzero)
            add_columns(bk->UT + s0 * N, bk->beta + s0, w, N, acc);
    }
    if (bk->eta)
        for (int64_t i = 0; i < N; i++)
            bk->eta[i] = bk->mu + acc[i];
    else
        for (int64_t i = 0; i < N; i++)
            bk->resid[i] = bk->y[i] - (bk->mu + acc[i]);
}

/* The certificate pass at (mu, beta): the fresh state, the gradient
 * -c (mean(r), U^T r / N) of the working residual r, and screening.
 * Returns the number of zero groups that join the active set, and sets
 * the KKT residual: the largest over the groups of the stationarity
 * violation relative to lam w_G, ||g_G + lam w_G b_G / ||b_G|| || for a
 * nonzero group and max(0, ||g_G|| - lam w_G) for a zero one. */
static int64_t certify(struct block *bk)
{
    const int64_t N = bk->N, n = bk->n_groups;
    const int64_t m = bk->offsets[n];
    fresh_state(bk);
    double *r = bk->resid;
    if (bk->eta) {
        r = bk->work;  /* the binomial step residual is re-taken */
        logistic_resid(bk, 1.0, r);
    }
    const double c = bk->grad_scale;
    bk->gmu = -c * ((0.0 + pairwise_sum(r, N)) / (double)N);
    dots(bk->UT, r, N, m, bk->grad);
    for (int64_t j = 0; j < m; j++)
        bk->grad[j] = -c * bk->grad[j] / (double)N;

    int64_t joined = 0;
    double kkt = 0.0;
    for (int64_t g = 0; g < n; g++) {
        const int64_t s0 = bk->offsets[g], w = bk->offsets[g + 1] - s0;
        const double *gr = bk->grad + s0, *b = bk->beta + s0;
        const double scale = bk->lam * bk->multipliers[g];
        double gn2 = 0.0, bn2 = 0.0;
        for (int64_t k = 0; k < w; k++) {
            gn2 += gr[k] * gr[k];
            bn2 += b[k] * b[k];
        }
        const double gn = sqrt(gn2), bn = sqrt(bn2);
        if (!bk->in_active[g] && gn > scale) {
            bk->in_active[g] = 1;
            joined++;
        }
        double res = gn - scale < 0.0 ? 0.0 : gn - scale;
        if (bn > 0.0) {
            /* the norm of g + s b / ||b|| itself: its terms nearly cancel */
            const double shrink = scale / bn;
            double r2 = 0.0;
            for (int64_t k = 0; k < w; k++) {
                const double v = gr[k] + shrink * b[k];
                r2 += v * v;
            }
            res = sqrt(r2);
        }
        const double q = res / scale;
        if (kkt == kkt && !(q <= kkt))
            kkt = q;  /* the largest, or the first NaN */
    }
    bk->kkt = kkt;
    if (joined) {
        bk->n_order = 0;
        for (int64_t g = 0; g < n; g++)
            if (bk->in_active[g])
                bk->order[bk->n_order++] = g;
    }
    return joined;
}

/* The length of a record row: mu, then the active coordinates */
static int64_t row_width(const struct block *bk)
{
    int64_t width = 1;
    for (int64_t o = 0; o < bk->n_order; o++)
        width += bk->offsets[bk->order[o] + 1] - bk->offsets[bk->order[o]];
    return width;
}

int64_t netcov_solve_point(struct block *bk)
{
    const int64_t K1 = bk->anderson_k + 1, cap = bk->max_sweeps, N = bk->N;
    const double *state = bk->eta ? bk->eta : bk->resid;
    double tol = bk->tol;
    if (bk->start_fresh)
        fresh_state(bk);
    bk->sweeps = bk->passes = bk->violators = 0;
    bk->tried = bk->accepted = bk->tightened = 0;
    memset(bk->in_active, 0, (size_t)bk->n_groups);
    for (int64_t o = 0; o < bk->n_order; o++)
        bk->in_active[bk->order[o]] = 1;
    int64_t rows = 0, width = row_width(bk);
    while (bk->sweeps < cap) {
        bk->sweeps++;
        if (!(sweep(bk) < tol)) {
            copy_row(bk, bk->record + rows * width, 1);
            memcpy(bk->states + rows * N, state, (size_t)N * sizeof(double));
            /* extrapolate only where a sweep follows, so that the
             * returned iterate always comes from a sweep */
            if (++rows == K1) {
                rows = 0;
                if (bk->sweeps < cap) {
                    bk->tried++;
                    bk->accepted += anderson(bk, width);
                }
            }
            if (bk->sweeps < cap)
                continue;
        }
        /* a sweep that stopped, or the cap */
        rows = 0;
        bk->passes++;
        const int64_t joined = certify(bk);
        if (joined) {
            bk->violators += joined;
            width = row_width(bk);
            continue;
        }
        if (bk->kkt <= bk->kkt_tol && fabs(bk->gmu) <= bk->kkt_tol)
            return 1;
        tol /= 10;  /* the sweeps stopped short of the certificate */
        bk->tightened++;
    }
    return 0;
}
