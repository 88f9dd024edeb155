/* The matching kernel of ppmetrics: every assignment problem the package
 * solves goes through one solver in this file.
 *
 * The solver is the shortest augmenting path algorithm of scipy's
 * linear_sum_assignment (Crouse, "On implementing 2D rectangular assignment
 * algorithms", IEEE TAES 52(4), 2016) for an m x n cost matrix with m <= n,
 * started from the row reduction of Jonker & Volgenant (Computing 38, 1987):
 * u_i = min_j c_ij, every row takes its first cheapest column while that
 * column is free, and only the rows left over are augmented.  The column
 * duals start at 0 and only ever fall, on columns that are then matched, so
 * the rectangular optimum holds.  Totals are summed exactly rounded, as
 * CPython's math.fsum does.
 *
 * There are two entries: ppm_min_cost_matching solves one cost matrix, and
 * ppm_pairs solves a list of pattern pairs of two stacked collections, one
 * pair, every pair of a distance matrix or the pairs of a compare round.
 * Arrays are C-contiguous; indices are intptr_t (numpy's intp).  Each entry
 * returns 0 or one of the PPM_* codes below.  Build with -ffp-contract=off,
 * so that no multiply-add is fused and the ground costs round as numpy's.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define PPM_NO_MEMORY 1
#define PPM_OVERFLOW 2   /* math.fsum's "intermediate overflow" */
#define PPM_INFEASIBLE 3 /* no finite augmenting path: a cost is not finite */

/* Nonoverlapping partials of doubles have distinct exponents in
 * [-1074, 1023], so no sum holds more of them than this. */
#define FSUM_PARTIALS 2100

typedef struct {
    double p[FSUM_PARTIALS];
    intptr_t n;
    int overflow;
} fsum_t;

/* math.fsum's inner loop: add x to the partials (Shewchuk 1997). */
static void fsum_add(fsum_t *s, double x)
{
    intptr_t i = 0, j;
    for (j = 0; j < s->n; j++) {
        double y = s->p[j], hi, lo;
        if (fabs(x) < fabs(y)) {
            double t = x;
            x = y;
            y = t;
        }
        hi = x + y;
        lo = y - (hi - x);
        if (lo != 0.0)
            s->p[i++] = lo;
        x = hi;
    }
    s->n = i;
    if (x != 0.0) {
        if (!isfinite(x))
            s->overflow = 1;
        else
            s->p[s->n++] = x;
    }
}

/* math.fsum's final rounding of the partials, half-even across them. */
static double fsum_result(const fsum_t *s)
{
    intptr_t n = s->n;
    double hi = 0.0, lo = 0.0;
    if (n > 0) {
        hi = s->p[--n];
        while (n > 0) {
            double x = hi, y = s->p[--n];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && s->p[n - 1] < 0.0) ||
                      (lo > 0.0 && s->p[n - 1] > 0.0))) {
            double y = lo * 2.0, x = hi + y;
            if (y == x - hi)
                hi = x;
        }
    }
    return hi;
}

/* Workspace of one solver; sized once for the largest problem of a call. */
typedef struct {
    double *u, *v, *dist;
    intptr_t *path, *col4row, *row4col, *remaining, *rows_seen, *cols_seen;
    double *costs;
    void *block;
} work_t;

static int work_alloc(work_t *w, intptr_t rows, intptr_t cols, intptr_t cells)
{
    size_t nd = (size_t)rows + 2 * (size_t)cols + (size_t)cells;
    size_t ni = 2 * (size_t)rows + 4 * (size_t)cols;
    w->block = malloc(nd * sizeof(double) + ni * sizeof(intptr_t) + 1);
    if (w->block == NULL)
        return PPM_NO_MEMORY;
    w->u = (double *)w->block;
    w->v = w->u + rows;
    w->dist = w->v + cols;
    w->costs = w->dist + cols;
    w->path = (intptr_t *)(w->costs + cells);
    w->row4col = w->path + cols;
    w->remaining = w->row4col + cols;
    w->cols_seen = w->remaining + cols;
    w->col4row = w->cols_seen + cols;
    w->rows_seen = w->col4row + rows;
    return 0;
}

/* Shortest augmenting path from the free row i, as in scipy's
 * rectangular_lsap.cpp; returns the free column it ends at, or -1. */
static intptr_t augmenting_path(intptr_t nc, const double *cost, work_t *w,
                                intptr_t i, intptr_t *n_rows, intptr_t *n_cols,
                                double *p_min)
{
    double min_val = 0.0;
    intptr_t num_remaining = nc, it, sink = -1;
    *n_rows = *n_cols = 0;
    for (it = 0; it < nc; it++) {
        /* reverse order: a constant matrix is solved by the identity */
        w->remaining[it] = nc - it - 1;
        w->dist[it] = INFINITY;
    }
    while (sink == -1) {
        /* distinct workspace arrays: no store in the scan reloads the rest */
        const double *restrict row = cost + i * nc, *restrict v = w->v;
        const intptr_t *restrict row4col = w->row4col;
        double *restrict dist = w->dist;
        intptr_t *restrict path = w->path, *restrict remaining = w->remaining;
        intptr_t index = -1, j;
        double lowest = INFINITY, ui = w->u[i];
        w->rows_seen[(*n_rows)++] = i;
        for (it = 0; it < num_remaining; it++) {
            double r, d;
            int take;
            j = remaining[it];
            r = min_val + row[j] - ui - v[j];
            d = dist[j];
            if (r < d) {
                path[j] = i;
                d = r;
            }
            dist[j] = d;
            /* among equal distances prefer a free column, which ends the
             * search */
            take = (d < lowest) | ((d == lowest) & (row4col[j] == -1));
            lowest = take ? d : lowest;
            index = take ? it : index;
        }
        min_val = lowest;
        if (min_val == INFINITY)
            return -1;
        j = remaining[index];
        if (row4col[j] == -1)
            sink = j;
        else
            i = row4col[j];
        w->cols_seen[(*n_cols)++] = j;
        remaining[index] = remaining[--num_remaining];
    }
    *p_min = min_val;
    return sink;
}

/* Optimal col4row of the m x n matrix cost, m <= n. */
static int solve(intptr_t nr, intptr_t nc, const double *cost, work_t *w)
{
    intptr_t i, j, k;
    for (j = 0; j < nc; j++) {
        w->v[j] = 0.0;
        w->row4col[j] = -1;
    }
    for (i = 0; i < nr; i++) {
        const double *row = cost + i * nc;
        intptr_t arg = 0;
        for (j = 1; j < nc; j++)
            if (row[j] < row[arg])
                arg = j;
        w->u[i] = row[arg];
        w->col4row[i] = -1;
        if (w->row4col[arg] == -1) {
            w->row4col[arg] = i;
            w->col4row[i] = arg;
        }
    }
    for (i = 0; i < nr; i++) {
        intptr_t n_rows, n_cols, sink;
        double min_val;
        if (w->col4row[i] != -1)
            continue;
        sink = augmenting_path(nc, cost, w, i, &n_rows, &n_cols, &min_val);
        if (sink < 0)
            return PPM_INFEASIBLE;
        w->u[i] += min_val;
        for (k = 0; k < n_rows; k++) {
            intptr_t r = w->rows_seen[k];
            if (r != i)
                w->u[r] += min_val - w->dist[w->col4row[r]];
        }
        for (k = 0; k < n_cols; k++) {
            j = w->cols_seen[k];
            w->v[j] -= min_val - w->dist[j];
        }
        j = sink;
        for (;;) {
            intptr_t r = w->path[j], t;
            w->row4col[j] = r;
            t = w->col4row[r];
            w->col4row[r] = j;
            j = t;
            if (r == i)
                break;
        }
    }
    return 0;
}

/* Solve, then total = fsum(picked entries) + (n - m) * fill. */
static int solve_total(intptr_t m, intptr_t n, const double *cost, double fill,
                       work_t *w, double *total)
{
    fsum_t s;
    intptr_t i;
    int status = solve(m, n, cost, w);
    if (status)
        return status;
    s.n = 0;
    s.overflow = 0;
    for (i = 0; i < m; i++)
        fsum_add(&s, cost[i * n + w->col4row[i]]);
    if (s.overflow)
        return PPM_OVERFLOW;
    *total = fsum_result(&s) + (double)(n - m) * fill;
    return 0;
}

/* Cost min(|a_i - b_j|, cap, c) ** p of every pair of points, rows a. */
static void ground_costs(const double *a, intptr_t m, const double *b, intptr_t n,
                         intptr_t dim, double p, double c, double cap, double *out)
{
    intptr_t i, j, k;
    for (i = 0; i < m; i++) {
        const double *x = a + i * dim;
        for (j = 0; j < n; j++) {
            const double *y = b + j * dim;
            double s = 0.0, d;
            for (k = 0; k < dim; k++) {
                double t = x[k] - y[k];
                s += t * t;
            }
            d = sqrt(s);
            if (d > cap)
                d = cap;
            if (d > c)
                d = c;
            /* numpy squares for p = 2; libm's pow can round otherwise */
            if (p == 2.0)
                d = d * d;
            else if (p != 1.0)
                d = pow(d, p);
            out[i * n + j] = d;
        }
    }
}

/* Optimal matching of every row of the m x n matrix cost, m <= n, each of
 * the n - m free columns costing fill: cols[i] is the column of row i. */
int ppm_min_cost_matching(const double *cost, intptr_t m, intptr_t n, double fill,
                          intptr_t *cols, double *total)
{
    work_t w;
    intptr_t i;
    int status;
    if (work_alloc(&w, m, n, 0))
        return PPM_NO_MEMORY;
    status = solve_total(m, n, cost, fill, &w, total);
    for (i = 0; !status && i < m; i++)
        cols[i] = w.col4row[i];
    free(w.block);
    return status;
}

/* Pattern distances of count pattern pairs of two stacked collections, where
 * pattern k of a collection is points[off[k]:off[k + 1]] of its (total, dim)
 * array: pair t is pattern rows[t] of xs (m points) and pattern cols[t] of ys
 * (n points), and values[t] its distance, with fill = c ** p.  The smaller
 * pattern is matched into the larger.  match holds max(m, n) rows (i, j) per
 * pair, pair after pair, one per point of the larger pattern: point i of the
 * xs pattern is paired with point j of the ys pattern, and -1 marks a point
 * left unmatched.  With d1 set, patterns of different counts are at
 * min(c, cap) and not paired: every row of theirs is (-1, -1). */
int ppm_pairs(const double *xs, const intptr_t *xoff, const double *ys,
              const intptr_t *yoff, intptr_t dim, const intptr_t *rows,
              const intptr_t *cols, intptr_t count, double p, double c,
              double cap, int d1, double *values, intptr_t *match)
{
    work_t w;
    intptr_t t, k, most_x = 0, most_y = 0, most;
    double fill = pow(c, p), total;
    int status = 0;
    for (t = 0; t < count; t++) {
        const intptr_t *x = xoff + rows[t], *y = yoff + cols[t];
        most_x = x[1] - x[0] > most_x ? x[1] - x[0] : most_x;
        most_y = y[1] - y[0] > most_y ? y[1] - y[0] : most_y;
    }
    most = most_x > most_y ? most_x : most_y;
    if (work_alloc(&w, most, most, most_x * most_y))
        return PPM_NO_MEMORY;
    for (t = 0; !status && t < count; t++) {
        const intptr_t *x = xoff + rows[t], *y = yoff + cols[t];
        const double *a = xs + x[0] * dim, *b = ys + y[0] * dim;
        intptr_t m = x[1] - x[0], n = y[1] - y[0];
        int swap = m > n;
        intptr_t small = swap ? n : m, large = swap ? m : n;
        if (d1 && m != n) {
            values[t] = c < cap ? c : cap;
            for (k = 0; k < 2 * large; k++)
                match[k] = -1;
        } else {
            ground_costs(swap ? b : a, small, swap ? a : b, large, dim, p, c, cap,
                         w.costs);
            status = solve_total(small, large, w.costs, fill, &w, &total);
            if (!status)
                values[t] = pow(total, 1.0 / p) / (double)(large > 1 ? large : 1);
            /* row4col[k] is the point of the smaller pattern matched to
             * point k of the larger */
            for (k = 0; !status && k < large; k++) {
                match[2 * k + swap] = w.row4col[k];
                match[2 * k + !swap] = k;
            }
        }
        match += 2 * large;
    }
    free(w.block);
    return status;
}
