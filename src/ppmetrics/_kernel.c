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
 * There are three entries: ppm_min_cost_matching solves one cost matrix;
 * ppm_pairs solves a list of pattern pairs of two stacked collections, one
 * pair or every pair of a distance matrix; and ppm_dbar2 computes the exact
 * empirical dbar2 of two stacked collections of one size, solving only the
 * pattern pairs that an optimal pairing over lower bounds of the others
 * picks, or stops at a bound on it that clears a threshold, which settles a
 * comparison of dbar2 with a value.  A stack of total points holds them
 * coordinate-major, coordinate k of point j at points[k * total + j]; other
 * arrays are C-contiguous.  Indices are intptr_t (numpy's intp).  Each entry
 * returns 0 or one of the PPM_* codes below.  Build with -ffp-contract=off,
 * so that no multiply-add is fused and the ground costs round as numpy's.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define PPM_NO_MEMORY 1
#define PPM_OVERFLOW 2   /* math.fsum's "intermediate overflow" */
#define PPM_INFEASIBLE 3 /* no finite augmenting path: a cost is not finite */

/* Rounds of ppm_dbar2 per pattern of a collection, after which it solves
 * every pair left; a build may lower it to test that path. */
#ifndef PPM_ROUNDS_PER_PATTERN
#define PPM_ROUNDS_PER_PATTERN 2
#endif

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

/* Workspace of one solver; sized once for the largest problem of a call.
 * costs holds the pattern costs of a pair. */
typedef struct {
    double *u, *v, *dist, *costs;
    intptr_t *path, *col4row, *row4col, *remaining, *rows_seen, *cols_seen;
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

/* total = fsum(picked[0 .. m)) + (n - m) * fill. */
static int total_of(const double *picked, intptr_t m, intptr_t n, double fill,
                    double *total)
{
    fsum_t s;
    intptr_t i;
    s.n = 0;
    s.overflow = 0;
    for (i = 0; i < m; i++)
        fsum_add(&s, picked[i]);
    if (s.overflow)
        return PPM_OVERFLOW;
    *total = fsum_result(&s) + (double)(n - m) * fill;
    return 0;
}

/* Solve, then total = fsum(picked entries) + (n - m) * fill; the picked
 * entries are gathered into dist, which the solve no longer needs. */
static int solve_total(intptr_t m, intptr_t n, const double *cost, double fill,
                       work_t *w, double *total)
{
    intptr_t i;
    int status = solve(m, n, cost, w);
    if (status)
        return status;
    for (i = 0; i < m; i++)
        w->dist[i] = cost[i * n + w->col4row[i]];
    return total_of(w->dist, m, n, fill, total);
}

/* The pattern metric of a call: dimension, order p, cutoff c, the cap of
 * the ground distance, fill = c ** p and the d1 rule. */
typedef struct {
    intptr_t dim;
    double p, c, cap, fill;
    int d1;
} metric_t;

static metric_t metric_of(intptr_t dim, double p, double c, double cap, int d1)
{
    metric_t g;
    g.dim = dim;
    g.p = p;
    g.c = c;
    g.cap = cap;
    g.fill = pow(c, p);
    g.d1 = d1;
    return g;
}

/* Cost min(sqrt(s), cap, c) ** p of two points at squared distance s. */
static inline double capped_cost(double s, const metric_t *g)
{
    double d = sqrt(s);
    if (d > g->cap)
        d = g->cap;
    if (d > g->c)
        d = g->c;
    /* numpy squares for p = 2; libm's pow can round otherwise */
    if (g->p == 2.0)
        return d * d;
    return g->p == 1.0 ? d : pow(d, g->p);
}

/* Squared distances of the point x to the n points b[0 .. n) into line,
 * where x and b step to their next coordinate by sx and sb.  Each is summed
 * over the coordinates in order, and the loops over the points vectorize. */
static void squared_distances(const double *x, intptr_t sx, const double *b,
                              intptr_t sb, intptr_t n, intptr_t dim,
                              double *restrict line)
{
    intptr_t j, k;
    for (j = 0; j < n; j++) {
        double t = x[0] - b[j];
        line[j] = t * t;
    }
    for (k = 1; k < dim; k++) {
        const double xk = x[k * sx], *restrict bk = b + k * sb;
        for (j = 0; j < n; j++) {
            double t = xk - bk[j];
            line[j] += t * t;
        }
    }
}

/* One pattern pair as its cost matrix sees it: the smaller pattern a (m
 * points, stride sa) as rows, the larger b (n points, stride sb) as
 * columns; swap is set when a is the ys pattern. */
typedef struct {
    const double *a, *b;
    intptr_t m, n, sa, sb;
    int swap;
} pair_t;

/* Pair (r, s): pattern r of xs (xn points) against pattern s of ys (yn). */
static pair_t pair_of(const double *xs, const intptr_t *xoff, intptr_t xn,
                      const double *ys, const intptr_t *yoff, intptr_t yn,
                      intptr_t r, intptr_t s)
{
    intptr_t nx = xoff[r + 1] - xoff[r], ny = yoff[s + 1] - yoff[s];
    pair_t q;
    q.swap = nx > ny;
    q.a = q.swap ? ys + yoff[s] : xs + xoff[r];
    q.b = q.swap ? xs + xoff[r] : ys + yoff[s];
    q.m = q.swap ? ny : nx;
    q.n = q.swap ? nx : ny;
    q.sa = q.swap ? yn : xn;
    q.sb = q.swap ? xn : yn;
    return q;
}

/* The pattern distance of a pair whose matching totals total. */
static double pair_value(double total, const metric_t *g, intptr_t n)
{
    return pow(total, 1.0 / g->p) / (double)(n > 1 ? n : 1);
}

/* Solve pair q on w into *value; with d1 set, patterns of different counts
 * are at min(c, cap) and w is left as it was. */
static int pair_solve(pair_t q, const metric_t *g, work_t *w, double *value)
{
    intptr_t i, j;
    double total;
    int status;
    if (g->d1 && q.m != q.n) {
        *value = g->c < g->cap ? g->c : g->cap;
        return 0;
    }
    for (i = 0; i < q.m; i++) {
        double *restrict row = w->costs + i * q.n;
        squared_distances(q.a + i, q.sa, q.b, q.sb, q.n, g->dim, row);
        for (j = 0; j < q.n; j++)
            row[j] = capped_cost(row[j], g);
    }
    status = solve_total(q.m, q.n, w->costs, g->fill, w, &total);
    if (!status)
        *value = pair_value(total, g, q.n);
    return status;
}

/* Most points of the patterns idx[0 .. count) of a stack, or of its first
 * count patterns when idx is NULL. */
static intptr_t largest(const intptr_t *off, const intptr_t *idx, intptr_t count)
{
    intptr_t t, most = 0;
    for (t = 0; t < count; t++) {
        intptr_t k = idx ? idx[t] : t;
        most = off[k + 1] - off[k] > most ? off[k + 1] - off[k] : most;
    }
    return most;
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

/* Pattern distances of count pattern pairs of two stacked collections of xn
 * and yn points, where pattern k of a stack is its points off[k] .. off[k + 1]:
 * pair t is pattern rows[t] of xs (m points) and pattern cols[t] of ys
 * (n points), and values[t] its distance, with fill = c ** p.  The smaller
 * pattern is matched into the larger.  match holds max(m, n) rows (i, j) per
 * pair, pair after pair, one per point of the larger pattern: point i of the
 * xs pattern is paired with point j of the ys pattern, and -1 marks a point
 * left unmatched.  With d1 set, patterns of different counts are at
 * min(c, cap) and not paired: every row of theirs is (-1, -1). */
int ppm_pairs(const double *xs, const intptr_t *xoff, const double *ys,
              const intptr_t *yoff, intptr_t dim, intptr_t xn, intptr_t yn,
              const intptr_t *rows, const intptr_t *cols, intptr_t count, double p,
              double c, double cap, int d1, double *values, intptr_t *match)
{
    metric_t g = metric_of(dim, p, c, cap, d1);
    work_t w;
    intptr_t t, k, most_x = largest(xoff, rows, count), most_y = largest(yoff, cols, count);
    intptr_t most = most_x > most_y ? most_x : most_y;
    int status = 0;
    if (work_alloc(&w, most, most, most_x * most_y))
        return PPM_NO_MEMORY;
    for (t = 0; !status && t < count; t++) {
        pair_t q = pair_of(xs, xoff, xn, ys, yoff, yn, rows[t], cols[t]);
        status = pair_solve(q, &g, &w, &values[t]);
        /* row4col[k] is the point of the smaller pattern matched to point k
         * of the larger */
        for (k = 0; !status && k < q.n; k++) {
            int unpaired = d1 && q.m != q.n;
            match[2 * k + q.swap] = unpaired ? -1 : w.row4col[k];
            match[2 * k + !q.swap] = unpaired ? -1 : k;
        }
        match += 2 * q.n;
    }
    free(w.block);
    return status;
}

/* Scratch of the bound scan of one pair, sized for the largest pattern:
 * one line of squared distances, per point the cheapest and second cheapest
 * cost to the other pattern and the first point at the cheapest, and the
 * group leaders of side_bound. */
typedef struct {
    double *line, *at, *row_min, *row_sec, *col_min, *col_sec;
    intptr_t *row_arg, *col_arg, *best;
    void *block;
} scan_t;

static int scan_alloc(scan_t *s, intptr_t most)
{
    size_t k = (size_t)most;
    s->block = malloc(6 * k * sizeof(double) + 3 * k * sizeof(intptr_t) + 1);
    if (s->block == NULL)
        return PPM_NO_MEMORY;
    s->line = (double *)s->block;
    s->at = s->line + k;
    s->row_min = s->at + k;
    s->row_sec = s->row_min + k;
    s->col_min = s->row_sec + k;
    s->col_sec = s->col_min + k;
    s->row_arg = (intptr_t *)(s->col_sec + k);
    s->col_arg = s->row_arg + k;
    s->best = s->col_arg + k;
    return 0;
}

/* For each point j of b (n points, stride sb), over the m points i of a
 * (stride sa): the least squared distance lo[j], the second least sec[j]
 * and the first point at the least, arg[j].  The loops over j carry no
 * value from one j to the next, and each holds only selects that gcc -O3
 * turns into vector min, max and blend instructions: at holds the points
 * at the least as doubles, which blend like the distances, and the update
 * of at is a loop of its own, since gcc vectorizes neither an integer
 * select on a double comparison nor the two loops as one.  On random
 * distances a branch mispredicts often. */
static void nearest(const double *a, intptr_t sa, intptr_t m, const double *b,
                    intptr_t sb, intptr_t n, intptr_t dim,
                    double *restrict line, double *restrict at,
                    double *restrict lo, double *restrict sec,
                    intptr_t *restrict arg)
{
    intptr_t i, j;
    for (j = 0; j < n; j++) {
        lo[j] = sec[j] = INFINITY;
        at[j] = 0.0;
    }
    for (i = 0; i < m; i++) {
        const double point = (double)i;
        squared_distances(a + i, sa, b, sb, n, dim, line);
        for (j = 0; j < n; j++)
            at[j] = line[j] < lo[j] ? point : at[j];
        /* the second least is min(sec, max(lo, d)) */
        for (j = 0; j < n; j++) {
            double d = line[j], l = lo[j], s = sec[j], hi = d > l ? d : l;
            sec[j] = s < hi ? s : hi;
            lo[j] = d < l ? d : l;
        }
    }
    for (j = 0; j < n; j++)
        arg[j] = (intptr_t)at[j];
}

/* Lower bound on what the count points of one side pay, when each pays its
 * cheapest cost lo[k] or more: of the points sharing a cheapest partner
 * arg[k] (one of others), at most one gets it, so all but the one with the
 * widest gap to its second cheapest cost sec[k] pay sec[k] or more.  sec
 * becomes the gaps, and *alone is set when each point is the only one at
 * its cheapest partner and its cheapest cost is not tied. */
static double side_bound(const double *lo, double *sec, const intptr_t *arg,
                         intptr_t count, intptr_t others, intptr_t *best,
                         int *alone)
{
    double sum = 0.0;
    intptr_t k;
    for (k = 0; k < others; k++)
        best[k] = -1;
    *alone = 1;
    for (k = 0; k < count; k++) {
        intptr_t b = best[arg[k]];
        sec[k] -= lo[k];
        *alone &= sec[k] > 0.0;
        if (b < 0 || sec[k] > sec[b])
            best[arg[k]] = k;
    }
    for (k = 0; k < count; k++) {
        sum += lo[k];
        if (best[arg[k]] != k) {
            sum += sec[k];
            *alone = 0;
        }
    }
    return sum;
}

/* Lower bound on the matching total of pair q into *total, or the total
 * itself, and then *exact is set.
 *
 * Each row (a point of the smaller pattern) is matched, at its cheapest cost
 * or more, and the n - m columns left over cost fill; each column is matched
 * at its cheapest cost or more, or costs fill, which no cost exceeds.  Each
 * side's sum is sharpened by side_bound, and the bound is the larger of the
 * two.  When every row has a cheapest column of its own and no tie for it,
 * solve's row reduction is already optimal, and the total is summed as
 * solve_total would.  The scan orders squared distances and caps only the
 * cheapest and second cheapest: capped_cost never decreases, so it maps them
 * to the cheapest and second cheapest costs. */
static int pair_bound(pair_t q, const metric_t *g, scan_t *s, double *total,
                      int *exact)
{
    const double fill = g->fill;
    double by_rows, by_cols;
    intptr_t k;
    int alone;
    nearest(q.b, q.sb, q.n, q.a, q.sa, q.m, g->dim, s->line, s->at, s->row_min,
            s->row_sec, s->row_arg);
    for (k = 0; k < q.m; k++) {
        s->row_min[k] = capped_cost(s->row_min[k], g);
        /* a lone column is no tie */
        s->row_sec[k] = q.n > 1 ? capped_cost(s->row_sec[k], g) : INFINITY;
    }
    by_rows = side_bound(s->row_min, s->row_sec, s->row_arg, q.m, q.n, s->best,
                         exact);
    if (*exact)
        return total_of(s->row_min, q.m, q.n, fill, total);
    by_rows += (double)(q.n - q.m) * fill;
    nearest(q.a, q.sa, q.m, q.b, q.sb, q.n, g->dim, s->line, s->at, s->col_min,
            s->col_sec, s->col_arg);
    for (k = 0; k < q.n; k++) {
        double lo = capped_cost(s->col_min[k], g), sec = capped_cost(s->col_sec[k], g);
        s->col_min[k] = lo < fill ? lo : fill;
        s->col_sec[k] = sec < fill ? sec : fill;
    }
    by_cols = side_bound(s->col_min, s->col_sec, s->col_arg, q.n, q.m, s->best,
                         &alone);
    *total = by_rows > by_cols ? by_rows : by_cols;
    return 0;
}

/* Stable sort of the patterns 0 .. size) of a stack by count, into order. */
static void sort_by_count(const intptr_t *off, intptr_t size, intptr_t *order)
{
    intptr_t i, j;
    for (i = 0; i < size; i++) {
        intptr_t n = off[i + 1] - off[i];
        for (j = i; j > 0 && off[order[j - 1] + 1] - off[order[j - 1]] > n; j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
}

/* Exact total of the pairing i -> cols[i] of the size x size entries dist,
 * whose entries are gathered into picked. */
static int pairing_total(const double *dist, const intptr_t *cols, intptr_t size,
                         double *picked, double *total)
{
    intptr_t i;
    for (i = 0; i < size; i++)
        picked[i] = dist[i * size + cols[i]];
    return total_of(picked, size, size, 0.0, total);
}

/* Exact empirical dbar2 of two stacks of size patterns each, whose point
 * totals off[size] are their strides: the mean pattern distance (as
 * ppm_pairs gives it) under an optimal pairing of the patterns, in *value,
 * and the number of pairs solved in *solved.
 *
 * Every entry of the size x size matrix of pattern distances starts at a
 * lower bound (pair_bound), or at the distance itself where that needs no
 * solve.  Each round solves the assignment on these entries, then solves
 * the pairs it picked that still hold bounds.  A round that picks only
 * exact entries ends the loop: its pairing costs no more under the exact
 * distances than the optimum over entries that are never above them, so it
 * is optimal, and its value is summed as ppm_min_cost_matching sums one.
 * Where two pairings tie in real arithmetic, that of the full matrix may be
 * the other, and the two values then differ in their last bits.  After
 * PPM_ROUNDS_PER_PATTERN * size rounds every pair left is solved, so the
 * next round ends the loop.  A pair's costs are built again when it is
 * solved, which keeps memory at the matrix plus the largest pair.
 *
 * A finite below asks only how dbar2 compares with below and above.  The
 * pairing of the stacks each sorted by count is then solved before any bound.
 * The mean exact distance of a pairing, the sorted one or a round's once its
 * picks are solved, is an upper bound on dbar2, returned when under below;
 * the mean of a round's optimum is a lower bound, returned when over above. */
int ppm_dbar2(const double *xs, const intptr_t *xoff, const double *ys,
              const intptr_t *yoff, intptr_t dim, intptr_t size, double p,
              double c, double cap, int d1, double below, double above,
              double *value, intptr_t *solved)
{
    enum { BOUND, EXACT, PICKED }; /* the states of an entry */
    metric_t g = metric_of(dim, p, c, cap, d1);
    work_t inner, outer;
    scan_t scan;
    double *dist = NULL, total = 0.0, upper;
    intptr_t *order;
    unsigned char *state = NULL;
    intptr_t i, k, cells = size * size, rounds = 0, xn = xoff[size], yn = yoff[size];
    intptr_t most_x = largest(xoff, NULL, size), most_y = largest(yoff, NULL, size);
    intptr_t most = most_x > most_y ? most_x : most_y;
    int status = PPM_NO_MEMORY, pending = 1, compare = below > -INFINITY;
    *solved = 0;
    inner.block = outer.block = scan.block = NULL;
    dist = malloc((size_t)cells * sizeof(double) + 2 * (size_t)size * sizeof(intptr_t) + 1);
    state = calloc((size_t)cells + 1, 1); /* every entry at BOUND */
    if (dist == NULL || state == NULL || scan_alloc(&scan, most) ||
        work_alloc(&inner, most, most, most_x * most_y) ||
        work_alloc(&outer, size, size, 0))
        goto done;
    status = 0;
    order = (intptr_t *)(dist + cells);
    if (compare) {
        sort_by_count(xoff, size, order);
        sort_by_count(yoff, size, order + size);
        for (i = 0; !status && i < size; i++) {
            pair_t q = pair_of(xs, xoff, xn, ys, yoff, yn, order[i], order[size + i]);
            k = order[i] * size + order[size + i];
            status = pair_solve(q, &g, &inner, &dist[k]);
            state[k] = EXACT;
            *solved += !(d1 && q.m != q.n);
            outer.col4row[order[i]] = order[size + i];
        }
        if (!status)
            status = pairing_total(dist, outer.col4row, size, outer.dist, &total);
        pending = !(total / (double)size < below);
    }
    for (k = 0; !status && pending && k < cells; k++) {
        pair_t q = pair_of(xs, xoff, xn, ys, yoff, yn, k / size, k % size);
        int exact = d1 && q.m != q.n;
        if (state[k] == EXACT)
            continue;
        if (exact) { /* valued without a solve */
            status = pair_solve(q, &g, &inner, &dist[k]);
        } else if (!(status = pair_bound(q, &g, &scan, &total, &exact))) {
            dist[k] = pair_value(total, &g, q.n);
            /* a bound summed naively over at most 2(m + n) + 1 terms rounds
             * by less than this margin, pow and the division included */
            if (!exact)
                dist[k] *= 1.0 - (double)(2 * (q.m + q.n) + 8) * DBL_EPSILON;
        }
        state[k] = exact ? EXACT : BOUND;
    }
    while (!status && pending) {
        status = solve_total(size, size, dist, 0.0, &outer, &total);
        if (status || total / (double)size > above)
            break;
        pending = 0;
        for (i = 0; i < size; i++) {
            k = i * size + outer.col4row[i];
            if (state[k] == BOUND) {
                state[k] = PICKED;
                pending = 1;
            }
        }
        if (pending && ++rounds >= PPM_ROUNDS_PER_PATTERN * size)
            for (k = 0; k < cells; k++)
                state[k] = state[k] == EXACT ? EXACT : PICKED;
        for (k = 0; !status && k < cells; k++) {
            if (state[k] != PICKED)
                continue;
            status = pair_solve(pair_of(xs, xoff, xn, ys, yoff, yn, k / size, k % size),
                                &g, &inner, &dist[k]);
            state[k] = EXACT;
            ++*solved;
        }
        if (!status && compare && pending &&
            !(status = pairing_total(dist, outer.col4row, size, outer.dist, &upper)) &&
            upper / (double)size < below) {
            total = upper;
            break;
        }
    }
    if (!status)
        *value = total / (double)size;
done:
    free(dist);
    free(state);
    free(scan.block);
    free(inner.block);
    free(outer.block);
    return status;
}
