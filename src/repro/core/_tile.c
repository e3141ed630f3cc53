/* One tile of the nested scan, whole (repro.core.engine._score_tile).
 *
 * Threads are the B rows of `tuples` (f fixed genes each, λ-sorted),
 * scored against the inner table of the tile's lowest level: `inner`
 * (L, d) gene tuples in colex order, `tumor_w` / `normal_w` their
 * AND-reduced rows stored word-major (W, L).  Entry (b, l) belongs to
 * thread b when inner[l, 0] > tuples[b, f - 1]; the valid entries,
 * row-major, are combination-rank order.  Per thread the call
 *
 *   1. AND-reduces the f fixed rows of `tumor` (and, on a store miss,
 *      of `normal`) into `scratch`;
 *   2. popcounts base & inner over the thread's valid columns only,
 *      keeping each base word in a register across the columns and
 *      skipping zero base words (they add 0 to every count);
 *   3. takes the normal hits from `hits` (a store hit: `normal_w` is
 *      NULL) or from the product, writing them compacted in rank order
 *      to `hits` when it is not NULL (a store fill);
 *   4. finds the thread's maximum of Equation 1's numerator
 *      fl(fl(TP * alpha) + TN), exactly repro.core.fscore.numerator
 *      (built with -ffp-contract=off, so the two roundings are never
 *      fused into one FMA), and writes max / denom to thread_max[b].
 *      The numerator of (max TP, max TN) bounds it, and is it when
 *      every TP is 0: the exact one is formed only for a thread that
 *      can reach the running best, or whose maximum is wanted;
 *   5. when that F can tie or beat the running best (initially the
 *      caller's incumbent F, or -inf), rescans the thread's entries in
 *      F: a greater F takes the lead, an equal one takes it when its
 *      gene tuple — thread tuple, then inner tuple — is smaller.
 *
 * Returns the number of valid entries; win = (b, l, TP, normal hits) of
 * the tile's best entry when its F is >= the incumbent's, b = -1 else,
 * then the words the call's fixed-row gathers read.
 * `hits` holds `itemsize`-byte unsigned counts (1, 2, 4 or 8).
 * `scratch` holds tw + nw + 2 * L + 2 words.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* AND-reduces the f rows `genes` of m into out; returns the words read. */
static int64_t and_rows(const uint64_t *m, int64_t w, const int64_t *genes,
                        int64_t f, uint64_t *restrict out)
{
    int64_t read = w;
    memcpy(out, m + genes[0] * w, (size_t)w * sizeof *out);
    for (int64_t j = 1; j < f; j++) {
        const uint64_t *restrict row = m + genes[j] * w;
        for (int64_t k = 0; k < w; k++)
            out[k] &= row[k];
        read += w;
    }
    return read;
}

static void product(const uint64_t *base, int64_t w, const uint64_t *table,
                    int64_t n_cols, const int64_t *runs, int64_t n_runs,
                    int32_t *restrict row)
{
    for (int64_t r = 0; r < n_runs; r++)
        memset(row + runs[2 * r], 0,
               (size_t)(runs[2 * r + 1] - runs[2 * r]) * sizeof *row);
    for (int64_t k = 0; k < w; k++) {
        const uint64_t x = base[k];
        if (x == 0)
            continue;
        const uint64_t *restrict col = table + k * n_cols;
        for (int64_t r = 0; r < n_runs; r++) {
            const int64_t s = runs[2 * r], e = runs[2 * r + 1];
            for (int64_t l = s; l < e; l++)
                row[l] += (int32_t)__builtin_popcountll(x & col[l]);
        }
    }
}

/* Copies n counts between the store slice `hits` (from entry `at`, of
 * `size` bytes each) and nh: in (a store hit) or out (a store fill). */
#define COPY(T)                                                        \
    do {                                                               \
        T *q = (T *)hits + at;                                         \
        if (in)                                                        \
            for (int64_t i = 0; i < n; i++)                            \
                nh[i] = (int32_t)q[i];                                 \
        else                                                           \
            for (int64_t i = 0; i < n; i++)                            \
                q[i] = (T)nh[i];                                       \
    } while (0)

static void copy_hits(void *hits, int64_t at, int64_t size,
                      int32_t *restrict nh, int64_t n, int in)
{
    switch (size) {
    case 1: COPY(uint8_t); break;
    case 2: COPY(uint16_t); break;
    case 4: COPY(uint32_t); break;
    default: COPY(uint64_t); break;
    }
}

/* The largest TP and the smallest normal hit count of n entries, folded
 * into *tp_max and *nh_min. */
static void extremes(const int32_t *tp, const int32_t *nh, int64_t n,
                     int32_t *tp_max, int32_t *nh_min)
{
    int32_t a = *tp_max, b = *nh_min;
    for (int64_t i = 0; i < n; i++) {
        a = tp[i] > a ? tp[i] : a;
        b = nh[i] < b ? nh[i] : b;
    }
    *tp_max = a;
    *nh_min = b;
}

/* The largest numerator of n entries, or m if that is larger.  A max is
 * exact in any order, so the reduction may vectorize (-fopenmp-simd). */
static double max_numerator(const int32_t *tp, const int32_t *nh, int64_t n,
                            int32_t n_normal, double alpha, double m)
{
#pragma omp simd reduction(max : m)
    for (int64_t i = 0; i < n; i++) {
        double num = (double)tp[i] * alpha;
        num += (double)(n_normal - nh[i]);
        m = num > m ? num : m;
    }
    return m;
}

static int lex_less(const int64_t *a, const int64_t *b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i];
    return 0;
}

/* Runs [start, end) of thread `top`'s valid columns.  Colex order sorts
 * by the largest gene, so the columns whose largest gene is <= top are a
 * prefix; past it, at d = 1 every column is valid. */
static int64_t valid_runs(const int64_t *inner, int64_t n_cols, int64_t d,
                          int64_t top, int64_t *runs)
{
    int64_t lo = 0, hi = n_cols;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (inner[mid * d + d - 1] > top)
            hi = mid;
        else
            lo = mid + 1;
    }
    if (d == 1) {
        runs[0] = lo;
        runs[1] = n_cols;
        return lo < n_cols;
    }
    int64_t n_runs = 0;
    for (int64_t l = lo; l < n_cols; l++) {
        if (inner[l * d] <= top)
            continue;
        if (n_runs && runs[2 * n_runs - 1] == l)
            runs[2 * n_runs - 1] = l + 1;
        else {
            runs[2 * n_runs] = l;
            runs[2 * n_runs + 1] = l + 1;
            n_runs++;
        }
    }
    return n_runs;
}

int64_t tile_score(const uint64_t *tumor, int64_t tw,
                   const uint64_t *normal, int64_t nw,
                   const int64_t *inner, int64_t n_cols, int64_t d,
                   const uint64_t *tumor_w, uint64_t *scratch, int64_t *win,
                   const int64_t *tuples, int64_t n_rows, int64_t f,
                   const uint64_t *normal_w, void *hits, int64_t itemsize,
                   int64_t n_normal, double alpha, double denom,
                   double best_f, double *thread_max)
{
    uint64_t *base_t = scratch, *base_n = scratch + tw;
    int32_t *tp = (int32_t *)(base_n + nw);
    int32_t *nh = tp + n_cols;
    int64_t *runs = (int64_t *)(scratch + tw + nw + n_cols);
    int64_t pos = 0, cb = -1, cl = -1, read = 0;
    double lead = best_f;

    for (int64_t b = 0; b < n_rows; b++) {
        const int64_t *genes = tuples + b * f;
        const int64_t n_runs = valid_runs(inner, n_cols, d, genes[f - 1], runs);
        read += and_rows(tumor, tw, genes, f, base_t);
        product(base_t, tw, tumor_w, n_cols, runs, n_runs, tp);
        if (normal_w != NULL) {
            read += and_rows(normal, nw, genes, f, base_n);
            product(base_n, nw, normal_w, n_cols, runs, n_runs, nh);
        }
        const int64_t first = pos;
        int32_t tp_max = 0, nh_min = INT32_MAX;
        for (int64_t r = 0; r < n_runs; r++) {
            const int64_t s = runs[2 * r], n = runs[2 * r + 1] - s;
            if (normal_w == NULL)
                copy_hits(hits, pos, itemsize, nh + s, n, 1);
            else if (hits != NULL)
                copy_hits(hits, pos, itemsize, nh + s, n, 0);
            extremes(tp + s, nh + s, n, &tp_max, &nh_min);
            pos += n;
        }
        /* The numerator of (max TP, max TN) bounds every entry's, since
         * rounding is monotone, and is their maximum when every TP is 0
         * (each numerator is then its TN).  Only a thread that can reach
         * the lead, or whose maximum is wanted, needs the exact one. */
        double rmax = (double)tp_max * alpha;
        rmax += (double)(n_normal - nh_min);
        if (pos == first)
            rmax = -INFINITY;
        else if (tp_max != 0 && (thread_max != NULL || rmax / denom >= lead)) {
            rmax = -INFINITY;
            for (int64_t r = 0; r < n_runs; r++) {
                const int64_t s = runs[2 * r];
                rmax = max_numerator(tp + s, nh + s, runs[2 * r + 1] - s,
                                     (int32_t)n_normal, alpha, rmax);
            }
        }
        if (thread_max != NULL)
            thread_max[b] = rmax / denom;
        /* A thread's entries tie the lead only if its tuple is smaller
         * than the leader's (an inner tuple decides within a thread). */
        const double rf = rmax / denom;
        if (!(rf > lead || (rf == lead && (cb < 0 || lex_less(genes, tuples + cb * f, f)))))
            continue;
        for (int64_t r = 0; r < n_runs; r++) {
            for (int64_t l = runs[2 * r]; l < runs[2 * r + 1]; l++) {
                double num = (double)tp[l] * alpha;
                num += (double)(n_normal - nh[l]);
                const double fv = num / denom;
                if (fv > lead
                    || (fv == lead
                        && (cb < 0
                            || (b == cb ? lex_less(inner + l * d, inner + cl * d, d)
                                        : lex_less(genes, tuples + cb * f, f))))) {
                    lead = fv;
                    cb = b;
                    cl = l;
                    win[2] = tp[l];
                    win[3] = nh[l];
                }
            }
        }
    }
    win[0] = cb;
    win[1] = cl;
    win[4] = read;
    return pos;
}
