/* The nested scan's native kernel (repro.core.engine, built and loaded
 * by repro.core.tile).  Its one entry point, scan_range, walks a λ range
 * of threads in colex order — one call per scan: a whole grid on the
 * single backend, a lease on the fleet — and reads and fills the
 * normal-hit store per thread.
 *
 * Every thread is scored against one inner table, the table of the
 * call's lowest level: `inner` (L, d) gene tuples in colex order,
 * `tumor_w` / `normal_w` their AND-reduced rows stored word-major
 * (W, L).  A lower level's table is a superset of a higher one's: entry
 * l belongs to a thread with top gene t when inner[l, 0] > t, and a
 * thread's valid entries, in column order, are combination-rank order.
 * Per thread, score_thread
 *
 *   1. tumor prefix: AND-reduces the f fixed rows of `tumor` into
 *      scratch and popcounts them.  No entry of the thread has a larger
 *      TP than that popcount, TP_prefix;
 *   2. prefix ceiling: unless the store holds the thread's normal hits,
 *      bounds its F by fl(fl(TP_prefix * alpha) + Nn) / denom — every
 *      TN is at most Nn, and rounding is monotone.  A thread whose
 *      ceiling cannot take or tie the lead (the step 6 predicate,
 *      reaches) is done: its entries count as scored, win[7] counts it,
 *      and it is not filled, so a later scan fills it only if it passes;
 *   3. normal side or fill: unless its normal hits are stored,
 *      AND-reduces the f fixed rows of `normal` and popcounts them
 *      against the normal table over the thread's valid columns only,
 *      keeping each base word in a register across the columns and
 *      skipping zero base words (they add 0 to every count).  A thread
 *      the store holds writes those counts and their minimum, `least`,
 *      to the store (a fill) before its filled mark is released;
 *   4. least bound: when the store holds the thread (read or just
 *      filled), every entry's TN is at most Nn - least, so
 *      fl(fl(TP_prefix * alpha) + (Nn - least)) / denom bounds its F;
 *      a thread that cannot reach the lead is done as in step 2;
 *   5. tumor product: popcounts the tumor base & inner the same way,
 *      takes the normal hits from the store (a hit) or step 3, and
 *      finds the thread's maximum of Equation 1's numerator
 *      fl(fl(TP * alpha) + TN), exactly repro.core.fscore.numerator
 *      (built with -ffp-contract=off, so the two roundings are never
 *      fused into one FMA).  The numerator of (max TP, max TN) bounds
 *      it, and is it when every TP is 0: the exact one is formed only
 *      for a thread that can reach the running best;
 *   6. when that F can tie or beat the running best (initially -inf),
 *      rescans the thread's entries in F: a greater F takes the lead,
 *      an equal one takes it when its gene tuple — thread tuple, then
 *      inner tuple — is smaller.
 *
 * Steps 2 and 4 skip the same threads whatever the store holds: the
 * least ceiling is never above the prefix one, so a thread is skipped
 * exactly when its least ceiling (or, past the store's cap, its prefix
 * ceiling) misses the lead.  Which threads are skipped depends only on
 * where the range is cut, since each call starts from lead -inf.
 * `least` is fixed for a solve: BitSplicing narrows the tumor side
 * alone.  It is written with the counts, before the release store of
 * the thread's filled mark, and read after its acquire load, so a
 * reader that sees the mark sees both.
 *
 * scan_range returns the number of valid entries scored and fills
 * `win`: win[0] the winner's column (-1 when the range has no entry),
 * win[1] its TP, win[2] its normal hits, win[3] the words the fixed-row
 * gathers read, win[4] store hits, win[5] store fills, win[6] threads
 * scored, win[7] threads bounded before their tumor product (steps 2
 * and 4), win[8 .. 8 + f) the winner's thread tuple.
 * The store holds `itemsize`-byte unsigned counts (1, 2, 4 or 8) and
 * one int32 `least` per thread.
 * `scratch` holds tw + nw + 2 * L + 2 words.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum {
    W_COL, W_TP, W_NH, W_READ, W_HITS, W_FILLS, W_THREADS, W_BOUNDED, W_GENES
};

/* One call's inner table, matrices, Equation 1 and running winner. */
struct scan {
    const uint64_t *tumor, *normal, *tumor_w, *normal_w;
    int64_t tw, nw, n_cols, d, f;
    const int64_t *inner;
    uint64_t *base_t, *base_n;
    int32_t *tp, *nh;
    int64_t *runs, *win;
    int64_t n_normal;
    double alpha, denom, lead;
};

/* The call's state over caller-provided scratch; clears the winner. */
static struct scan setup(const uint64_t *tumor, int64_t tw,
                         const uint64_t *normal, int64_t nw,
                         const int64_t *inner, int64_t n_cols, int64_t d,
                         const uint64_t *tumor_w, const uint64_t *normal_w,
                         uint64_t *scratch, int64_t *win, int64_t f,
                         int64_t n_normal, double alpha, double denom)
{
    int32_t *tp = (int32_t *)(scratch + tw + nw);
    memset(win, 0, W_GENES * sizeof *win);
    win[W_COL] = -1;
    return (struct scan){
        .tumor = tumor, .normal = normal, .tumor_w = tumor_w,
        .normal_w = normal_w, .tw = tw, .nw = nw, .n_cols = n_cols, .d = d,
        .f = f, .inner = inner, .base_t = scratch, .base_n = scratch + tw,
        .tp = tp, .nh = tp + n_cols,
        .runs = (int64_t *)(scratch + tw + nw + n_cols), .win = win,
        .n_normal = n_normal, .alpha = alpha, .denom = denom,
        .lead = -INFINITY,
    };
}

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

/* Whether F rf — an entry of thread `genes`, or a bound on them — can
 * take the lead: a greater F does; an equal one only when there is no
 * leader or the thread's tuple is smaller than the leader's (the rescan
 * settles ties inside one thread by the inner tuple). */
static int reaches(const struct scan *s, const int64_t *genes, double rf)
{
    return rf > s->lead
           || (rf == s->lead
               && (s->win[W_COL] < 0 || lex_less(genes, s->win + W_GENES, s->f)));
}

/* Writes a thread's normal hits nh, over its n_runs runs of valid
 * columns, to its store slice `hits`; returns their minimum (INT32_MAX
 * for a thread without entries). */
static int32_t fill(void *hits, int64_t itemsize, int32_t *nh,
                    const int64_t *runs, int64_t n_runs)
{
    int32_t least = INT32_MAX;
    for (int64_t r = 0, pos = 0; r < n_runs; r++) {
        const int64_t at = runs[2 * r], n = runs[2 * r + 1] - at;
        copy_hits(hits, pos, itemsize, nh + at, n, 0);
        for (int64_t i = at; i < at + n; i++)
            least = nh[i] < least ? nh[i] : least;
        pos += n;
    }
    return least;
}

/* Whether the thread's entries, each with TP at most tp_prefix and
 * normal hits at least nh_floor, can reach the lead; counts the thread
 * in win[7] when they cannot. */
static int ceiling_reaches(struct scan *s, const int64_t *genes,
                           int64_t tp_prefix, int32_t nh_floor)
{
    double ceiling = (double)tp_prefix * s->alpha;
    ceiling += (double)(s->n_normal - nh_floor);
    if (reaches(s, genes, ceiling / s->denom))
        return 1;
    s->win[W_BOUNDED]++;
    return 0;
}

/* Scores thread `genes`; returns its valid entries.  `mark` is NULL (no
 * store) or the thread's filled mark, with `hits` and `least` its first
 * count and least count in the store: read when the mark is set, filled
 * (and the mark released) otherwise, unless the prefix ceiling bounds
 * the thread first. */
static int64_t score_thread(struct scan *s, const int64_t *genes,
                            void *hits, int64_t itemsize, uint8_t *mark,
                            int32_t *least)
{
    const int64_t f = s->f, d = s->d;
    const double alpha = s->alpha, denom = s->denom;
    int32_t *tp = s->tp, *nh = s->nh;
    int64_t *runs = s->runs, *win = s->win;
    const int64_t n_runs = valid_runs(s->inner, s->n_cols, d, genes[f - 1], runs);
    int64_t pos = 0;
    for (int64_t r = 0; r < n_runs; r++)
        pos += runs[2 * r + 1] - runs[2 * r];
    const int stored = mark != NULL && __atomic_load_n(mark, __ATOMIC_ACQUIRE);
    win[W_READ] += and_rows(s->tumor, s->tw, genes, f, s->base_t);
    int64_t tp_prefix = 0;
    for (int64_t k = 0; k < s->tw; k++)
        tp_prefix += __builtin_popcountll(s->base_t[k]);
    if (stored)
        win[W_HITS]++;
    else {
        if (!ceiling_reaches(s, genes, tp_prefix, 0))
            return pos;
        win[W_READ] += and_rows(s->normal, s->nw, genes, f, s->base_n);
        product(s->base_n, s->nw, s->normal_w, s->n_cols, runs, n_runs, nh);
        if (mark != NULL) {
            *least = fill(hits, itemsize, nh, runs, n_runs);
            __atomic_store_n(mark, 1, __ATOMIC_RELEASE);
            win[W_FILLS]++;
        }
    }
    if (mark != NULL && !ceiling_reaches(s, genes, tp_prefix, *least))
        return pos;
    product(s->base_t, s->tw, s->tumor_w, s->n_cols, runs, n_runs, tp);
    int32_t tp_max = 0, nh_min = INT32_MAX;
    for (int64_t r = 0, at_hit = 0; r < n_runs; r++) {
        const int64_t at = runs[2 * r], n = runs[2 * r + 1] - at;
        if (stored)
            copy_hits(hits, at_hit, itemsize, nh + at, n, 1);
        extremes(tp + at, nh + at, n, &tp_max, &nh_min);
        at_hit += n;
    }
    /* The numerator of (max TP, max TN) bounds every entry's, since
     * rounding is monotone, and is their maximum when every TP is 0
     * (each numerator is then its TN).  Only a thread that can reach
     * the lead needs the exact one. */
    double rmax = (double)tp_max * alpha;
    rmax += (double)(s->n_normal - nh_min);
    if (pos == 0)
        rmax = -INFINITY;
    else if (tp_max != 0 && rmax / denom >= s->lead) {
        rmax = -INFINITY;
        for (int64_t r = 0; r < n_runs; r++) {
            const int64_t at = runs[2 * r];
            rmax = max_numerator(tp + at, nh + at, runs[2 * r + 1] - at,
                                 (int32_t)s->n_normal, alpha, rmax);
        }
    }
    if (!reaches(s, genes, rmax / denom))
        return pos;
    int64_t *lead_genes = win + W_GENES;
    int mine = 0;
    for (int64_t r = 0; r < n_runs; r++) {
        for (int64_t l = runs[2 * r]; l < runs[2 * r + 1]; l++) {
            double num = (double)tp[l] * alpha;
            num += (double)(s->n_normal - nh[l]);
            const double fv = num / denom;
            if (fv > s->lead
                || (fv == s->lead
                    && (win[W_COL] < 0
                        || (mine ? lex_less(s->inner + l * d, s->inner + win[W_COL] * d, d)
                                 : lex_less(genes, lead_genes, f))))) {
                s->lead = fv;
                win[W_COL] = l;
                win[W_TP] = tp[l];
                win[W_NH] = nh[l];
                if (!mine)
                    memcpy(lead_genes, genes, (size_t)f * sizeof *genes);
                mine = 1;
            }
        }
    }
    return pos;
}

/* The colex successor of the f-tuple c, in place. */
static void next_tuple(int64_t *c, int64_t f)
{
    int64_t i = 0;
    while (i + 1 < f && c[i] + 1 == c[i + 1])
        i++;
    c[i]++;
    for (int64_t j = 0; j < i; j++)
        c[j] = j;
}

/* Threads genes, its n_threads - 1 colex successors.  The first
 * n_stored of them are held by the store: their counts run from `hits`,
 * their least counts from `least`, their filled marks from `filled`.  A
 * mark is read with an acquire load and set with a release store after
 * its counts and least count are written, so a reader never sees a
 * half-written slice, and two calls that fill one thread write equal
 * values.  `genes` is stepped in place. */
int64_t scan_range(const uint64_t *tumor, int64_t tw,
                   const uint64_t *normal, int64_t nw,
                   const int64_t *inner, int64_t n_cols, int64_t d,
                   const uint64_t *tumor_w, const uint64_t *normal_w,
                   uint64_t *scratch, int64_t *win,
                   int64_t *genes, int64_t n_threads, int64_t f,
                   void *hits, uint8_t *filled, int32_t *least,
                   int64_t itemsize, int64_t n_stored, int64_t n_normal,
                   double alpha, double denom)
{
    struct scan s = setup(tumor, tw, normal, nw, inner, n_cols, d, tumor_w,
                          normal_w, scratch, win, f, n_normal, alpha, denom);
    int64_t pos = 0, n_valid = 0;
    for (int64_t i = 0; i < n_threads; i++) {
        const int held = i < n_stored;
        const int64_t n = score_thread(
            &s, genes, held ? (char *)hits + pos * itemsize : NULL, itemsize,
            held ? filled + i : NULL, held ? least + i : NULL);
        pos += n;
        n_valid += n;
        next_tuple(genes, f);
    }
    win[W_THREADS] = n_threads;
    return n_valid;
}
