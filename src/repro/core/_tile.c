/* The nested scan's native kernel (repro.core.engine, built and loaded
 * by repro.core.tile).  Its one entry point, scan_range, walks a λ range
 * of threads in colex order — one call per scan: a whole grid on the
 * single backend, a lease on the fleet — and reads and fills the
 * normal-hit store per thread.
 *
 * Every thread is scored against one inner table, the table of the
 * call's lowest level: `inner` (L, d) gene tuples in colex order,
 * `tumor_in` / `normal_in` their AND-reduced rows, one W-word row per
 * entry (L, W).  A lower level's table is a superset of a higher one's: entry
 * l belongs to a thread with top gene t when inner[l, 0] > t, and a
 * thread's valid entries, in column order, are combination-rank order.
 *
 * In colex order the threads that share their top k genes, k = 1 ..
 * f - 1, are contiguous: a depth-k group.  scan_range keeps depth k of
 * the tumor prefix, the AND of those k rows, in scratch, and forms it
 * again (one row ANDed into depth k - 1) only when the walk enters a new
 * depth-k group; the valid columns, which depend on the top gene alone,
 * are found once per depth-1 group.  Per thread, scan_range
 *
 *   0. group ceiling: for each depth it forms, from the shallowest,
 *      bounds the group's F by fl(fl(popcount * alpha) + Nn) / denom,
 *      as an integer test: popcount < need, the smallest TP whose
 *      ceiling is not below the lead (the ceiling is monotone in TP;
 *      `need` is found again whenever the lead moves).  When the
 *      ceiling is strictly below the lead, it skips the rest of the
 *      group in O(1): each member counts in win[7] and its valid
 *      columns as scored, and the walk resumes after the group's last
 *      member.  No member's TP_prefix exceeds the group's popcount, so
 *      steps 2 and 4 would bound each member, and a bounded thread
 *      never moves the lead: the skip changes no outcome and no count
 *      but the words read;
 *
 * and for each thread no group skips (the threads of one depth f - 1
 * group are walked in one loop over genes[0])
 *
 *   1. tumor prefix: ANDs the thread's lowest row, genes[0], into depth
 *      f - 1 (for f = 1, takes that row) and popcounts it.  No entry of
 *      the thread has a larger TP than that popcount, TP_prefix;
 *   2. prefix ceiling: below `need` the thread is done before its
 *      store slice is read — its prefix ceiling misses the lead, and
 *      its least ceiling is never above that.  Otherwise score_thread,
 *      unless the store holds the thread's normal hits, bounds its F by
 *      fl(fl(TP_prefix * alpha) + Nn) / denom — every TN is at most
 *      Nn, and rounding is monotone.  A thread whose ceiling cannot
 *      take or tie the lead (the step 6 predicate, reaches) is done:
 *      its entries count as scored, win[7] counts it, and it is not
 *      filled, so a later scan fills it only if it passes;
 *   3. normal side or fill: unless its normal hits are stored,
 *      AND-reduces the f fixed rows of `normal` and popcounts them
 *      against the normal row of each valid column.  A thread the
 *      store holds writes those counts and their minimum, `least`, to
 *      the store (a fill) before its filled mark is released;
 *   4. least bound: when the store holds the thread (read or just
 *      filled), every entry's TN is at most Nn - least, so
 *      fl(fl(TP_prefix * alpha) + (Nn - least)) / denom bounds its F;
 *      a thread that cannot reach the lead is done as in step 2;
 *   5. candidates: takes the normal hits from the store (a hit) or step
 *      3.  A column's own ceiling, fl(fl(TP_prefix * alpha) + (Nn -
 *      nh)) / denom, falls as its normal hits nh rise, so the columns
 *      that can reach the lead are those with at most `cap` normal
 *      hits; only they have their tumor side popcounted, one tumor row
 *      each, and Equation 1's numerator fl(fl(TP * alpha) + TN) formed,
 *      exactly repro.core.fscore.numerator (built with
 *      -ffp-contract=off, so the two roundings are never fused into
 *      one FMA).  Any other column's F is below the lead: it can
 *      neither take nor tie it;
 *   6. when the candidates' largest F can tie or beat the running best
 *      (initially -inf), rescans them in F: a greater F takes the lead,
 *      an equal one takes it when its gene tuple — thread tuple, then
 *      inner tuple — is smaller.
 *
 * Steps 0, 2 and 4 skip the same threads whatever the store holds: the
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
 * gathers read (tw per group depth formed, tw per thread no group skips,
 * nw * f per thread that gathers its normal side), win[4] store hits
 * (of threads past `need`), win[5] store fills, win[6] threads
 * scored, win[7] threads bounded before their tumor product (steps 0,
 * 2 and 4), win[8 .. 8 + f) the winner's thread tuple.
 * The store holds `itemsize`-byte unsigned counts (1, 2, 4 or 8) and
 * one int32 `least` per thread.
 * `scratch` holds f * tw + nw + 3 * L + 2 words: depths 1 .. f of the
 * tumor prefix first, then the normal base, then five int32 arrays of
 * L: the thread's valid columns and their normal hits, the candidate
 * columns, their normal hits and their TP.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#ifdef __AVX512VPOPCNTDQ__
#include <immintrin.h>
#endif

enum {
    W_COL, W_TP, W_NH, W_READ, W_HITS, W_FILLS, W_THREADS, W_BOUNDED, W_GENES
};

/* One call's inner table, matrices, Equation 1 and running winner.
 * prefix[(k - 1) * tw ..] is depth k of the tumor prefix, k = 1 .. f;
 * depth f, the thread's own, is base_t. */
struct scan {
    const uint64_t *tumor, *normal, *tumor_in, *normal_in;
    int64_t tw, nw, n_cols, d, f;
    const int64_t *inner;
    uint64_t *prefix, *base_t, *base_n;
    int32_t *cols, *nh, *cand, *cand_nh, *tp;
    int64_t *win;
    int64_t n_normal, need;
    double alpha, denom, lead;
};

/* The call's state over caller-provided scratch; clears the winner. */
static struct scan setup(const uint64_t *tumor, int64_t tw,
                         const uint64_t *normal, int64_t nw,
                         const int64_t *inner, int64_t n_cols, int64_t d,
                         const uint64_t *tumor_in, const uint64_t *normal_in,
                         uint64_t *scratch, int64_t *win, int64_t f,
                         int64_t n_normal, double alpha, double denom)
{
    uint64_t *base_n = scratch + f * tw;
    int32_t *cols = (int32_t *)(base_n + nw);
    memset(win, 0, W_GENES * sizeof *win);
    win[W_COL] = -1;
    return (struct scan){
        .tumor = tumor, .normal = normal, .tumor_in = tumor_in,
        .normal_in = normal_in, .tw = tw, .nw = nw, .n_cols = n_cols,
        .d = d, .f = f, .inner = inner, .prefix = scratch,
        .base_t = scratch + (f - 1) * tw, .base_n = base_n,
        .cols = cols, .nh = cols + n_cols, .cand = cols + 2 * n_cols,
        .cand_nh = cols + 3 * n_cols, .tp = cols + 4 * n_cols, .win = win,
        .n_normal = n_normal, .alpha = alpha, .denom = denom,
        .need = 0, .lead = -INFINITY,
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

/* and_into writes the AND of the w-word rows a and b to out and returns
 * its popcount; count_rows sets out[j] to the popcount of base AND row
 * at[j] of `table` (w words a row), j < n.  Rows are a few dozen words,
 * too short for the vectorizer's prologue and reduction to pay, so
 * where the CPU counts bits in 512-bit lanes the sums are written out:
 * eight words a step, the tail under a mask. */
#ifdef __AVX512VPOPCNTDQ__
static inline __m512i and8(const uint64_t *a, const uint64_t *b, int64_t n)
{
    if (n >= 8)
        return _mm512_and_si512(_mm512_loadu_si512(a), _mm512_loadu_si512(b));
    const __mmask8 m = (__mmask8)((1u << n) - 1);
    return _mm512_and_si512(_mm512_maskz_loadu_epi64(m, a),
                            _mm512_maskz_loadu_epi64(m, b));
}

static int64_t and_into(uint64_t *out, const uint64_t *a, const uint64_t *b,
                        int64_t w)
{
    __m512i acc = _mm512_setzero_si512();
    for (int64_t k = 0; k < w; k += 8) {
        const __m512i v = and8(a + k, b + k, w - k);
        const int64_t n = w - k;
        _mm512_mask_storeu_epi64(out + k, n >= 8 ? 0xff : (__mmask8)((1u << n) - 1), v);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    return _mm512_reduce_add_epi64(acc);
}

static void count_rows(const uint64_t *base, int64_t w, const uint64_t *table,
                       const int32_t *at, int64_t n, int32_t *out)
{
    for (int64_t j = 0; j < n; j++) {
        const uint64_t *row = table + at[j] * w;
        __m512i acc = _mm512_setzero_si512();
        for (int64_t k = 0; k < w; k += 8)
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(and8(base + k, row + k, w - k)));
        out[j] = (int32_t)_mm512_reduce_add_epi64(acc);
    }
}
#else
static int64_t and_into(uint64_t *out, const uint64_t *a, const uint64_t *b,
                        int64_t w)
{
    int64_t c = 0;
    for (int64_t k = 0; k < w; k++) {
        out[k] = a[k] & b[k];
        c += __builtin_popcountll(out[k]);
    }
    return c;
}

static void count_rows(const uint64_t *base, int64_t w, const uint64_t *table,
                       const int32_t *at, int64_t n, int32_t *out)
{
    for (int64_t j = 0; j < n; j++) {
        const uint64_t *row = table + at[j] * w;
        int64_t c = 0;
        for (int64_t k = 0; k < w; k++)
            c += __builtin_popcountll(base[k] & row[k]);
        out[j] = (int32_t)c;
    }
}
#endif

/* Depth k of the tumor prefix, the AND of the top k fixed rows
 * genes[f - k .. f - 1]: depth k - 1 AND row genes[f - k] (depth 1 is
 * that row alone).  Returns its popcount. */
static int64_t deepen(struct scan *s, const int64_t *genes, int64_t k)
{
    const int64_t tw = s->tw;
    const uint64_t *row = s->tumor + genes[s->f - k] * tw;
    uint64_t *out = s->prefix + (k - 1) * tw;
    s->win[W_READ] += tw;
    return and_into(out, k == 1 ? row : out - tw, row, tw);
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

static int lex_less(const int64_t *a, const int64_t *b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i];
    return 0;
}

/* Thread `top`'s valid columns, in order, into cols; returns how many.
 * Colex order sorts by the largest gene, so the columns whose largest
 * gene is <= top are a prefix; past it, at d = 1 every column is valid. */
static int64_t valid_cols(const int64_t *inner, int64_t n_cols, int64_t d,
                          int64_t top, int32_t *cols)
{
    int64_t lo = 0, hi = n_cols;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (inner[mid * d + d - 1] > top)
            hi = mid;
        else
            lo = mid + 1;
    }
    int64_t n = 0;
    for (int64_t l = lo; l < n_cols; l++) {
        cols[n] = (int32_t)l;
        n += d == 1 || inner[l * d] > top;
    }
    return n;
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

/* Writes a thread's n normal hits nh to its store slice `hits`; returns
 * their minimum (INT32_MAX for a thread without entries). */
static int32_t fill(void *hits, int64_t itemsize, int32_t *nh, int64_t n)
{
    int32_t least = INT32_MAX;
    copy_hits(hits, 0, itemsize, nh, n, 0);
    for (int64_t i = 0; i < n; i++)
        least = nh[i] < least ? nh[i] : least;
    return least;
}

/* fl(fl(tp * alpha) + (Nn - nh_floor)) / denom: the F of every entry
 * with TP at most tp and normal hits at least nh_floor is at most this,
 * since rounding is monotone. */
static double ceiling(const struct scan *s, int64_t tp, int32_t nh_floor)
{
    double num = (double)tp * s->alpha;
    num += (double)(s->n_normal - nh_floor);
    return num / s->denom;
}

/* The smallest TP whose ceiling at no normal hits is not below the
 * lead, 64 * tw + 1 when none is: the ceiling is monotone in TP, so a
 * prefix with fewer tumor hits bounds every entry below the lead, and
 * one with at least this many does not. */
static int64_t tp_needed(const struct scan *s)
{
    int64_t lo = 0, hi = 64 * s->tw + 1;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (ceiling(s, mid, 0) < s->lead)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The most normal hits an entry with TP at most tp can have and still
 * reach the lead: -1 when none can, Nn with no lead.  The ceiling falls
 * as normal hits rise, so a column with more than this is below the
 * lead whatever its TP.  The estimate from the real numbers is moved
 * onto the rounded ceiling's boundary. */
static int64_t nh_cap(const struct scan *s, int64_t tp)
{
    const int64_t nn = s->n_normal;
    if (s->lead == -INFINITY)
        return nn;
    const double est = floor((double)tp * s->alpha + (double)nn
                             - s->lead * s->denom);
    int64_t cap = est < -1.0 ? -1 : est > (double)nn ? nn : (int64_t)est;
    while (cap < nn && ceiling(s, tp, (int32_t)(cap + 1)) >= s->lead)
        cap++;
    while (cap >= 0 && ceiling(s, tp, (int32_t)cap) < s->lead)
        cap--;
    return cap;
}

/* Whether the thread's entries, each with TP at most tp_prefix and
 * normal hits at least nh_floor, can reach the lead; counts the thread
 * in win[7] when they cannot. */
static int ceiling_reaches(struct scan *s, const int64_t *genes,
                           int64_t tp_prefix, int32_t nh_floor)
{
    if (reaches(s, genes, ceiling(s, tp_prefix, nh_floor)))
        return 1;
    s->win[W_BOUNDED]++;
    return 0;
}

/* The valid columns whose normal hits are at most cap, with those
 * hits, into cand and cand_nh; returns how many.  Which columns pass is
 * data, so they are listed without a branch per column: a mispredicted
 * branch costs more than the test. */
static int64_t select_cols(const int32_t *cols, const int32_t *nh, int64_t n,
                           int64_t cap, int32_t *cand, int32_t *cand_nh)
{
    int64_t m = 0;
    for (int64_t v = 0; v < n; v++) {
        cand[m] = cols[v];
        cand_nh[m] = nh[v];
        m += nh[v] <= cap;
    }
    return m;
}

/* Scores thread `genes`, whose tumor prefix base_t has popcount
 * tp_prefix and whose n_valid valid columns are s->cols.  `mark` is
 * NULL (no store) or the thread's filled mark, with `hits` and `least`
 * its first count and least count in the store: read when the mark is
 * set, filled (and the mark released) otherwise, unless the prefix
 * ceiling bounds the thread first.  Only the columns whose own ceiling,
 * at TP_prefix and their normal hits, reaches the lead have their tumor
 * side formed: no other can take or tie it. */
static void score_thread(struct scan *s, const int64_t *genes,
                         int64_t tp_prefix, int64_t n_valid, void *hits,
                         int64_t itemsize, uint8_t *mark, int32_t *least)
{
    const int64_t f = s->f, d = s->d;
    const double alpha = s->alpha, denom = s->denom;
    int32_t *nh = s->nh, *cand = s->cand, *cand_nh = s->cand_nh, *tp = s->tp;
    int64_t *win = s->win;
    const int stored = mark != NULL && __atomic_load_n(mark, __ATOMIC_ACQUIRE);
    if (stored)
        win[W_HITS]++;
    else {
        if (!ceiling_reaches(s, genes, tp_prefix, 0))
            return;
        win[W_READ] += and_rows(s->normal, s->nw, genes, f, s->base_n);
        count_rows(s->base_n, s->nw, s->normal_in, s->cols, n_valid, nh);
        if (mark != NULL) {
            *least = fill(hits, itemsize, nh, n_valid);
            __atomic_store_n(mark, 1, __ATOMIC_RELEASE);
            win[W_FILLS]++;
        }
    }
    if (mark != NULL && !ceiling_reaches(s, genes, tp_prefix, *least))
        return;
    if (stored)
        copy_hits(hits, 0, itemsize, nh, n_valid, 1);
    const int64_t n = select_cols(s->cols, nh, n_valid,
                                  nh_cap(s, tp_prefix), cand, cand_nh);
    if (n == 0)
        return;
    count_rows(s->base_t, s->tw, s->tumor_in, cand, n, tp);
    double rmax = -INFINITY;
    for (int64_t j = 0; j < n; j++) {
        double num = (double)tp[j] * alpha;
        num += (double)(s->n_normal - cand_nh[j]);
        rmax = num > rmax ? num : rmax;
    }
    if (!reaches(s, genes, rmax / denom))
        return;
    int64_t *lead_genes = win + W_GENES;
    int mine = 0;
    for (int64_t j = 0; j < n; j++) {
        const int64_t l = cand[j];
        double num = (double)tp[j] * alpha;
        num += (double)(s->n_normal - cand_nh[j]);
        const double fv = num / denom;
        if (fv > s->lead
            || (fv == s->lead
                && (win[W_COL] < 0
                    || (mine ? lex_less(s->inner + l * d, s->inner + win[W_COL] * d, d)
                             : lex_less(genes, lead_genes, f))))) {
            s->lead = fv;
            win[W_COL] = l;
            win[W_TP] = tp[j];
            win[W_NH] = cand_nh[j];
            if (!mine)
                memcpy(lead_genes, genes, (size_t)f * sizeof *genes);
            mine = 1;
        }
    }
    if (mine)
        s->need = tp_needed(s);
}

/* The colex successor of the f-tuple c, in place; returns the highest
 * index it changed (every index below it changes too). */
static int64_t next_tuple(int64_t *c, int64_t f)
{
    int64_t i = 0;
    while (i + 1 < f && c[i] + 1 == c[i + 1])
        i++;
    c[i]++;
    for (int64_t j = 0; j < i; j++)
        c[j] = j;
    return i;
}

/* C(n, k); 0 when k > n.  Each step is exact: after step j, c is
 * C(n - k + j, j).  The product is formed in 128 bits and divided in
 * 64 whenever it fits. */
static int64_t binom(int64_t n, int64_t k)
{
    if (k > n)
        return 0;
    if (k < 3) /* the skips of f <= 3, without a division */
        return k == 0 ? 1 : k == 1 ? n : (int64_t)(((uint64_t)n * (uint64_t)(n - 1)) >> 1);
    unsigned __int128 c = 1;
    for (int64_t j = 1; j <= k; j++) {
        c *= (uint64_t)(n - k + j);
        c = c >> 64 ? c / (uint64_t)j : (uint64_t)c / (uint64_t)j;
    }
    return (int64_t)c;
}

/* The threads from `genes` to the end of its group of depth f - r, the
 * threads that share genes[r .. f - 1]: their lower genes run over the
 * r-subsets of [0, genes[r]) in colex order, C(genes[r], r) of them, and
 * genes[0 .. r) is the subset of colex rank sum C(genes[j], j + 1). */
static int64_t group_left(const int64_t *genes, int64_t r)
{
    int64_t left = binom(genes[r], r);
    for (int64_t j = 0; j < r; j++)
        left -= binom(genes[j], j + 1);
    return left;
}

/* Threads genes, its n_threads - 1 colex successors.  The first
 * n_stored of them are held by the store: their counts run from `hits`,
 * their least counts from `least`, their filled marks from `filled`.  A
 * mark is read with an acquire load and set with a release store after
 * its counts and least count are written, so a reader never sees a
 * half-written slice, and two calls that fill one thread write equal
 * values.  `genes` is stepped in place.
 *
 * Depths 1 .. fresh of the tumor prefix are the current thread's; a
 * step that changes genes[c] (and the indices below it) keeps depths
 * 1 .. f - 1 - c.  Every depth formed below f is a group ceiling (step
 * 0 above); the members of a skipped group share its top gene, so each
 * has `per` valid columns. */
int64_t scan_range(const uint64_t *tumor, int64_t tw,
                   const uint64_t *normal, int64_t nw,
                   const int64_t *inner, int64_t n_cols, int64_t d,
                   const uint64_t *tumor_in, const uint64_t *normal_in,
                   uint64_t *scratch, int64_t *win,
                   int64_t *genes, int64_t n_threads, int64_t f,
                   void *hits, uint8_t *filled, int32_t *least,
                   int64_t itemsize, int64_t n_stored, int64_t n_normal,
                   double alpha, double denom)
{
    struct scan s = setup(tumor, tw, normal, nw, inner, n_cols, d, tumor_in,
                          normal_in, scratch, win, f, n_normal, alpha, denom);
    int64_t pos = 0, fresh = 0, top = -1, per = 0;
    for (int64_t i = 0; i < n_threads;) {
        if (genes[f - 1] != top) {
            top = genes[f - 1];
            per = valid_cols(inner, n_cols, d, top, s.cols);
        }
        int64_t k = fresh + 1;
        for (; k < f; k++) {
            fresh = k;
            if (deepen(&s, genes, k) < s.need)
                break;
        }
        if (k < f) {
            /* No member's prefix has more tumor hits than depth k's, so
             * every member's prefix ceiling, and its least ceiling, is
             * below the lead: each would be bounded, and none moves it.
             * The walk steps on from the group's last member. */
            const int64_t left = group_left(genes, f - k);
            const int64_t skip = left < n_threads - i ? left : n_threads - i;
            for (int64_t j = 0; j < f - k; j++)
                genes[j] = genes[f - k] - (f - k) + j;
            i += skip;
            pos += skip * per;
            win[W_BOUNDED] += skip;
        } else {
            /* The rest of the depth f - 1 group: genes[0] runs up to
             * genes[1] - 1 (for f = 1, one thread).  Below `need` a
             * thread's prefix ceiling misses the lead, and its least
             * ceiling is never above that: bounded, store or not. */
            int64_t run = (f > 1 ? genes[1] : genes[0] + 1) - genes[0];
            run = run < n_threads - i ? run : n_threads - i;
            for (int64_t j = 0; j < run; j++, genes[0]++, i++, pos += per) {
                const int64_t tp_prefix = deepen(&s, genes, f);
                if (tp_prefix < s.need) {
                    win[W_BOUNDED]++;
                    continue;
                }
                const int held = i < n_stored;
                score_thread(&s, genes, tp_prefix, per,
                             held ? (char *)hits + pos * itemsize : NULL,
                             itemsize, held ? filled + i : NULL,
                             held ? least + i : NULL);
            }
            genes[0]--;
        }
        const int64_t c = next_tuple(genes, f);
        fresh = fresh < f - 1 - c ? fresh : f - 1 - c;
    }
    win[W_THREADS] = n_threads;
    return pos;
}
