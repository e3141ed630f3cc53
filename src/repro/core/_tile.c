/* The nested scan's tile product (repro.core.kernels.fused_pair_popcount).
 *
 *   out[b, l] = sum_k popcount(base[b, k] & inner_w[k, l])
 *
 * base is (B, W), inner_w (W, L) word-major, out (B, L) int32, all
 * C-contiguous.  A thread's base word stays in a register across the
 * inner loop over l (the paper's MemOpt1/2), and a zero base word is
 * skipped: it adds 0 to every count.  Built by repro.core.tile with
 * -O3 -march=native, so the inner loop vectorizes to the host's widest
 * popcount (AVX-512 vpopcntq where present).
 */
#include <stdint.h>
#include <string.h>

void tile_popcount(const uint64_t *base, const uint64_t *inner_w, int32_t *out,
                   int64_t n_rows, int64_t n_words, int64_t n_cols)
{
    for (int64_t b = 0; b < n_rows; b++) {
        int32_t *restrict row = out + b * n_cols;
        memset(row, 0, (size_t)n_cols * sizeof *row);
        for (int64_t k = 0; k < n_words; k++) {
            const uint64_t x = base[b * n_words + k];
            if (x == 0)
                continue;
            const uint64_t *restrict inner = inner_w + k * n_cols;
            for (int64_t l = 0; l < n_cols; l++)
                row[l] += (int32_t)__builtin_popcountll(x & inner[l]);
        }
    }
}
