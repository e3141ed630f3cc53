"""Microbenchmarks: the computational kernels behind every experiment.

These are the ablation-grade measurements DESIGN.md calls out: bit-matrix
AND+popcount throughput (the 32x-compression payoff), closed-form index
decoding (the per-thread cost the 128-bit workaround keeps cheap), the
O(G) scheduler, and one full greedy iteration of the vectorized engine.
"""

import math
import time

import numpy as np
import pytest

from repro.combinatorics.tetrahedral import triple_from_linear_array
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.memopt import fused_word_reads
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.schemes import SCHEME_3X1, scheme_for
from repro.scheduling.workload import total_threads


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(
        CohortConfig(n_genes=80, n_tumor=256, n_normal=256, hits=3, seed=0)
    )


def test_bitmatrix_and_popcount_throughput(benchmark, cohort):
    tumor = cohort.tumor.to_bitmatrix()
    genes = np.array([3, 17, 41])

    count = benchmark(tumor.count_samples_with_all, genes)
    dense = np.logical_and.reduce(cohort.tumor.values[genes], axis=0).sum()
    assert count == dense


def test_dense_vs_packed_counting(benchmark, cohort):
    # The dense-boolean baseline for the same AND+popcount (paper's
    # motivation for the compressed representation).
    dense = cohort.tumor.values
    genes = [3, 17, 41]

    def run():
        return int(np.logical_and.reduce(dense[genes], axis=0).sum())

    count = benchmark(run)
    assert count == cohort.tumor.to_bitmatrix().count_samples_with_all(genes)


def test_closed_form_triple_decode(benchmark):
    lam = np.arange(0, 1_000_000, dtype=np.uint64)

    i, j, k = benchmark(triple_from_linear_array, lam)
    assert int(k[-1]) == 182  # C(182,3) = 988260 <= 999999 < C(183,3)
    assert (i < j).all() and (j < k).all()


def test_equiarea_schedule_paper_scale(benchmark):
    schedule = benchmark(equiarea_schedule, SCHEME_3X1, 19411, 6000)
    assert schedule.boundaries[-1] == math.comb(19411, 3)


def test_single_engine_one_iteration(benchmark, cohort):
    tumor = cohort.tumor.to_bitmatrix()
    normal = cohort.normal.to_bitmatrix()
    params = FScoreParams(n_tumor=256, n_normal=256)
    engine = SingleGpuEngine(scheme=SCHEME_3X1)

    best = benchmark.pedantic(
        engine.best_combo, args=(tumor, normal, params), rounds=1, iterations=1
    )
    assert best is not None and best.tp > 0


def test_sparse_vs_dense_kernel_traffic(benchmark, show, bench_summary):
    """The nested scan with ``sparse`` off and on, on a planted sparse
    instance (<= 5% mutation density, realistic for cohort matrices).

    Writes ``BENCH_kernels.json`` — the kernel numbers the
    ``kernel-sparse`` CI gate compares against the committed baseline.
    The nested scan has one body, so ``sparse`` selects nothing: the
    winner and ``combos_scored`` are identical, both scans charge exactly
    the fused traffic model, and nothing is skipped.  Wall seconds of
    both scans are reported, not gated.
    """
    cohort = generate_cohort(
        CohortConfig(
            n_genes=100, n_tumor=800, n_normal=800, hits=3,
            n_driver_combos=1, background_scale=0.07,
            sporadic_fraction=0.05, seed=0,
        )
    )
    tumor = cohort.tumor.to_bitmatrix()
    normal = cohort.normal.to_bitmatrix()
    density_t = float(cohort.tumor.values.mean())
    density_n = float(cohort.normal.values.mean())
    assert density_t <= 0.05 and density_n <= 0.05  # the planted premise

    params = FScoreParams(n_tumor=800, n_normal=800)
    scheme = scheme_for(3, 2)
    g = tumor.n_genes
    end = total_threads(scheme, g)
    w = tumor.n_words + normal.n_words

    dense_c = KernelCounters()
    t0 = time.perf_counter()
    dense_best = best_in_thread_range(
        scheme, g, tumor, normal, params, 0, end, counters=dense_c
    )
    wall_dense = time.perf_counter() - t0

    sparse_c = KernelCounters()

    def run_sparse():
        return best_in_thread_range(
            scheme, g, tumor, normal, params, 0, end,
            counters=sparse_c, sparse=True,
        )

    t0 = time.perf_counter()
    sparse_best = benchmark.pedantic(run_sparse, rounds=1, iterations=1)
    wall_sparse = time.perf_counter() - t0

    # Exactness and closure: both scans charge exactly the fused model.
    fused_model = fused_word_reads(scheme, g, w, 0, end)
    assert sparse_best == dense_best
    assert sparse_c.combos_scored == dense_c.combos_scored
    assert dense_c.word_reads == sparse_c.word_reads == fused_model
    assert sparse_c.word_reads_skipped == dense_c.word_reads_skipped == 0

    bench_summary(
        "kernels",
        values={
            "density_tumor": round(density_t, 4),
            "density_normal": round(density_n, 4),
            "combos_scored": sparse_c.combos_scored,
            "word_reads_fused_model": fused_model,
            "word_reads_sparse": sparse_c.word_reads,
            "word_reads_skipped": sparse_c.word_reads_skipped,
            "wall_seconds_dense": wall_dense,
            "wall_seconds_sparse": wall_sparse,
        },
    )
    show(
        "Nested scan, sparse off / on (100 genes, 3-hit, densities "
        f"{density_t:.1%}/{density_n:.1%})\n"
        f"  word reads {sparse_c.word_reads} (the fused model), "
        f"{sparse_c.combos_scored} combinations\n"
        f"  wall {wall_dense:.4f} s / {wall_sparse:.4f} s"
    )
