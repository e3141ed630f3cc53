"""Microbenchmarks: the computational kernels behind every experiment.

These are the ablation-grade measurements DESIGN.md calls out: bit-matrix
AND+popcount throughput (the 32x-compression payoff), closed-form index
decoding (the per-thread cost the 128-bit workaround keeps cheap), the
O(G) scheduler, and one full greedy iteration of the vectorized engine.
"""

import math

import numpy as np
import pytest

from repro.combinatorics.tetrahedral import triple_from_linear_array
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.schemes import SCHEME_3X1


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
