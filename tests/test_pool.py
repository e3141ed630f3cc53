"""Tests for the equi-area rank-thread execution backend.

The contract under test: ``backend="pool"`` is bit-exact with
``backend="single"`` — same combinations, same F-scores, same
tie-breaks, same merged counters — for every worker count and lease
cut.  Recovery from injected rank faults is the fleet's, and is tested
on both backends at once (``tests/test_faults.py::TestPoolInjection``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bitmatrix.matrix import BitMatrix
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.pool import PoolEngine, PoolStats
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.equiarea import equiarea_range_boundaries, equiarea_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, Scheme, scheme_for
from repro.scheduling.workload import total_threads, total_work


def signature(combos):
    return [(c.genes, round(c.f, 12), c.tp, c.tn) for c in combos]


def _work_tuple(c):
    """The partition-independent part: each lease gathers the inner
    tables it builds, so ``word_reads`` depends on the cut
    (tests/test_meter_closure.py closes it against a tally of the
    gathers)."""
    return (c.combos_scored, c.word_ops)


@pytest.fixture
def instance(rng):
    t = rng.random((12, 28)) < 0.4
    n = rng.random((12, 20)) < 0.2
    return (
        BitMatrix.from_dense(t),
        BitMatrix.from_dense(n),
        FScoreParams(n_tumor=28, n_normal=20),
    )


# -- range partitioning --------------------------------------------------


class TestRangeBoundaries:
    @pytest.mark.parametrize("scheme", [Scheme(1, 1), SCHEME_2X2, SCHEME_3X1])
    @pytest.mark.parametrize("n_parts", [1, 2, 5, 13])
    def test_full_range_matches_schedule(self, scheme, n_parts):
        g = 20
        bounds = equiarea_range_boundaries(scheme, g, n_parts)
        assert bounds == equiarea_schedule(scheme, g, n_parts).boundaries

    def test_clamps_and_degenerate_ranges(self):
        scheme, g = SCHEME_3X1, 10
        total = total_threads(scheme, g)
        assert equiarea_range_boundaries(scheme, g, 2)[0] == 0
        assert equiarea_range_boundaries(scheme, g, 2)[-1] == total
        with pytest.raises(ValueError):
            equiarea_range_boundaries(scheme, g, 0)


# -- bit-exactness -------------------------------------------------------


class TestPoolBitExactness:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
    def test_engine_matches_single(self, instance, n_workers):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref_counters = KernelCounters()
        ref = SingleGpuEngine(scheme=scheme).best_combo(
            tumor, normal, params, counters=ref_counters
        )
        pool_counters = KernelCounters()
        with PoolEngine(scheme=scheme, n_workers=n_workers) as eng:
            got = eng.best_combo(tumor, normal, params, counters=pool_counters)
        assert got == ref
        assert _work_tuple(pool_counters) == _work_tuple(ref_counters)

    def test_solver_trajectory_matches_single(self, rng):
        """Winners and every iteration's scored/pruned counts equal the
        single engine's, for static and elastic leases, with ``prune``
        (read by nothing) on or off, on one to three workers: every cut
        scores the whole grid each iteration."""
        t = rng.random((11, 48)) < 0.35
        n = rng.random((11, 40)) < 0.15

        def trajectory(result):
            return signature(result.combinations), [
                (r.combos_scored, r.combos_pruned) for r in result.iterations
            ]

        ref = MultiHitSolver(hits=3).solve(t, n)
        for prune in (False, True):
            for elastic in (False, True):
                for n_workers in (1, 2, 3):
                    got = MultiHitSolver(
                        hits=3, backend="pool", n_workers=n_workers,
                        elastic=elastic, prune=prune,
                    ).solve(t, n)
                    assert trajectory(got) == trajectory(ref), (
                        prune, elastic, n_workers,
                    )

    def test_tie_straddling_worker_boundary(self):
        # All-ones tumor: every combination ties at the maximal F, so
        # each worker chunk returns its own lex-smallest candidate and
        # the cross-chunk reduction must still pick the global
        # lex-smallest — exactly the single-engine tie rule.
        t = BitMatrix.from_dense(np.ones((10, 20), dtype=bool))
        n = BitMatrix.from_dense(np.zeros((10, 20), dtype=bool))
        params = FScoreParams(n_tumor=20, n_normal=20)
        for n_workers in (2, 3, 4):
            with PoolEngine(scheme=SCHEME_3X1, n_workers=n_workers) as eng:
                got = eng.best_combo(t, n, params)
            assert got.genes == (0, 1, 2, 3)

    def test_empty_range_and_validation(self, instance):
        tumor, normal, params = instance
        with PoolEngine(scheme=scheme_for(2, 1), n_workers=2) as eng:
            bad = BitMatrix.from_dense(np.zeros((9, 4), dtype=bool))
            with pytest.raises(ValueError):
                eng.best_combo(tumor, bad, params)
        with pytest.raises(ValueError):
            PoolEngine(scheme=SCHEME_3X1, n_workers=0)


class TestSolverBackendEquivalence:
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=2, max_value=4),
    )
    def test_pool_single_sequential_agree(self, seed, hits):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(hits + 2, 12))
        t = rng.random((g, int(rng.integers(3, 25)))) < rng.uniform(0.1, 0.7)
        n = rng.random((g, int(rng.integers(1, 25)))) < rng.uniform(0.0, 0.4)
        ref = MultiHitSolver(hits=hits, backend="single").solve(t, n)
        assert signature(ref.combinations) == signature(sequential_solve(t, n, hits))
        for n_workers in (1, 2, 4):
            got = MultiHitSolver(
                hits=hits, backend="pool", n_workers=n_workers
            ).solve(t, n)
            assert signature(got.combinations) == signature(ref.combinations)
            assert got.uncovered == ref.uncovered
            # word_ops is partition-invariant; what a cut gathers is not.
            assert _work_tuple(got.counters) == _work_tuple(ref.counters)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            MultiHitSolver(backend="pool", n_workers=0)


# -- stats -----------------------------------------------------------------


class TestStatsAndSharedMemory:
    def test_chunk_records_cover_range_exactly(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        stats = PoolStats()
        with PoolEngine(scheme=scheme, n_workers=4) as eng:
            eng.best_combo(tumor, normal, params, stats=stats)
        assert stats.n_workers == 4
        assert 1 <= len(stats.chunks) <= 4
        assert stats.chunks[0].lam_start == 0
        assert stats.chunks[-1].lam_end == total_threads(scheme, tumor.n_genes)
        assert sum(c.work for c in stats.chunks) == total_work(
            scheme, tumor.n_genes
        )
        assert sum(c.combos_scored for c in stats.chunks) == total_work(
            scheme, tumor.n_genes
        )
        assert stats.n_inline_retries == 0
        # Each row's wall is its completing attempt's, timed by run_lease.
        assert all(c.wall_seconds > 0 for c in stats.chunks)
        per_worker = stats.per_worker()
        assert set(per_worker) <= set(range(4))  # keyed by rank
        assert sum(row["chunks"] for row in per_worker.values()) == len(stats.chunks)
        assert "PoolStats" in stats.describe()

    def test_elastic_chunk_records_tile_the_grid(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        stats = PoolStats()
        with PoolEngine(scheme=scheme, n_workers=3, elastic=True) as eng:
            eng.best_combo(tumor, normal, params, stats=stats)
        edges = [(c.lam_start, c.lam_end) for c in stats.chunks]
        assert edges[0][0] == 0
        assert edges[-1][1] == total_threads(scheme, tumor.n_genes)
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        assert [c.chunk for c in stats.chunks] == list(range(len(edges)))

    def test_close_is_idempotent(self, instance):
        tumor, normal, params = instance
        eng = PoolEngine(scheme=scheme_for(2, 1), n_workers=2)
        eng.best_combo(tumor, normal, params)
        eng.close()
        eng.close()
