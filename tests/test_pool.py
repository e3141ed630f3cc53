"""Tests for the multiprocess equi-area execution backend.

The contract under test: ``backend="pool"`` is bit-exact with
``backend="single"`` — same combinations, same F-scores, same
tie-breaks, same merged counters — for every worker count and lease
cut, and a worker process that dies or times out is a lost attempt on
its rank's lease: survivors or the driver's inline drain search the
range without changing any of that, with one warning per engine.
"""

import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.pool as pool_module
from repro.bitmatrix.matrix import BitMatrix
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.pool import PoolDegradedWarning, PoolEngine, PoolStats
from repro.faults.policy import RetryPolicy
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.equiarea import equiarea_range_boundaries, equiarea_schedule
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, Scheme, scheme_for
from repro.scheduling.workload import (
    cumulative_work_before,
    total_threads,
    total_work,
)


def signature(combos):
    return [(c.genes, round(c.f, 12), c.tp, c.tn) for c in combos]


def _work_tuple(c):
    """The partition-independent part: each chunk gathers the inner
    tables it builds, and reads normal hits from its worker's store only
    where that worker scanned the range before, so ``word_reads``
    depends on the cut and on scheduling (tests/test_meter_closure.py
    closes it against a tally of the gathers)."""
    return (c.combos_scored, c.word_ops)


# Module-level so fork workers can unpickle them by reference.
def _crash_chunk(task):
    os._exit(1)


def _slow_chunk(task):
    time.sleep(5)


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
        total = total_threads(scheme, g)
        bounds = equiarea_range_boundaries(scheme, g, 0, total, n_parts)
        assert bounds == equiarea_schedule(scheme, g, n_parts).boundaries

    def test_subrange_cuts_balance_work(self):
        scheme, g = SCHEME_3X1, 30
        lo, hi = 100, 3500
        bounds = equiarea_range_boundaries(scheme, g, lo, hi, 6)
        assert bounds[0] == lo and bounds[-1] == hi
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        works = [
            cumulative_work_before(scheme, g, b)
            - cumulative_work_before(scheme, g, a)
            for a, b in zip(bounds, bounds[1:])
        ]
        assert sum(works) == cumulative_work_before(
            scheme, g, hi
        ) - cumulative_work_before(scheme, g, lo)
        mean = sum(works) / len(works)
        assert max(works) <= mean + (g - scheme.flattened)  # one thread's work

    def test_clamps_and_degenerate_ranges(self):
        scheme, g = SCHEME_3X1, 10
        total = total_threads(scheme, g)
        assert equiarea_range_boundaries(scheme, g, -5, total + 99, 2)[0] == 0
        assert equiarea_range_boundaries(scheme, g, -5, total + 99, 2)[-1] == total
        assert equiarea_range_boundaries(scheme, g, 7, 7, 3) == (7, 7, 7, 7)
        with pytest.raises(ValueError):
            equiarea_range_boundaries(scheme, g, 0, total, 0)


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

    def test_subrange_matches_engine(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        total = total_threads(scheme, tumor.n_genes)
        lo, hi = total // 7, 5 * total // 6
        from repro.core.engine import best_in_thread_range

        ref = best_in_thread_range(
            scheme, tumor.n_genes, tumor, normal, params, lo, hi
        )
        with PoolEngine(scheme=scheme, n_workers=3) as eng:
            got = eng.best_combo(tumor, normal, params, lam_start=lo, lam_end=hi)
        assert got == ref

    def test_solver_trajectory_matches_single(self, rng):
        """Winners and every iteration's scored/pruned counts equal the
        single engine's, for static and elastic leases, pruned or not,
        on one to three workers.  Pruned, each lease keeps its own
        incumbent, so only a one-lease cut scores what single scores;
        every cut still examines the whole grid each iteration."""
        t = rng.random((11, 48)) < 0.35
        n = rng.random((11, 40)) < 0.15

        def trajectory(result, exact):
            return signature(result.combinations), [
                (r.combos_scored, r.combos_pruned) if exact
                else r.combos_scored + r.combos_pruned
                for r in result.iterations
            ]

        for prune in (False, True):
            ref = MultiHitSolver(hits=3, prune=prune).solve(t, n)
            for elastic in (False, True):
                for n_workers in (1, 2, 3):
                    got = MultiHitSolver(
                        hits=3, backend="pool", n_workers=n_workers,
                        elastic=elastic, prune=prune,
                    ).solve(t, n)
                    exact = not prune or (n_workers == 1 and not elastic)
                    assert trajectory(got, exact) == trajectory(ref, exact), (
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
            assert eng.best_combo(tumor, normal, params, 5, 5) is None
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
        # Dense reference: its word_ops are partition-invariant, unlike
        # the sparse default's (prefix runs split at chunk boundaries).
        dense_ref = MultiHitSolver(
            hits=hits, backend="single", sparse=False
        ).solve(t, n)
        seq = signature(sequential_solve(t, n, hits))
        assert signature(ref.combinations) == seq
        assert signature(dense_ref.combinations) == seq
        for n_workers in (1, 2, 4):
            got = MultiHitSolver(
                hits=hits, backend="pool", n_workers=n_workers
            ).solve(t, n)
            assert signature(got.combinations) == signature(ref.combinations)
            assert got.uncovered == ref.uncovered
            assert got.counters.combos_scored == ref.counters.combos_scored
            dense = MultiHitSolver(
                hits=hits, backend="pool", n_workers=n_workers, sparse=False
            ).solve(t, n)
            assert signature(dense.combinations) == signature(ref.combinations)
            assert _work_tuple(dense.counters) == _work_tuple(dense_ref.counters)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            MultiHitSolver(backend="pool", n_workers=0)


# -- shared-memory lifecycle and stats -----------------------------------


class TestStatsAndSharedMemory:
    def test_matrices_shipped_once_while_unchanged(self, instance):
        tumor, normal, params = instance
        stats = PoolStats()
        with PoolEngine(scheme=scheme_for(3, 2), n_workers=4) as eng:
            first = eng.best_combo(tumor, normal, params, stats=stats)
            second = eng.best_combo(tumor, normal, params, stats=stats)
            assert first == second
            assert stats.n_publishes == 2  # tumor + normal, once each
            assert stats.shipped_bytes == tumor.words.nbytes + normal.words.nbytes
            # A new tumor matrix (a greedy splice) re-ships tumor only.
            spliced = BitMatrix(tumor.words.copy(), tumor.n_samples)
            eng.best_combo(spliced, normal, params, stats=stats)
            assert stats.n_publishes == 3

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
        per_worker = stats.per_worker()
        assert sum(row["chunks"] for row in per_worker.values()) == len(stats.chunks)
        assert "PoolStats" in stats.describe()

    def test_chunk_records_tile_a_subrange(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        lo, hi = 3, total_threads(scheme, tumor.n_genes) - 2
        stats = PoolStats()
        with PoolEngine(scheme=scheme, n_workers=3, elastic=True) as eng:
            eng.best_combo(tumor, normal, params, lo, hi, stats=stats)
        edges = [(c.lam_start, c.lam_end) for c in stats.chunks]
        assert edges[0][0] == lo and edges[-1][1] == hi
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        assert [c.chunk for c in stats.chunks] == list(range(len(edges)))

    def test_close_is_idempotent(self, instance):
        tumor, normal, params = instance
        eng = PoolEngine(scheme=scheme_for(2, 1), n_workers=2)
        eng.best_combo(tumor, normal, params)
        eng.close()
        eng.close()

    def test_worker_forked_while_tracker_lock_held_still_attaches(
        self, instance
    ):
        """Another thread (another gateway job) inside the resource
        tracker when the pool forks must not hang the worker's attach."""
        from multiprocessing import resource_tracker

        tumor, _, _ = instance
        eng = PoolEngine(scheme=scheme_for(2, 1), n_workers=1)
        name = eng._publish("tumor", tumor, None)
        holding, release = threading.Event(), threading.Event()

        def hold_tracker_lock():
            with resource_tracker._resource_tracker._lock:
                holding.set()
                release.wait(30)

        holder = threading.Thread(target=hold_tracker_lock)
        holder.start()
        try:
            assert holding.wait(10)
            # The pool forks its worker here, inside submit().
            future = eng._ensure_pool().submit(
                pool_module._attach, name, tumor.words.shape)
            try:
                attached = future.result(timeout=10)
            except TimeoutError:
                pool_module._terminate(eng._pool)  # kill the hung worker
                raise
            np.testing.assert_array_equal(attached, tumor.words)
        finally:
            release.set()
            holder.join(10)
            eng.close()


# -- graceful degradation ------------------------------------------------


class TestGracefulDegradation:
    def test_worker_crash_recovers_inline_with_one_warning(
        self, instance, monkeypatch
    ):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        # Fork workers inherit the patched module, so every chunk dies.
        monkeypatch.setattr(pool_module, "_search_chunk", _crash_chunk)
        with PoolEngine(scheme=scheme, n_workers=2) as eng:
            stats = PoolStats()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = eng.best_combo(tumor, normal, params, stats=stats)
            degraded = [
                w for w in caught if issubclass(w.category, PoolDegradedWarning)
            ]
            assert got == ref
            assert len(degraded) == 1  # warn once, not per chunk
            assert stats.n_inline_retries == len(stats.chunks)
            # The pool is rebuilt: with the real worker restored the next
            # call runs on fresh processes with no further warnings.
            monkeypatch.undo()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                again = eng.best_combo(tumor, normal, params)
            assert again == ref
            assert not [
                w for w in caught if issubclass(w.category, PoolDegradedWarning)
            ]

    def test_worker_timeout_recovers_inline(self, instance, monkeypatch):
        tumor, normal, params = instance
        scheme = scheme_for(2, 1)
        ref = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        monkeypatch.setattr(pool_module, "_search_chunk", _slow_chunk)
        with PoolEngine(
            scheme=scheme, n_workers=2, retry_policy=RetryPolicy(deadline_s=0.2)
        ) as eng:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = eng.best_combo(tumor, normal, params)
        assert got == ref
        assert [w for w in caught if issubclass(w.category, PoolDegradedWarning)]

    def test_warn_once_survives_pool_rebuild(self, instance, monkeypatch):
        """A second degraded call after the rebuild must not warn again."""
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        monkeypatch.setattr(pool_module, "_search_chunk", _crash_chunk)
        with PoolEngine(scheme=scheme, n_workers=2) as eng:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = eng.best_combo(tumor, normal, params)
                second = eng.best_combo(tumor, normal, params)
            assert first == ref and second == ref
            degraded = [
                w for w in caught if issubclass(w.category, PoolDegradedWarning)
            ]
            assert len(degraded) == 1

    def test_inline_retry_stats_survive_pool_rebuild(self, instance, monkeypatch):
        """Chunk records from a degraded call stay intact after the rebuilt
        pool serves a later, healthy call into the same PoolStats."""
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        monkeypatch.setattr(pool_module, "_search_chunk", _crash_chunk)
        stats = PoolStats()
        with PoolEngine(scheme=scheme, n_workers=2) as eng:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolDegradedWarning)
                eng.best_combo(tumor, normal, params, stats=stats)
            degraded_chunks = len(stats.chunks)
            assert stats.n_inline_retries == degraded_chunks > 0
            monkeypatch.undo()
            eng.best_combo(tumor, normal, params, stats=stats)
        assert len(stats.chunks) == 2 * degraded_chunks
        # The degraded call's records are untouched; the healthy call's
        # chunks went to real workers.
        assert stats.n_inline_retries == degraded_chunks
        healthy = stats.chunks[degraded_chunks:]
        assert all(not c.inline_retry for c in healthy)
        assert all(c.worker_pid != os.getpid() for c in healthy)

    def test_timed_out_chunk_range_is_bit_exact(self, instance, monkeypatch):
        """The driver's drain of a timed-out lease searches exactly the lease's
        [lam_start, lam_end) range — merged result identical to single-GPU."""
        tumor, normal, params = instance
        scheme = scheme_for(2, 1)
        ref_counters = KernelCounters()
        ref = SingleGpuEngine(scheme=scheme).best_combo(
            tumor, normal, params, counters=ref_counters
        )
        monkeypatch.setattr(pool_module, "_search_chunk", _slow_chunk)
        stats = PoolStats()
        counters = KernelCounters()
        with PoolEngine(
            scheme=scheme, n_workers=2, retry_policy=RetryPolicy(deadline_s=0.2)
        ) as eng:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolDegradedWarning)
                got = eng.best_combo(
                    tumor, normal, params, counters=counters, stats=stats
                )
        assert got == ref
        assert _work_tuple(counters) == _work_tuple(ref_counters)
        retried = [c for c in stats.chunks if c.inline_retry]
        assert retried
        for c in retried:
            assert c.lam_start < c.lam_end
            assert c.worker_pid == os.getpid()
