"""Tests for the top-level greedy solver."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import spmd_best_combo
from repro.core.distributed import DistributedEngine, search_lease
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.memopt import MemoryConfig
from repro.core.pool import PoolEngine
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, Scheme
from repro.service.http import _ALLOWED_SOLVER_KEYS


class TestConfiguration:
    def test_default_scheme_is_hminus1_x1(self):
        s = MultiHitSolver(hits=4)
        assert s.scheme == Scheme(3, 1)
        assert MultiHitSolver(hits=2).scheme == Scheme(1, 1)

    def test_scheme_hits_must_match(self):
        with pytest.raises(ValueError):
            MultiHitSolver(hits=3, scheme=SCHEME_2X2)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            MultiHitSolver(backend="gpu")

    def test_rejects_single_hit(self):
        with pytest.raises(ValueError):
            MultiHitSolver(hits=1)

    def test_rejects_empty_fleet(self):
        for shape in ({"n_workers": 0}, {"n_nodes": 0}, {"gpus_per_node": 0}):
            with pytest.raises(ValueError):
                MultiHitSolver(**shape)


class TestOptionsLedger:
    """``MultiHitSolver``'s fields are the one declaration of the
    solve-path options; a knob that comes back has to be added here."""

    REMOVED = (
        "word_stride", "lease_blocks", "prune_blocks", "timeout", "start_method",
    )

    def test_the_fourteen_fields(self):
        assert {f.name for f in dataclasses.fields(MultiHitSolver)} == {
            "hits", "alpha", "backend", "scheme", "memory", "n_nodes",
            "gpus_per_node", "n_workers", "max_iterations", "fault_plan",
            "retry_policy", "prune", "elastic", "sparse",
        }

    def test_gateway_allow_list_is_a_subset(self):
        fields = {f.name for f in dataclasses.fields(MultiHitSolver)}
        assert set(_ALLOWED_SOLVER_KEYS) <= fields

    @pytest.mark.parametrize(
        "build",
        [
            MultiHitSolver,
            lambda **kw: SingleGpuEngine(scheme=SCHEME_3X1, **kw),
            lambda **kw: PoolEngine(scheme=SCHEME_3X1, **kw),
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2, **kw),
        ],
        ids=["MultiHitSolver", "SingleGpuEngine", "PoolEngine", "DistributedEngine"],
    )
    def test_removed_keywords_are_type_errors(self, build):
        for name in self.REMOVED:
            with pytest.raises(TypeError, match=name):
                build(**{name: 8})

    def test_fleet_entry_point_lost_its_stride(self):
        with pytest.raises(TypeError, match="word_stride"):
            spmd_best_combo(None, SCHEME_3X1, None, None, None, 1, word_stride=64)
        with pytest.raises(TypeError, match="word_stride"):
            best_in_thread_range(
                SCHEME_3X1, 8, None, None, None, 0, 1, word_stride=64
            )

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: SingleGpuEngine(scheme=SCHEME_3X1, **kw),
            lambda **kw: PoolEngine(scheme=SCHEME_3X1, **kw),
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2, **kw),
            lambda **kw: search_lease(SCHEME_3X1, None, 0, None, None, None, **kw),
            lambda **kw: spmd_best_combo(None, SCHEME_3X1, None, None, None, 1, **kw),
            lambda **kw: best_in_thread_range(
                SCHEME_3X1, 8, None, None, None, 0, 1, **kw
            ),
        ],
        ids=[
            "SingleGpuEngine", "PoolEngine", "DistributedEngine", "search_lease",
            "spmd_best_combo", "best_in_thread_range",
        ],
    )
    def test_memory_stops_at_the_solver(self, call):
        """``memory`` is a solver field only: the scan cannot express the
        prefetch flags, and ``bitsplice`` is read in ``_compact``."""
        with pytest.raises(TypeError, match="memory"):
            call(memory=MemoryConfig())


class TestGreedyLoop:
    def test_matches_sequential_reference(self, rng):
        t = rng.random((12, 35)) < 0.4
        n = rng.random((12, 30)) < 0.15
        ref = sequential_solve(t, n, 3)
        got = MultiHitSolver(hits=3).solve(t, n)
        assert [c.genes for c in got.combinations] == [c.genes for c in ref]
        assert [c.tp for c in got.combinations] == [c.tp for c in ref]

    def test_mask_and_splice_agree(self, rng):
        t = rng.random((12, 40)) < 0.35
        n = rng.random((12, 40)) < 0.1
        a = MultiHitSolver(hits=3, memory=MemoryConfig(bitsplice=True)).solve(t, n)
        b = MultiHitSolver(hits=3, memory=MemoryConfig(bitsplice=False)).solve(t, n)
        assert [c.genes for c in a.combinations] == [c.genes for c in b.combinations]
        assert a.uncovered == b.uncovered

    def test_iteration_records_consistent(self, rng):
        t = rng.random((10, 30)) < 0.4
        n = rng.random((10, 30)) < 0.1
        res = MultiHitSolver(hits=2).solve(t, n)
        total_covered = 0
        prev_remaining = 30
        for rec in res.iterations:
            assert rec.remaining_before == prev_remaining
            assert rec.newly_covered >= 1
            assert rec.remaining_after == rec.remaining_before - rec.newly_covered
            prev_remaining = rec.remaining_after
            total_covered += rec.newly_covered
        assert total_covered + res.uncovered == 30
        assert res.coverage == pytest.approx(total_covered / 30)

    def test_splice_shrinks_word_width(self, rng):
        t = rng.random((10, 200)) < 0.5
        n = rng.random((10, 200)) < 0.05
        res = MultiHitSolver(hits=2, memory=MemoryConfig(bitsplice=True)).solve(t, n)
        widths = [rec.tumor_words for rec in res.iterations]
        assert widths[-1] < widths[0] or len(widths) == 1
        assert widths == sorted(widths, reverse=True)

    def test_mask_mode_keeps_width(self, rng):
        t = rng.random((10, 200)) < 0.5
        n = rng.random((10, 200)) < 0.05
        res = MultiHitSolver(hits=2, memory=MemoryConfig(bitsplice=False)).solve(t, n)
        assert all(rec.tumor_words == 4 for rec in res.iterations)

    def test_max_iterations(self, rng):
        t = rng.random((10, 50)) < 0.4
        n = rng.random((10, 50)) < 0.1
        res = MultiHitSolver(hits=2, max_iterations=3).solve(t, n)
        assert len(res.combinations) <= 3

    def test_accepts_bitmatrix_input(self, small_bitmatrices):
        tumor, normal, _ = small_bitmatrices
        res = MultiHitSolver(hits=2).solve(tumor, normal)
        assert res.params.n_tumor == tumor.n_samples

    def test_gene_axis_mismatch(self, rng):
        with pytest.raises(ValueError):
            MultiHitSolver(hits=2).solve(
                rng.random((5, 10)) < 0.5, rng.random((6, 10)) < 0.5
            )

    def test_too_few_genes(self, rng):
        with pytest.raises(ValueError):
            MultiHitSolver(hits=4).solve(
                rng.random((3, 10)) < 0.5, rng.random((3, 10)) < 0.5
            )

    def test_zero_tumor_samples(self):
        # Regression: an empty tumor cohort raised (first ValueError in
        # FScoreParams, then ZeroDivisionError in coverage) instead of
        # solving trivially.
        t = np.zeros((8, 0), dtype=bool)
        n = np.zeros((8, 12), dtype=bool)
        res = MultiHitSolver(hits=2).solve(t, n)
        assert res.combinations == []
        assert res.uncovered == 0
        assert res.coverage == 1.0

    def test_uncoverable_samples_reported(self):
        t = np.zeros((6, 10), dtype=bool)
        t[0, :5] = t[1, :5] = True  # only 5 of 10 samples coverable
        n = np.zeros((6, 8), dtype=bool)
        res = MultiHitSolver(hits=2).solve(t, n)
        assert res.uncovered == 5
        assert res.coverage == pytest.approx(0.5)


class TestBackends:
    @pytest.mark.parametrize("backend,kw", [
        ("sequential", {}),
        ("distributed", {"n_nodes": 2, "gpus_per_node": 3}),
    ])
    def test_backends_agree_with_single(self, rng, backend, kw):
        t = rng.random((10, 25)) < 0.4
        n = rng.random((10, 25)) < 0.15
        ref = MultiHitSolver(hits=3, backend="single").solve(t, n)
        got = MultiHitSolver(hits=3, backend=backend, **kw).solve(t, n)
        assert [c.genes for c in got.combinations] == [
            c.genes for c in ref.combinations
        ]

    def test_planted_combination_found_first(self, tiny_cohort):
        res = MultiHitSolver(hits=3).solve(
            tiny_cohort.tumor.values, tiny_cohort.normal.values
        )
        assert res.combinations[0].genes in tiny_cohort.planted
