"""Tests for the top-level greedy solver."""

import dataclasses
import math

import numpy as np
import pytest

import repro.core.engine as engine_mod
import repro.core.reduction as reduction
import repro.service.runner as runner
import repro.telemetry.flight as flight
import repro.telemetry.progress as progress
from repro.cluster import ElasticSPMDRunner, spmd_best_combo
from repro.cluster.leases import LeaseLedger
from repro.core.distributed import DistributedEngine, search_lease
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.memopt import MemoryConfig
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, Scheme
from repro.service.http import _ALLOWED_SOLVER_KEYS
from repro.telemetry.session import thread_telemetry_session


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
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2, **kw),
        ],
        ids=["MultiHitSolver", "SingleGpuEngine", "DistributedEngine"],
    )
    def test_removed_keywords_are_type_errors(self, build):
        for name in self.REMOVED:
            with pytest.raises(TypeError, match=name):
                build(**{name: 8})

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: SingleGpuEngine(scheme=SCHEME_3X1, **kw),
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2, **kw),
            lambda **kw: search_lease(SCHEME_3X1, None, 0, None, None, None, **kw),
            lambda **kw: spmd_best_combo(None, SCHEME_3X1, None, None, None, 1, **kw),
            lambda **kw: best_in_thread_range(
                SCHEME_3X1, 8, None, None, None, 0, 1, **kw
            ),
            lambda **kw: engine_mod._scan_range(
                SCHEME_3X1, 8, None, None, None, 0, 1, None, **kw
            ),
        ],
        ids=[
            "SingleGpuEngine", "DistributedEngine", "search_lease",
            "spmd_best_combo", "best_in_thread_range", "_scan_range",
        ],
    )
    def test_sparse_stops_at_the_solver(self, call):
        """Every scan runs the one native body: ``sparse`` is a solver
        field only, read by nothing below it."""
        with pytest.raises(TypeError, match="sparse"):
            call(sparse=True)

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: SingleGpuEngine(scheme=SCHEME_3X1).best_combo(
                None, None, None, **kw
            ),
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2).best_combo(
                None, None, None, **kw
            ),
            lambda **kw: search_lease(SCHEME_3X1, None, 0, None, None, None, **kw),
            lambda **kw: spmd_best_combo(None, SCHEME_3X1, None, None, None, 1, **kw),
            lambda **kw: best_in_thread_range(
                SCHEME_3X1, 8, None, None, None, 0, 1, **kw
            ),
        ],
        ids=[
            "SingleGpuEngine", "DistributedEngine", "search_lease",
            "spmd_best_combo", "best_in_thread_range",
        ],
    )
    def test_prune_stops_at_the_solver(self, call):
        """There is one scan, which bounds threads itself: ``prune`` is a
        solver field only, and no bound table travels below it."""
        with pytest.raises(TypeError, match="bounds"):
            call(bounds=object())

    @pytest.mark.parametrize(
        "call",
        [
            lambda scheme: MultiHitSolver(hits=scheme.hits, scheme=scheme),
            lambda scheme: best_in_thread_range(
                scheme, 8, None, None, None, 0, 1
            ),
        ],
        ids=["MultiHitSolver", "best_in_thread_range"],
    )
    @pytest.mark.parametrize("hits", [2, 3, 4])
    def test_flat_scheme_is_refused(self, call, hits):
        """A flat scheme has no inner loop for the kernel to scan, so
        ``Scheme`` refuses to build one and no entry point ever sees it;
        the error names the schemes that are accepted."""
        with pytest.raises(ValueError, match="flat scheme.*2x2 and 3x1"):
            call(Scheme(hits, 0))

    #: Signature -> (a call that binds its arguments, the parameters it
    #: lost because only tests ever set them).
    SEAMS = {
        "multi_stage_reduce": (
            lambda **kw: reduction.multi_stage_reduce([], **kw), ["stats"]
        ),
        "LeaseLedger.merge": (
            lambda **kw: LeaseLedger.merge(None, **kw), ["stats"]
        ),
        "spmd_best_combo": (
            lambda **kw: spmd_best_combo(None, SCHEME_3X1, None, None, None, 1, **kw),
            ["reduction_stats"],
        ),
        "DistributedEngine.best_combo": (
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2).best_combo(
                None, None, None, **kw
            ),
            ["reduction_stats"],
        ),
        "SingleGpuEngine.best_combo": (
            lambda **kw: SingleGpuEngine(scheme=SCHEME_3X1).best_combo(
                None, None, None, **kw
            ),
            ["lam_start", "lam_end"],
        ),
        "LeaseLedger.build": (
            lambda **kw: LeaseLedger.build(SCHEME_3X1, 8, 2, **kw),
            ["lam_start", "lam_end"],
        ),
        "ElasticSPMDRunner": (
            lambda **kw: ElasticSPMDRunner(n_ranks=1, **kw), ["max_ranks"]
        ),
        "FlightRecorder": (
            lambda **kw: flight.FlightRecorder(**kw), ["capacity", "max_dumps"]
        ),
        "ProgressMonitor": (
            lambda **kw: progress.ProgressMonitor(**kw), ["interval_s"]
        ),
        "JobRunner": (
            lambda **kw: runner.JobRunner(None, None, None, **kw),
            ["claim_timeout_s"],
        ),
        "thread_telemetry_session": (
            lambda **kw: thread_telemetry_session(None, **kw), ["enabled"]
        ),
    }

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(call, name, id=f"{owner}.{name}")
            for owner, (call, names) in SEAMS.items()
            for name in names
        ],
    )
    def test_seams_only_tests_set_are_gone(self, call, name):
        """Fourteen parameters that only tests ever set: each is a
        ``TypeError`` now (a constant, or the whole grid, took its place)."""
        with pytest.raises(TypeError, match=name):
            call(**{name: 1})

    def test_knob_constants_keep_their_defaults(self):
        assert (flight.CAPACITY, flight.MAX_DUMPS) == (512, 16)
        assert progress.INTERVAL_S == 0.5
        assert runner.CLAIM_TIMEOUT_S == 0.2
        assert ElasticSPMDRunner(n_ranks=3).max_ranks == 8
        assert not hasattr(reduction, "ReductionStats")

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
            lambda **kw: DistributedEngine(scheme=SCHEME_3X1, n_nodes=2, **kw),
            lambda **kw: search_lease(SCHEME_3X1, None, 0, None, None, None, **kw),
            lambda **kw: spmd_best_combo(None, SCHEME_3X1, None, None, None, 1, **kw),
            lambda **kw: best_in_thread_range(
                SCHEME_3X1, 8, None, None, None, 0, 1, **kw
            ),
        ],
        ids=[
            "SingleGpuEngine", "DistributedEngine", "search_lease",
            "spmd_best_combo", "best_in_thread_range",
        ],
    )
    def test_memory_stops_at_the_solver(self, call):
        """``memory`` is a solver field only: the scan cannot express the
        prefetch flags, and ``bitsplice`` is read in ``_compact``."""
        with pytest.raises(TypeError, match="memory"):
            call(memory=MemoryConfig())


class TestClosingArgMax:
    """The run counters meter every arg-max; the iteration records only
    those that picked a combination.  A run ended by exhaustion made one
    more full scan than it recorded; one ended by ``max_iterations`` or
    by full cover made none."""

    G, HITS = 9, 3

    def _unrecorded(self, result):
        counters = result.counters
        recorded = sum(r.combos_scored for r in result.iterations)
        return counters.combos_scored - recorded

    def _solve(self, t, n, backend, prune, **kw):
        fleet = {"n_nodes": 2} if backend == "distributed" else {}
        return MultiHitSolver(
            hits=self.HITS, backend=backend, prune=prune, **fleet, **kw
        ).solve(t, n)

    @pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
    @pytest.mark.parametrize("backend", ["single", "distributed"])
    def test_unrecorded_work_is_the_closing_scan(self, rng, backend, prune):
        # No normal mutations: every combination's TN is the same, so any
        # combination that covers a sample outscores one that covers none.
        n = np.zeros((self.G, 20), dtype=bool)
        t = rng.random((self.G, 30)) < 0.3
        for s in range(30):  # every sample carries at least HITS genes ...
            t[[(s + k) % self.G for k in range(self.HITS)], s] = True
        t[:, 0] = False  # ... but this one carries none: never covered
        exhausted = self._solve(t, n, backend, prune)
        assert exhausted.uncovered == 1
        assert self._unrecorded(exhausted) == math.comb(self.G, self.HITS)

        capped = self._solve(t, n, backend, prune, max_iterations=1)
        assert capped.uncovered > 1 and len(capped.iterations) == 1
        assert self._unrecorded(capped) == 0

        t[: self.HITS, 0] = True
        covered = self._solve(t, n, backend, prune)
        assert covered.uncovered == 0
        assert self._unrecorded(covered) == 0


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

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_iterations_below_one_refused(self, cap):
        """A cap that would stop before the first arg-max is refused at
        construction, so the gateway answers 400 instead of storing it."""
        with pytest.raises(ValueError, match="max_iterations"):
            MultiHitSolver(hits=2, max_iterations=cap)

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
