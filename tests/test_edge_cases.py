"""Edge cases and failure injection across module boundaries."""

import numpy as np
import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.sequential import sequential_best_combo
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import SCHEME_3X1, Scheme
from tests.scan_cuts import scans_cut


class TestEngineChunking:
    def test_tiny_chunks_do_not_change_results(self, rng):
        """Force several scans within every level."""
        t = rng.random((13, 40)) < 0.35
        n = rng.random((13, 30)) < 0.15
        params = FScoreParams(n_tumor=40, n_normal=30)
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        ref = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(tumor, normal, params)
        with scans_cut(7):
            got = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(tumor, normal, params)
        assert got.genes == ref.genes and got.f == ref.f

    def test_tiny_chunks_d0_scheme(self, rng):
        """The 3-hit grid the flat 3x0 scheme strided is scanned by its
        nested twin, cut into tiny scans; the flat scheme cannot be built."""
        t = rng.random((10, 30)) < 0.4
        n = rng.random((10, 30)) < 0.1
        params = FScoreParams(n_tumor=30, n_normal=30)
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        with pytest.raises(ValueError, match="flat scheme"):
            Scheme(3, 0)
        ref = sequential_best_combo(t, n, 3, params)
        with scans_cut(7):
            got = SingleGpuEngine(scheme=Scheme(2, 1)).best_combo(
                tumor, normal, params
            )
        assert (got.genes, got.f, got.tp, got.tn) == (
            ref.genes, ref.f, ref.tp, ref.tn
        )


class TestDegenerateInputs:
    def test_no_normal_samples(self):
        # F reduces to alpha*TP/Nt; solver must still run.
        rng = np.random.default_rng(3)
        t = rng.random((8, 20)) < 0.5
        n = np.zeros((8, 0), dtype=bool)
        res = MultiHitSolver(hits=2).solve(t, n)
        assert res.params.n_normal == 0
        assert all(c.tn == 0 for c in res.combinations)
        assert res.coverage > 0

    def test_single_tumor_sample(self):
        t = np.ones((5, 1), dtype=bool)
        n = np.zeros((5, 3), dtype=bool)
        res = MultiHitSolver(hits=2).solve(t, n)
        assert len(res.combinations) == 1
        assert res.uncovered == 0

    def test_all_zero_tumor(self):
        t = np.zeros((6, 10), dtype=bool)
        n = np.zeros((6, 10), dtype=bool)
        res = MultiHitSolver(hits=3).solve(t, n)
        assert res.combinations == []
        assert res.uncovered == 10

    def test_all_ones_everything(self):
        t = np.ones((6, 10), dtype=bool)
        n = np.ones((6, 10), dtype=bool)
        res = MultiHitSolver(hits=2).solve(t, n)
        # One combination (lex-smallest) covers everything; TN = 0.
        assert len(res.combinations) == 1
        assert res.combinations[0].genes == (0, 1)
        assert res.combinations[0].tn == 0

    def test_genes_exactly_hits(self):
        rng = np.random.default_rng(1)
        t = rng.random((4, 15)) < 0.6
        n = rng.random((4, 15)) < 0.1
        res = MultiHitSolver(hits=4).solve(t, n)
        assert all(c.genes == (0, 1, 2, 3) for c in res.combinations)

    def test_width_64_boundary(self):
        # Exactly one packed word, then exactly two.
        for s in (63, 64, 65, 128):
            rng = np.random.default_rng(s)
            t = rng.random((6, s)) < 0.5
            n = rng.random((6, s)) < 0.1
            ref = sequential_best_combo(t, n, 2, FScoreParams(n_tumor=s, n_normal=s))
            got = SingleGpuEngine(scheme=Scheme(1, 1)).best_combo(
                BitMatrix.from_dense(t),
                BitMatrix.from_dense(n),
                FScoreParams(n_tumor=s, n_normal=s),
            )
            assert got.genes == ref.genes


class TestRangeEdges:
    def test_single_thread_range(self, rng):
        t = rng.random((12, 30)) < 0.4
        n = rng.random((12, 30)) < 0.1
        params = FScoreParams(n_tumor=30, n_normal=30)
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        # Thread 0 of 3x1 owns combos (0,1,2,l); compare to brute force.
        got = best_in_thread_range(SCHEME_3X1, 12, tumor, normal, params, 0, 1)

        best = None
        for l in range(3, 12):
            combo = (0, 1, 2, l)
            tp = int(np.logical_and.reduce(t[list(combo)], axis=0).sum())
            tn = 30 - int(np.logical_and.reduce(n[list(combo)], axis=0).sum())
            f = (0.1 * tp + tn) / 60
            if best is None or f > best[0] or (f == best[0] and combo < best[1]):
                best = (f, combo)
        assert got.genes == best[1]
        assert got.f == pytest.approx(best[0])

    def test_last_thread_range(self, rng):
        t = rng.random((12, 30)) < 0.4
        n = rng.random((12, 30)) < 0.1
        params = FScoreParams(n_tumor=30, n_normal=30)
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        from repro.scheduling.workload import total_threads

        total = total_threads(SCHEME_3X1, 12)
        # The very last threads have empty inner loops (top index 11).
        got = best_in_thread_range(
            SCHEME_3X1, 12, tumor, normal, params, total - 1, total
        )
        assert got is None  # thread (9,10,11) has no l > 11
