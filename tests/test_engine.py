"""Tests for the vectorized single-GPU engine."""

import itertools
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.combinatorics.decode as decode
import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.splicing import splice_columns
from repro.combinatorics.decode import combos_from_linear, top_index
from repro.core.bounds import BoundTable
from repro.core.combination import better
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import (
    KernelCounters,
    score_combos_reference,
    tp_zero_ceiling,
)
from repro.core.sequential import sequential_best_combo
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import (
    SCHEME_2X2,
    SCHEME_3X1,
    SCHEME_4X1,
    Scheme,
    scheme_for,
)
from repro.scheduling.workload import level_range, level_work, total_threads
from tests.test_meter_closure import tally_gathers


@pytest.fixture
def instance(rng):
    t = rng.random((14, 45)) < 0.35
    n = rng.random((14, 38)) < 0.15
    return (
        t,
        n,
        BitMatrix.from_dense(t),
        BitMatrix.from_dense(n),
        FScoreParams(n_tumor=45, n_normal=38),
    )


def fused_word_reads(scheme, g, words, lam_start, lam_end):
    """The fused scan's traffic model over a thread range: every thread's
    ``f`` fixed rows once, and each workload level's inner AND-table
    (``C(g-1-m, d)`` combinations of ``d`` rows) once — the flat scheme
    (``d == 0``) reads a thread's ``f`` rows once and nothing else.
    Exact for the flat scan and for a nested scan of one thread per
    tile; an upper bound for a nested tile that scores a run of levels
    against its lowest level's table."""
    if lam_end <= lam_start:
        return 0
    f, d = scheme.flattened, scheme.inner
    total = 0
    for m in range(top_index(lam_start, f), top_index(lam_end - 1, f) + 1):
        a, b = level_range(scheme, m)
        n_threads = min(b, lam_end) - max(a, lam_start)
        if n_threads <= 0:
            continue
        if d == 0:
            total += n_threads * f
        elif level_work(scheme, g, m):
            total += n_threads * f + level_work(scheme, g, m) * d
    return total * words


ALL_SCHEMES = [Scheme(1, 1), Scheme(2, 1), Scheme(1, 2), SCHEME_2X2, SCHEME_3X1, SCHEME_4X1, Scheme(2, 0), Scheme(3, 0)]


class TestFullRangeEquivalence:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_matches_sequential_oracle(self, instance, scheme):
        t, n, tumor, normal, params = instance
        got = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
        ref = sequential_best_combo(t, n, scheme.hits, params)
        assert got.genes == ref.genes
        assert got.f == pytest.approx(ref.f, abs=1e-15)
        assert (got.tp, got.tn) == (ref.tp, ref.tn)

    def test_all_4hit_schemes_agree(self, instance):
        _, _, tumor, normal, params = instance
        winners = [
            SingleGpuEngine(scheme=s).best_combo(tumor, normal, params)
            for s in (SCHEME_2X2, SCHEME_3X1, SCHEME_4X1, Scheme(1, 3))
        ]
        assert len({(w.genes, round(w.f, 14)) for w in winners}) == 1


class TestPartialRanges:
    def test_partition_and_reduce_equals_full(self, instance):
        _, _, tumor, normal, params = instance
        scheme = SCHEME_3X1
        g = tumor.n_genes
        total = total_threads(scheme, g)
        cuts = [0, total // 5, total // 2, 2 * total // 3, total]
        from repro.core.combination import better

        best = None
        for lo, hi in zip(cuts, cuts[1:]):
            best = better(
                best,
                best_in_thread_range(scheme, g, tumor, normal, params, lo, hi),
            )
        full = best_in_thread_range(scheme, g, tumor, normal, params, 0, total)
        assert best.genes == full.genes and best.f == full.f

    def test_empty_range(self, instance):
        _, _, tumor, normal, params = instance
        assert (
            best_in_thread_range(SCHEME_3X1, 14, tumor, normal, params, 10, 10) is None
        )

    def test_range_clamped_to_grid(self, instance):
        _, _, tumor, normal, params = instance
        total = total_threads(SCHEME_3X1, 14)
        got = best_in_thread_range(
            SCHEME_3X1, 14, tumor, normal, params, 0, total + 10_000
        )
        assert got is not None

    def test_gene_count_mismatch(self, instance):
        _, _, tumor, normal, params = instance
        with pytest.raises(ValueError):
            best_in_thread_range(SCHEME_3X1, 15, tumor, normal, params, 0, 10)


class TestCounters:
    def test_combos_scored_counts_range(self, instance):
        _, _, tumor, normal, params = instance
        counters = KernelCounters()
        best_in_thread_range(
            SCHEME_3X1,
            14,
            tumor,
            normal,
            params,
            0,
            total_threads(SCHEME_3X1, 14),
            counters=counters,
        )
        assert counters.combos_scored == math.comb(14, 4)
        assert counters.word_reads > 0

    @pytest.mark.parametrize(
        "scheme", [Scheme(4, 0), SCHEME_3X1, SCHEME_2X2, Scheme(1, 3)]
    )
    def test_traffic_metered_exactly_once(self, instance, scheme):
        # The scan is the meter on the flat (d == 0) and nested paths
        # alike: word_ops = combos * (h-1) * w for every scheme covering
        # the same combinations, and word_reads is what the scan
        # gathers.  With one thread per tile no tile crosses a level, so
        # every level builds its tables once and word_reads is the fused
        # model exactly.
        _, _, tumor, normal, params = instance
        w = tumor.n_words + normal.n_words
        combos = math.comb(14, 4)
        model = fused_word_reads(scheme, 14, w, 0, total_threads(scheme, 14))
        counters = KernelCounters()
        with patch.object(engine_mod, "_TILE_ELEMENTS", 1):
            best_in_thread_range(
                scheme, 14, tumor, normal, params,
                0, total_threads(scheme, 14), counters=counters,
            )
        assert counters.combos_scored == combos
        assert counters.word_reads == model
        assert counters.word_ops == combos * 3 * w

    @pytest.mark.parametrize(
        "scheme", [Scheme(4, 0), SCHEME_3X1, SCHEME_2X2, Scheme(1, 3)]
    )
    def test_traffic_metered_as_gathered(self, instance, scheme, monkeypatch):
        # At the default tile size a tile scores a run of levels against
        # its lowest level's table, so it builds fewer tables than the
        # model counts: word_reads is the gather tally, bounded by it.
        _, _, tumor, normal, params = instance
        tally = tally_gathers(monkeypatch)
        counters = KernelCounters()
        best_in_thread_range(
            scheme, 14, tumor, normal, params,
            0, total_threads(scheme, 14), counters=counters,
        )
        w = tumor.n_words + normal.n_words
        model = fused_word_reads(scheme, 14, w, 0, total_threads(scheme, 14))
        if scheme.inner:
            assert counters.word_reads == tally.value
            assert 0 < counters.word_reads <= model
        else:
            assert counters.word_reads == model

    def test_work_parity_between_paths(self, instance):
        # The d == 0 and d > 0 code paths do the same work on an
        # equivalent grid; they gather differently (a flat thread reads
        # all h rows per combination, a nested one its f fixed rows once
        # against a shared inner table), so the nested scan reads less.
        _, _, tumor, normal, params = instance
        flat, nested = KernelCounters(), KernelCounters()
        for scheme, counters in ((Scheme(4, 0), flat), (SCHEME_3X1, nested)):
            best_in_thread_range(
                scheme, 14, tumor, normal, params,
                0, total_threads(scheme, 14), counters=counters,
            )
        assert flat.word_ops == nested.word_ops
        assert flat.combos_scored == nested.combos_scored
        assert nested.word_reads < flat.word_reads


class TestEnumeratedStrides:
    @pytest.mark.parametrize("hits", [3, 4])
    def test_inversions_scale_with_scans_not_strides(self, hits, monkeypatch):
        # A scan inverts λ at its two ends, with the scalar top_index, and
        # enumerates every tile in between — each tile's lowest level is
        # read off the previous tile's last row — so the engine's
        # inversions run twice per scan whatever G, while the tile count
        # grows (tiles shrunk so that it must).  The array decoders are
        # never on the scan's path.
        calls = [0]
        scalar = engine_mod.top_index

        def counting(lam, order):
            assert isinstance(lam, int)
            calls[0] += 1
            return scalar(lam, order)

        def forbidden(*args):
            raise AssertionError("the scan called an array decoder")

        monkeypatch.setattr(engine_mod, "top_index", counting)
        for name in ("combos_from_linear", "top_index_array"):
            monkeypatch.setattr(decode, name, forbidden)
            monkeypatch.setattr(engine_mod, name, forbidden)
        monkeypatch.setattr(engine_mod, "_TILE_ELEMENTS", 64)
        per_g = {}
        for g in (24, 40):
            rng = np.random.default_rng(g)
            tumor = rng.random((g, 120)) < 0.2
            normal = rng.random((g, 100)) < 0.1
            calls[0] = 0
            result = MultiHitSolver(hits=hits, max_iterations=3).solve(tumor, normal)
            scans = len(result.iterations)  # single backend, unpruned
            assert scans == 3
            assert calls[0] == 2 * scans
            per_g[g] = result.counters.decode_strides
        # Same inversion count at both sizes; only the tile count followed G.
        assert per_g[40] > per_g[24] > 2 * 3

    def test_flat_scheme_stride_follows_row_width(self, rng):
        # 13-word rows: a flat stride is sized by its gathered words like
        # a nested one, so C(70, 3) combinations take several strides.
        t = rng.random((70, 800)) < 0.1
        n = rng.random((70, 800)) < 0.05
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        assert tumor.n_words == normal.n_words == 13
        params = FScoreParams(n_tumor=800, n_normal=800)
        flat, nested = KernelCounters(), KernelCounters()
        winners = [
            best_in_thread_range(
                scheme, 70, tumor, normal, params,
                0, total_threads(scheme, 70), counters=counters,
            )
            for scheme, counters in ((Scheme(3, 0), flat), (Scheme(2, 1), nested))
        ]
        assert winners[0] == winners[1]
        assert flat.combos_scored == nested.combos_scored == math.comb(70, 3)
        assert flat.decode_strides > 1


class TestTieDeterminism:
    def test_constant_matrix_gives_lex_smallest(self):
        t = BitMatrix.from_dense(np.ones((10, 20), dtype=bool))
        n = BitMatrix.from_dense(np.zeros((10, 20), dtype=bool))
        params = FScoreParams(n_tumor=20, n_normal=20)
        for scheme in (SCHEME_3X1, SCHEME_2X2):
            got = SingleGpuEngine(scheme=scheme).best_combo(t, n, params)
            assert got.genes == (0, 1, 2, 3)


class TestTiledScan:
    """The nested scan scores tiles that cross workload levels against
    the inner table of their lowest level; nothing about that may show
    in a winner, a tie, a count or a bound."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([(2, 1), (3, 2), (4, 3), (4, 2), (5, 3)]),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([1, 63, 70, 130, 64 * 65 + 7]),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([1, 7, 64, 1 << 16]),
    )
    def test_split_scan_matches_sequential(
        self, seed, shape, density, n_samples, cut_at, tile
    ):
        hits, flattened = shape
        scheme = scheme_for(hits, flattened)
        rng = np.random.default_rng(seed)
        g = int(rng.integers(hits, hits + 5))
        t = rng.random((g, n_samples)) < density
        n = rng.random((g, n_samples)) < density * rng.random()
        t[rng.random(g) < 0.25] = False  # all-zero genes
        params = FScoreParams(n_tumor=n_samples, n_normal=n_samples)
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        total = total_threads(scheme, g)
        cut = int(cut_at * total)
        counters = KernelCounters()
        with patch.object(engine_mod, "_TILE_ELEMENTS", tile):
            halves = [
                best_in_thread_range(
                    scheme, g, tumor, normal, params, lo, hi, counters=counters
                )
                for lo, hi in ((0, cut), (cut, total))
            ]
        got = better(*halves)
        ref = sequential_best_combo(t, n, hits, params)
        assert (got.genes, got.f, got.tp, got.tn) == (
            ref.genes, ref.f, ref.tp, ref.tn
        )
        assert counters.combos_scored == math.comb(g, hits)

    def test_refreshed_bounds_are_exact_block_maxima(self):
        # Threads through an all-zero tumor gene have TP = 0 everywhere,
        # and with a dense normal matrix their best F sits below the
        # TP = 0 ceiling fscore(0, Nn).  Every refreshed bound is the
        # thread's exact maximum, recounted by the reference scorer, and
        # every stored bound still bounds its thread after the splice.
        rng = np.random.default_rng(4)
        g, nt, nn = 16, 600, 40
        t = rng.random((g, nt)) < 0.7
        t[[5, 8, 11]] = False
        n = rng.random((g, nn)) < 0.6
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=nt, n_normal=nn)
        ceiling = tp_zero_ceiling(params)
        for scheme in (scheme_for(3, 2), scheme_for(4, 3), scheme_for(4, 2)):
            table = BoundTable.build(scheme, g)
            keep = np.ones(nt, dtype=bool)
            for _ in range(3):
                t_now = splice_columns(tumor, keep)
                before = table.values.copy()
                best = best_in_thread_range(
                    scheme, g, t_now, normal, params,
                    0, total_threads(scheme, g), bounds=table, sparse=True,
                )
                assert best.f > ceiling
                refreshed = np.flatnonzero(table.values != before)
                assert refreshed.size
                for lam in refreshed:
                    exact = _thread_max(scheme, g, t_now, normal, params, lam)
                    assert table.values[lam] == exact
                for lam in np.flatnonzero(np.isfinite(table.values)):
                    exact = _thread_max(scheme, g, t_now, normal, params, lam)
                    assert table.values[lam] >= exact
                keep[rng.random(nt) < 0.3] = False

    def test_full_grid_takes_few_tiles(self):
        # G = 200, 3 hits, 13-word rows: one tile per level was 198
        # strides; a tile spans as many levels as fit its budget.
        rng = np.random.default_rng(0)
        g, ns = 200, 800
        t = rng.random((g, ns)) < 0.03
        n = rng.random((g, ns)) < 0.03
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        assert tumor.n_words == normal.n_words == 13
        scheme = scheme_for(3, 2)
        counters = KernelCounters()
        best_in_thread_range(
            scheme, g, tumor, normal, FScoreParams(n_tumor=ns, n_normal=ns),
            0, total_threads(scheme, g), counters=counters,
        )
        assert counters.combos_scored == math.comb(g, 3)
        levels = g - scheme.flattened  # levels whose threads have inner loops
        assert counters.decode_strides < levels
        assert counters.decode_strides <= 40


def _thread_max(scheme, g, tumor, normal, params, lam) -> float:
    """Exact best F over thread ``lam``'s combinations, by the reference
    scorer (``-inf`` when it owns none)."""
    (tup,) = combos_from_linear(np.array([lam]), scheme.flattened).tolist()
    combos = [
        (*tup, *rest)
        for rest in itertools.combinations(range(tup[-1] + 1, g), scheme.inner)
    ]
    if not combos:
        return float("-inf")
    f, _, _ = score_combos_reference(tumor, normal, np.asarray(combos), params)
    return float(f.max())
