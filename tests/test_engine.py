"""Tests for the vectorized single-GPU engine."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.combinatorics.decode as decode
import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.splicing import splice_columns
from repro.combinatorics.decode import combos_from_linear, top_index
from repro.core.combination import better
from repro.core.engine import NormalHitStore, SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams, fscore
from repro.core.kernels import KernelCounters, score_combos_reference
from repro.core.sequential import sequential_best_combo
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, Scheme, scheme_for
from repro.scheduling.workload import level_range, level_work, total_threads
from tests.scan_cuts import cuts
from tests.test_meter_closure import tally_gathers, wrap_kernel


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
    (``C(g-1-m, d)`` combinations of ``d`` rows) once.  Exact for a scan
    split into one call per level; an upper bound for a scan that scores
    a run of levels against its first level's table."""
    if lam_end <= lam_start:
        return 0
    f, d = scheme.flattened, scheme.inner
    total = 0
    for m in range(top_index(lam_start, f), top_index(lam_end - 1, f) + 1):
        a, b = level_range(scheme, m)
        n_threads = min(b, lam_end) - max(a, lam_start)
        if n_threads <= 0:
            continue
        if level_work(scheme, g, m):
            total += n_threads * f + level_work(scheme, g, m) * d
    return total * words


ALL_SCHEMES = [Scheme(1, 1), Scheme(2, 1), Scheme(1, 2), SCHEME_2X2, SCHEME_3X1, Scheme(1, 3), Scheme(2, 3), Scheme(4, 1)]


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
            for s in (SCHEME_2X2, SCHEME_3X1, Scheme(1, 3))
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
        "scheme", [Scheme(2, 1), SCHEME_3X1, SCHEME_2X2, Scheme(1, 3)]
    )
    def test_traffic_metered_exactly_once(self, instance, scheme):
        # The scan is the meter: word_ops = combos * (h-1) * w for every
        # scheme covering the same combinations, and word_reads is what
        # the scan gathers.  Split into one call per level, no call
        # crosses a level, so every level builds its tables once and
        # word_reads is the fused model less the normal fixed rows of
        # the threads their tumor prefix bounded (with no store, every
        # bound is the prefix's).
        _, _, tumor, normal, params = instance
        w = tumor.n_words + normal.n_words
        combos = math.comb(14, scheme.hits)
        model = fused_word_reads(scheme, 14, w, 0, total_threads(scheme, 14))
        counters = KernelCounters()
        for m in range(14):
            best_in_thread_range(
                scheme, 14, tumor, normal, params, *level_range(scheme, m),
                counters=counters,
            )
        assert counters.combos_scored == combos
        assert counters.word_reads == model - (
            scheme.flattened * normal.n_words * counters.threads_bounded
        )
        assert counters.word_ops == combos * (scheme.hits - 1) * w

    @pytest.mark.parametrize(
        "scheme", [Scheme(2, 1), SCHEME_3X1, SCHEME_2X2, Scheme(1, 3)]
    )
    def test_traffic_metered_as_gathered(self, instance, scheme, monkeypatch):
        # One call scores every level against its first level's table,
        # so it builds fewer tables than the model counts: word_reads is
        # the gather tally, bounded by it.
        _, _, tumor, normal, params = instance
        tally = tally_gathers(monkeypatch)
        counters = KernelCounters()
        best_in_thread_range(
            scheme, 14, tumor, normal, params,
            0, total_threads(scheme, 14), counters=counters,
        )
        w = tumor.n_words + normal.n_words
        model = fused_word_reads(scheme, 14, w, 0, total_threads(scheme, 14))
        assert counters.word_reads == tally.value
        assert 0 < counters.word_reads <= model

    def test_work_parity_between_paths(self, instance):
        # The 3x1 and 2x2 decompositions do the same work on the 4-hit
        # grid; they gather differently (3 fixed rows per thread of
        # C(14, 3) against an 11-column table, or 2 per thread of
        # C(14, 2) against a 66-column one), so the 2x2 scan reads less.
        _, _, tumor, normal, params = instance
        deep, wide = KernelCounters(), KernelCounters()
        for scheme, counters in ((SCHEME_3X1, deep), (SCHEME_2X2, wide)):
            best_in_thread_range(
                scheme, 14, tumor, normal, params,
                0, total_threads(scheme, 14), counters=counters,
            )
        assert deep.word_ops == wide.word_ops
        assert deep.combos_scored == wide.combos_scored
        assert wide.word_reads < deep.word_reads


class TestEnumeratedStrides:
    @pytest.mark.parametrize("hits", [3, 4])
    def test_inversions_scale_with_scans_not_strides(self, hits, monkeypatch):
        # A scan inverts λ once — its first thread, a one-row
        # combinations_array — and makes one native call, which steps
        # every later thread itself: whatever G, the engine inverts and
        # calls the kernel once per scan, and counts one stride.  The
        # array decoders are never on the scan's path.
        inversions, calls = [], []
        enumerate_ = engine_mod.combinations_array

        def counting(order, lo, hi):
            if order == hits - 1:  # the thread tuples, not the inner table
                inversions.append(hi - lo)
            return enumerate_(order, lo, hi)

        def forbidden(*args):
            raise AssertionError("the scan called an array decoder")

        monkeypatch.setattr(engine_mod, "combinations_array", counting)
        for name in ("combos_from_linear", "top_index_array"):
            monkeypatch.setattr(decode, name, forbidden)
            monkeypatch.setattr(engine_mod, name, forbidden)
        wrap_kernel(monkeypatch, lambda name, args: calls.append(name))
        for g in (24, 40):
            rng = np.random.default_rng(g)
            tumor = rng.random((g, 120)) < 0.2
            normal = rng.random((g, 100)) < 0.1
            inversions.clear()
            calls.clear()
            result = MultiHitSolver(hits=hits, max_iterations=3).solve(tumor, normal)
            scans = len(result.iterations)  # single backend, unpruned
            assert scans == 3
            assert inversions == [1] * scans
            assert calls == ["scan_range"] * scans
            assert result.counters.decode_strides == scans


class TestTieDeterminism:
    def test_constant_matrix_gives_lex_smallest(self):
        t = BitMatrix.from_dense(np.ones((10, 20), dtype=bool))
        n = BitMatrix.from_dense(np.zeros((10, 20), dtype=bool))
        params = FScoreParams(n_tumor=20, n_normal=20)
        for scheme in (SCHEME_3X1, SCHEME_2X2):
            got = SingleGpuEngine(scheme=scheme).best_combo(t, n, params)
            assert got.genes == (0, 1, 2, 3)


class TestTiledScan:
    """The nested scan scores every level of its range against the inner
    table of its first level, in one native call; nothing about that, or
    about where a range is split, may show in a winner, a tie, a count
    or a bound."""

    @pytest.mark.parametrize(
        "scheme", [SCHEME_3X1, SCHEME_2X2, Scheme(1, 3), scheme_for(3, 2)]
    )
    @pytest.mark.parametrize("stored", [False, True], ids=["plain", "store"])
    def test_one_native_call_per_unpruned_call(
        self, instance, scheme, stored, monkeypatch
    ):
        _, _, tumor, normal, params = instance
        calls = []
        wrap_kernel(monkeypatch, lambda name, args: calls.append(name))
        total = total_threads(scheme, 14)
        ends = math.comb(14 - scheme.inner, scheme.flattened)  # inner loops end
        store = NormalHitStore(scheme, 14, normal) if stored else None
        # Whole, one thread, mid-level to mid-level, and past the last
        # thread with an inner loop.
        for lo, hi in ((0, total), (0, 1), (ends // 3, 2 * ends // 3), (ends // 2, total)):
            calls.clear()
            best_in_thread_range(
                scheme, 14, tumor, normal, params, lo, hi, normal_hits=store
            )
            assert calls == ["scan_range"]

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
        # Each half split further into scans of ``tile`` entries.
        got = None
        for a, b in ((0, cut), (cut, total)):
            for lo, hi in cuts(scheme, g, tumor, normal, a, b, tile):
                got = better(got, best_in_thread_range(
                    scheme, g, tumor, normal, params, lo, hi, counters=counters
                ))
        ref = sequential_best_combo(t, n, hits, params)
        assert (got.genes, got.f, got.tp, got.tn) == (
            ref.genes, ref.f, ref.tp, ref.tn
        )
        assert counters.combos_scored == math.comb(g, hits)

    def test_prefix_ceilings_bound_every_thread(self):
        # Threads through an all-zero tumor gene have TP = 0 everywhere,
        # and with a dense normal matrix their best F sits below the
        # TP = 0 ceiling fscore(0, Nn).  Every thread's prefix ceiling
        # fscore(TP_prefix, Nn), which the kernel bounds it by, is at
        # least its exact maximum, recounted by the reference scorer,
        # after every splice; and the scan that bounds threads by it
        # still wins the reference's winner.
        rng = np.random.default_rng(4)
        g, nt, nn = 16, 600, 40
        t = rng.random((g, nt)) < 0.7
        t[[5, 8, 11]] = False
        n = rng.random((g, nn)) < 0.6
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=nt, n_normal=nn)
        for scheme in (scheme_for(3, 2), scheme_for(4, 3), scheme_for(4, 2)):
            keep = np.ones(nt, dtype=bool)
            for _ in range(3):
                t_now = splice_columns(tumor, keep)
                counters = KernelCounters()
                best = best_in_thread_range(
                    scheme, g, t_now, normal, params,
                    0, total_threads(scheme, g), counters=counters,
                )
                ref = sequential_best_combo(
                    t_now.to_dense(), n, scheme.hits, params
                )
                assert best == ref
                assert best.f > fscore(0, nn, params)
                assert counters.threads_bounded > 0
                n_threads = math.comb(g - scheme.inner, scheme.flattened)
                tuples = combos_from_linear(np.arange(n_threads), scheme.flattened)
                prefix = t_now.words[tuples[:, 0]]
                for c in range(1, scheme.flattened):
                    prefix = prefix & t_now.words[tuples[:, c]]
                tp_prefix = np.bitwise_count(prefix).sum(axis=1)
                for lam in range(n_threads):
                    exact = _thread_max(scheme, g, t_now, normal, params, lam)
                    assert fscore(int(tp_prefix[lam]), nn, params) >= exact
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
