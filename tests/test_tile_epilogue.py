"""The kernel's epilogue: valid entries scored once, in combination-rank order.

The native entry point ``scan_range`` (through ``engine._scan_range``)
drops the entries of its table that belong to no thread, forms
Equation 1's numerator over the rest and divides only its maximum.
These tests hold it to a 2-D reference built from
``score_combos_reference`` over the range's valid combinations, with the
normal-hit store empty, full, partly filled or capped inside the range,
and hold every backend to the sequential oracle on a cohort whose two
best combinations tie in F but not in the numerator.  ``scan_range``
also bounds each thread before its tumor product, by its tumor-prefix
ceiling and, once stored, its normal-hit floor;
``test_bounded_scans_match_the_2d_reference`` draws the ties, all-zero
tumor bases and α values at those bounds' edges.
"""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.combinatorics.enumeration import combinations_array
from repro.core.engine import NormalHitStore, _Table, best_in_thread_range
from repro.core.fscore import FScoreParams, fscore, numerator
from repro.core.kernels import KernelCounters, best_of, score_combos_reference
from repro.core.sequential import sequential_best_combo, sequential_solve
from repro.core.solver import MultiHitSolver
from repro.scheduling.schemes import SCHEME_1X1, SCHEME_2X1, SCHEME_2X2, SCHEME_3X1
from repro.scheduling.workload import cumulative_work_before


def _tie_cohort():
    """Nt = Nn = 50, six genes.  The two best pairs tie at F = 0.034:
    (2, 3) with TP 14, TN 2 (numerator 3.4000000000000004) and (0, 1)
    with TP 4, TN 3 (numerator 3.4), which has the smaller genes and so
    wins.  Every other pair's numerator is at most 3.0."""
    tumor = np.zeros((6, 50), dtype=bool)
    tumor[[0, 1], :4] = True
    tumor[[2, 3], 10:24] = True
    normal = np.ones((6, 50), dtype=bool)
    normal[0, 0] = normal[1, [1, 2]] = False
    normal[2, 3] = normal[3, 4] = False
    return tumor, normal


class TestTieOnF:
    def test_the_cohort_ties_in_f_not_in_the_numerator(self):
        params = FScoreParams(n_tumor=50, n_normal=50)
        assert numerator(14, 2, params) != numerator(4, 3, params)
        assert fscore(14, 2, params) == fscore(4, 3, params)
        best = sequential_best_combo(*_tie_cohort(), 2, params)
        assert (best.genes, best.tp, best.tn) == ((0, 1), 4, 3)

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize(
        "knobs",
        [
            {"backend": "single"},
            {"backend": "pool", "n_workers": 2},
            {"backend": "distributed", "n_nodes": 2, "gpus_per_node": 2},
        ],
        ids=["single", "pool", "distributed"],
    )
    def test_every_backend_breaks_the_tie_by_genes(self, knobs, prune):
        tumor, normal = _tie_cohort()
        want = sequential_best_combo(
            tumor, normal, 2, FScoreParams(n_tumor=50, n_normal=50)
        )
        got = MultiHitSolver(
            hits=2, max_iterations=1, prune=prune, **knobs
        ).solve(tumor, normal).combinations[0]
        assert (got.genes, got.f, got.tp, got.tn) == (
            want.genes, want.f, want.tp, want.tn,
        )


# -- the epilogue against a 2-D reference ----------------------------------

SCHEMES = {"2x1": SCHEME_2X1, "3x1": SCHEME_3X1, "2x2": SCHEME_2X2}


def _table(scheme, g, tuples, tumor, normal):
    """The inner table of the tile's lowest level, as its scan builds."""
    return _Table(scheme, g, int(tuples[0, -1]), tumor, normal, KernelCounters())


def _reference(tuples, table, tumor, normal, params):
    """The valid combinations in combination-rank order, each entry's
    thread offset in the range, and their scores."""
    rows, cols = np.nonzero(table.inner[:, 0] > tuples[:, -1][:, None])
    combos = np.concatenate([tuples[rows], table.inner[cols]], axis=1)
    return rows, combos, *score_combos_reference(tumor, normal, combos, params)


def _scan(scheme, g, lam, hi, tumor, normal, params, store=None):
    """``[lam, hi)`` in one native scan; its winner and counters."""
    counters = KernelCounters()
    cand = engine_mod._scan_range(
        scheme, g, tumor, normal, params, lam, hi, counters, store
    )
    return cand, counters


def _check(cand, combos, f, tp, tn):
    want = best_of(combos, f, tp, tn)
    assert (cand.genes, cand.f, cand.tp, cand.tn) == (
        want.genes, want.f, want.tp, want.tn,
    )
    assert np.float64(cand.f).tobytes() == np.float64(want.f).tobytes()


def _check_store(store, scheme, g, lam, hi, rows, counts, counters):
    """The range's stored threads hold their valid entries' counts, in
    rank order; a thread the scan left unfilled was bounded by its tumor
    prefix, and the range's first thread never is."""
    held = lam + rows < store.lam_cap
    start = cumulative_work_before(scheme, g, lam)
    got = store.counts[start : start + held.sum()]
    filled = store.filled[lam + rows[held]]
    np.testing.assert_array_equal(got[filled], counts[held][filled])
    assert store.filled[lam]
    unfilled = (~store.filled[lam : min(hi, store.lam_cap)]).sum()
    assert unfilled <= counters.threads_bounded


@st.composite
def tiles(draw, scheme, shape, min_threads=1):
    """A contiguous tile ``[lam, hi)`` of at least ``min_threads`` threads
    with inner loops, inside its lowest level or crossing into higher
    ones, and a cohort."""
    f, d = scheme.flattened, scheme.inner
    g = draw(st.integers(scheme.hits + 2, 10))
    n_threads = math.comb(g - d, f)
    # Levels (top genes) with threads; a crossing tile needs a next one.
    last = g - 1 - d if shape == "inside" else g - 2 - d
    m = draw(st.integers(f - 1, last))
    lam = draw(st.integers(math.comb(m, f), math.comb(m + 1, f) - 1))
    if shape == "inside":
        end = min(math.comb(m + 1, f), n_threads)
        assume(end - lam >= min_threads)
        hi = draw(st.integers(lam + min_threads, end))
    else:
        hi = draw(st.integers(math.comb(m + 1, f) + 1, n_threads))
    n_tumor = draw(st.integers(1, 140))
    n_normal = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    p_tumor = draw(st.sampled_from([0.3, 0.7]))
    p_normal = draw(st.sampled_from([0.2, 0.8]))
    rng = np.random.default_rng(seed)
    tumor = BitMatrix.from_dense(rng.random((g, n_tumor)) < p_tumor)
    normal = BitMatrix.from_dense(rng.random((g, n_normal)) < p_normal)
    params = FScoreParams(n_tumor=n_tumor, n_normal=n_normal)
    return g, lam, hi, tumor, normal, params


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("store", ["none", "miss", "hit", "straddle"])
@pytest.mark.parametrize("shape", ["inside", "cross"])
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_score_tile_matches_the_2d_reference(scheme_id, shape, store, data):
    """The threads ``[lam, hi)`` as one scan with the store off, empty
    (a fill), already filled by that scan (a hit), or capped inside the
    range."""
    scheme = SCHEMES[scheme_id]
    # A straddled cap lies strictly inside the range: two threads at least.
    g, lam, hi, tumor, normal, params = data.draw(
        tiles(scheme, shape, 2 if store == "straddle" else 1)
    )
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    rows, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    hits = None
    if store != "none":
        itemsize = np.min_scalar_type(normal.n_samples).itemsize
        budget = engine_mod.NORMAL_HIT_BUDGET
        if store == "straddle":  # counts and a 4-byte least per thread
            budget = itemsize * cumulative_work_before(scheme, g, lam + 1)
            budget += 4 * (lam + 1)
        with patch.object(engine_mod, "NORMAL_HIT_BUDGET", budget):
            hits = NormalHitStore(scheme, g, normal)
        if store == "straddle":
            assert lam < hits.lam_cap < hi
        if store == "hit":
            _scan(scheme, g, lam, hi, tumor, normal, params, hits)
    cand, counters = _scan(scheme, g, lam, hi, tumor, normal, params, hits)
    _check(cand, combos, f, tp, tn)
    assert counters.combos_scored == len(combos)
    assert counters.threads_bounded < hi - lam
    if store == "hit":
        # The tumor side alone: the range's table and base rows, and the
        # normal table only when the fill left a thread to its prefix
        # ceiling, which bounds it again (the lead moves as before).
        missed = not hits.filled[lam:hi].all()
        assert counters.word_reads == tumor.n_words * (
            table.inner.size + tuples.size
        ) + missed * normal.n_words * table.inner.size
    if hits is not None:
        _check_store(
            hits, scheme, g, lam, hi, rows, params.n_normal - tn, counters
        )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_pruned_batches_match_the_2d_reference(scheme_id, data):
    """What the pruned batches did — score a λ-sorted subset of threads
    and leave the rest to their bounds — the one scan now does against
    a partly filled store: a subset of the threads filled beforehand,
    each alone (a scan never bounds its first thread), as an earlier
    iteration leaves the threads that got past their prefix ceilings;
    the rest bounded by that ceiling or filled by this scan."""
    scheme = SCHEMES[scheme_id]
    g, lam, hi, tumor, normal, params = data.draw(tiles(scheme, "cross"))
    picked = sorted(data.draw(
        st.sets(st.integers(lam + 1, hi - 1), max_size=hi - lam - 1)
    ))
    store = NormalHitStore(scheme, g, normal)
    for p in picked:
        _scan(scheme, g, p, p + 1, tumor, normal, params, store)
    assert store.filled[picked].all()
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    rows, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    cand, counters = _scan(scheme, g, lam, hi, tumor, normal, params, store)
    _check(cand, combos, f, tp, tn)
    assert counters.combos_scored == len(combos)
    _check_store(store, scheme, g, lam, hi, rows, params.n_normal - tn, counters)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    alpha=st.sampled_from([0.3, 0.7, 1.0, 2.5, 1e-7]),
    shape=st.sampled_from(["inside", "cross"]),
)
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_score_tile_at_a_non_default_alpha(scheme_id, alpha, shape, data):
    """The winner's F is ``fscore``'s, bit for bit, at any α, with the
    store off and while it fills."""
    scheme = SCHEMES[scheme_id]
    g, lam, hi, tumor, normal, params = data.draw(tiles(scheme, shape))
    params = FScoreParams(params.n_tumor, params.n_normal, alpha)
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    _, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    for store in (None, NormalHitStore(scheme, g, normal)):
        cand, _ = _scan(scheme, g, lam, hi, tumor, normal, params, store)
        _check(cand, combos, f, tp, tn)


# -- the native tile's rounding and edges ------------------------------------


class TestNativeRounding:
    """The tile's F is ``fscore``'s bit for bit: the numerator rounds
    twice, as numpy's does, never once as a fused multiply-add would."""

    def test_the_numerator_rounds_twice(self):
        params = FScoreParams(n_tumor=40, n_normal=10)
        assert numerator(37, 7, params) == 10.7
        # One rounding of the exact alpha * TP + TN is the next double up.
        assert float(Fraction(37) * Fraction(0.1) + 7) == 10.700000000000001
        assert 10.7 / params.denominator != 10.700000000000001 / params.denominator

    def test_tp_37_tn_7_at_alpha_0_1(self):
        tumor = np.zeros((3, 40), dtype=bool)
        tumor[[0, 1], :37] = True
        normal = np.zeros((3, 10), dtype=bool)
        normal[[0, 1], :3] = True
        t, n = BitMatrix.from_dense(tumor), BitMatrix.from_dense(normal)
        params = FScoreParams(n_tumor=40, n_normal=10, alpha=0.1)
        scanned = best_in_thread_range(SCHEME_1X1, 3, t, n, params, 0, 2)
        assert (scanned.genes, scanned.tp, scanned.tn) == ((0, 1), 37, 7)
        assert np.float64(scanned.f).tobytes() == np.float64(
            fscore(37, 7, params)
        ).tobytes()


class TestNativeEdges:
    """Whole solves against ``sequential_solve`` where the native tile has
    edges: base rows past 64 words, 1- and 4-byte normal-hit stores (read
    from the second iteration on) and the 2x2 scheme's valid columns that
    are not a suffix.  ``prune`` is read by nothing: its cells pin that
    it changes nothing."""

    #: case -> (hits, scheme or None, Nt, Nn, genes)
    CASES = {
        "wide-rows": (3, None, 4200, 4150, 8),
        "uint8-store": (3, None, 90, 200, 9),
        "uint32-store": (3, None, 90, 65600, 7),
        "2x2": (4, SCHEME_2X2, 120, 110, 9),
    }

    @pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
    @pytest.mark.parametrize("case", CASES)
    def test_solve_matches_the_oracle(self, case, prune):
        hits, scheme, n_tumor, n_normal, g = self.CASES[case]
        rng = np.random.default_rng(n_tumor + n_normal)
        t = rng.random((g, n_tumor)) < 0.6
        n = rng.random((g, n_normal)) < 0.2
        if n_normal > 65535:  # counts past two bytes: rows all but 3g ones
            n[:] = True
            for gene in range(g):
                n[gene, rng.choice(n_normal, 3 * g, replace=False)] = False
        knobs = {} if scheme is None else {"scheme": scheme}
        got = MultiHitSolver(
            hits=hits, max_iterations=3, prune=prune, **knobs
        ).solve(t, n)
        want = sequential_solve(t, n, hits, max_iterations=3)
        assert len(got.combinations) == 3  # two iterations read the store
        assert [(c.genes, c.f, c.tp, c.tn) for c in got.combinations] == [
            (c.genes, c.f, c.tp, c.tn) for c in want
        ]

    def test_the_cases_reach_their_edges(self):
        assert BitMatrix.from_dense(np.zeros((1, 4200), bool)).n_words > 64
        assert np.min_scalar_type(200) == np.uint8
        assert np.min_scalar_type(65600) == np.uint32


# -- the bound before the tumor product ---------------------------------------


@st.composite
def edged_tiles(draw, scheme):
    """:func:`tiles`' tile with the bound's edges drawn in: a duplicated
    gene (equal rows on both sides, so F ties across threads), a gene no
    tumor carries (every thread holding it has an all-zero tumor base)
    and an α that makes TP count for little or as much as TN."""
    shape = draw(st.sampled_from(["inside", "cross"]))
    g, lam, hi, tumor, normal, params = draw(tiles(scheme, shape))
    t, n = tumor.to_dense(), normal.to_dense()
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, g - 1), min_size=2, max_size=2, unique=True))
        t[b], n[b] = t[a], n[a]
    if draw(st.booleans()):
        t[draw(st.integers(0, g - 1))] = False
    alpha = draw(st.sampled_from([0.1, 1.0, 1e-7]))
    params = FScoreParams(params.n_tumor, params.n_normal, alpha)
    return g, lam, hi, BitMatrix.from_dense(t), BitMatrix.from_dense(n), params


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_bounded_scans_match_the_2d_reference(scheme_id, data):
    """A range scanned through one store twice — filling it, then
    reading it — and without a store wins what the 2-D reference wins,
    tie rule included, and scores every valid entry.  A fill bounds the
    threads a hit bounds: a stored thread's floor ceiling is never above
    its prefix ceiling, and each scan starts from no lead, so the lead
    moves alike.  Without a store only the prefix ceiling bounds, so
    it bounds no more; the range's first thread is never bounded."""
    scheme = SCHEMES[scheme_id]
    g, lam, hi, tumor, normal, params = data.draw(edged_tiles(scheme))
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    _, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    store = NormalHitStore(scheme, g, normal)
    bounded = []
    for hits in (store, store, None):
        cand, counters = _scan(scheme, g, lam, hi, tumor, normal, params, hits)
        _check(cand, combos, f, tp, tn)
        assert counters.combos_scored == len(combos)
        bounded.append(counters.threads_bounded)
    fill, hit, plain = bounded
    assert plain <= fill == hit < hi - lam


def _dense_cohort():
    rng = np.random.default_rng(7)
    return rng.random((24, 300)) < 0.3, rng.random((24, 280)) < 0.15


class TestBoundBeforeTheProduct:
    """Whole scans and solves: the bounds engage on a dense cohort and
    ``prune`` moves nothing; threads past the store's cap are bounded by
    their tumor prefix; a thread its prefix left unfilled is filled by a
    later iteration that gets past it, and read after that."""

    def test_dense_solves_bound_threads_with_or_without_prune(self):
        t, n = _dense_cohort()
        full = MultiHitSolver(hits=3, max_iterations=3).solve(t, n)
        pruned = MultiHitSolver(hits=3, max_iterations=3, prune=True).solve(t, n)
        assert [c.genes for c in full.combinations] == [
            c.genes for c in pruned.combinations
        ]
        assert full.counters.combos_scored == 3 * math.comb(24, 3)
        assert full.counters.threads_bounded > 0
        assert pruned.counters == full.counters

    def test_threads_past_the_cap_are_bounded(self):
        t, n = _dense_cohort()
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=300, n_normal=280)
        g = 24
        # The store holds thread 0 alone: counts and one 4-byte least.
        budget = np.min_scalar_type(280).itemsize * cumulative_work_before(
            SCHEME_2X1, g, 1
        ) + 4
        with patch.object(engine_mod, "NORMAL_HIT_BUDGET", budget):
            store = NormalHitStore(SCHEME_2X1, g, normal)
        assert store.lam_cap == 1
        counters = KernelCounters()
        got = best_in_thread_range(
            SCHEME_2X1, g, tumor, normal, params, 0, math.comb(g, 2),
            counters, normal_hits=store,
        )
        want = sequential_best_combo(t, n, 3, params)
        assert (got.genes, got.f, got.tp, got.tn) == (
            want.genes, want.f, want.tp, want.tn,
        )
        assert counters.combos_scored == math.comb(g, 3)
        # Thread 0 is scanned first, from no lead, so it is never
        # bounded: every bounded thread lies past the cap.
        assert counters.threads_bounded > 0

    def test_a_thread_left_unfilled_is_filled_later(self, monkeypatch):
        t, n = _dense_cohort()
        stores, filled = [], []
        reuse = NormalHitStore.reuse.__func__

        def spy(cls, *args):
            stores.append(reuse(cls, *args))
            return stores[-1]

        monkeypatch.setattr(NormalHitStore, "reuse", classmethod(spy))
        result = MultiHitSolver(hits=3).solve(
            t, n, on_iteration=lambda _: filled.append(stores[-1].filled.copy())
        )
        assert [(c.genes, c.f, c.tp, c.tn) for c in result.combinations] == [
            (c.genes, c.f, c.tp, c.tn) for c in sequential_solve(t, n, 3)
        ]
        (store,) = set(stores)
        # Threads first filled by iteration k, 2 <= k < the last one, so
        # iteration k + 1 read them.
        late = np.flatnonzero(filled[-2] & ~filled[0])
        assert late.size
        normal = BitMatrix.from_dense(n)
        tumor = BitMatrix.from_dense(t)
        params = FScoreParams(n_tumor=300, n_normal=280)
        tuples = combinations_array(2, 0, math.comb(24 - 1, 2))
        table = _table(SCHEME_2X1, 24, tuples, tumor, normal)
        rows, _, _, _, tn = _reference(tuples, table, tumor, normal, params)
        for lam in late:  # the late fills hold the thread's counts
            at = cumulative_work_before(SCHEME_2X1, 24, lam)
            want = 280 - tn[rows == lam]
            np.testing.assert_array_equal(
                store.counts[at : at + len(want)], want
            )


# -- one Equation 1 ----------------------------------------------------------

_PARAMS = st.builds(
    FScoreParams,
    n_tumor=st.integers(0, 5000),
    n_normal=st.integers(1, 5000),
    alpha=st.sampled_from([0.1, 0.0, 1.0, 0.3, 1e-7]),
)


class TestOneEquation:
    @settings(max_examples=200, deadline=None)
    @given(
        params=_PARAMS,
        pairs=st.lists(
            st.tuples(st.integers(0, 5000), st.integers(0, 5000)), min_size=1,
            max_size=30,
        ),
        dtype=st.sampled_from([np.int32, np.int64, np.uint16]),
    )
    def test_fscore_is_the_numerator_over_the_denominator_on_arrays(
        self, params, pairs, dtype
    ):
        tp = np.array([p[0] for p in pairs], dtype=dtype)
        tn = np.array([p[1] for p in pairs], dtype=dtype)
        num = (
            params.alpha * np.asarray(tp, dtype=np.float64)
            + np.asarray(tn, dtype=np.float64)
        )
        assert numerator(tp, tn, params).tobytes() == num.tobytes()
        got = fscore(tp, tn, params)
        assert got.dtype == np.float64
        assert got.tobytes() == (num / params.denominator).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(params=_PARAMS, tp=st.integers(0, 5000), tn=st.integers(0, 5000))
    def test_fscore_is_the_numerator_over_the_denominator_on_scalars(
        self, params, tp, tn
    ):
        want = (
            params.alpha * np.asarray(tp, dtype=np.float64)
            + np.asarray(tn, dtype=np.float64)
        ) / params.denominator
        assert np.float64(fscore(tp, tn, params)).tobytes() == want.tobytes()
