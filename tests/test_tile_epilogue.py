"""The kernel's epilogue: valid entries scored once, in combination-rank order.

Both native entry points — ``scan_range`` (an unpruned range, through
``engine.best_in_thread_range``) and ``tile_score`` (a pruned batch,
through ``engine._score_tile``) — drop the entries of their table that
belong to no thread, form Equation 1's numerator over the rest and
divide only its maximum.  These tests hold both to a 2-D reference
built from ``score_combos_reference`` over the range's valid
combinations, and hold every backend to the sequential oracle on a
cohort whose two best combinations tie in F but not in the numerator.
``scan_range`` also bounds each stored thread by its normal-hit floor
before the tumor product; ``test_bounded_scans_match_the_2d_reference``
draws the ties, all-zero tumor bases and α values at that bound's edges.
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
from repro.combinatorics.decode import combos_from_linear
from repro.combinatorics.enumeration import combinations_array
from repro.core.combination import MultiHitCombination
from repro.core.engine import NormalHitStore, _score_tile, _Table, best_in_thread_range
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
    """``(B, L)`` F with ``-inf`` off the valid entries, and the valid
    combinations with their scores in row-major order."""
    rows, cols = np.nonzero(table.inner[:, 0] > tuples[:, -1][:, None])
    combos = np.concatenate([tuples[rows], table.inner[cols]], axis=1)
    f, tp, tn = score_combos_reference(tumor, normal, combos, params)
    grid = np.full((len(tuples), len(table.inner)), -np.inf)
    grid[rows, cols] = f
    return grid, combos, f, tp, tn


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


def _incumbent(draw, grid, tp, params):
    """``None``, or an incumbent just below, at or just above the tile's
    maximum F, at its best TP's ``TN = Nn`` ceiling, or far from it."""
    fmax = grid.max()
    f = draw(st.sampled_from([
        None, fmax, np.nextafter(fmax, -np.inf), np.nextafter(fmax, np.inf),
        fscore(tp.max(), params.n_normal, params), -1.0, 2.0,
    ]))
    return None if f is None else MultiHitCombination(genes=(0, 1), f=float(f))


def _check(got, grid, combos, f, tp, tn, best):
    lam_max, cand = got
    if lam_max is not None:  # a scan reports no per-thread maxima
        np.testing.assert_array_equal(lam_max, grid.max(axis=1))
    if best is not None and grid.max() < best.f:
        assert cand is None
    else:
        want = best_of(combos, f, tp, tn)
        assert (cand.genes, cand.f, cand.tp, cand.tn) == (
            want.genes, want.f, want.tp, want.tn,
        )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("store", ["none", "miss", "hit", "straddle"])
@pytest.mark.parametrize("shape", ["inside", "cross"])
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_score_tile_matches_the_2d_reference(scheme_id, shape, store, data):
    """The threads ``[lam, hi)`` as a pruned batch against an incumbent,
    and as an unpruned scan with the store empty, full, or capped inside
    the range."""
    scheme = SCHEMES[scheme_id]
    # A straddled cap lies strictly inside the range: two threads at least.
    g, lam, hi, tumor, normal, params = data.draw(
        tiles(scheme, shape, 2 if store == "straddle" else 1)
    )
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    grid, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    best = _incumbent(data.draw, grid, tp, params)
    got = _score_tile(scheme, tuples, table, params, best, KernelCounters())
    _check(got, grid, combos, f, tp, tn, best)

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
            best_in_thread_range(
                scheme, g, tumor, normal, params, lam, hi, normal_hits=hits
            )
            assert hits.read(lam, hi) is not None
    counters = KernelCounters()
    cand = best_in_thread_range(
        scheme, g, tumor, normal, params, lam, hi, counters, normal_hits=hits
    )
    _check((None, cand), grid, combos, f, tp, tn, None)
    assert counters.combos_scored == len(combos)
    if store == "hit":  # the tumor side alone: the range's table, the base rows
        assert counters.word_reads == tumor.n_words * (
            table.inner.size + tuples.size
        )
    if store in ("miss", "hit"):  # the stored counts are the valid entries'
        np.testing.assert_array_equal(hits.read(lam, hi), params.n_normal - tn)
    if store == "straddle":  # the threads below the cap filled, in rank order
        assert hits.filled[lam:].all()
        below = hits.counts[cumulative_work_before(scheme, g, lam):]
        np.testing.assert_array_equal(below, (params.n_normal - tn)[: len(below)])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_pruned_batches_match_the_2d_reference(scheme_id, data):
    """The pruned caller's tiles: a λ-sorted subset of threads, no store,
    per-thread maxima wanted."""
    scheme = SCHEMES[scheme_id]
    g, lam, hi, tumor, normal, params = data.draw(tiles(scheme, "cross"))
    picked = sorted(data.draw(
        st.sets(st.integers(lam + 1, hi - 1), max_size=hi - lam - 1)
    ) | {lam})
    tuples = combos_from_linear(np.asarray(picked), scheme.flattened)
    table = _table(scheme, g, tuples, tumor, normal)
    grid, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    best = _incumbent(data.draw, grid, tp, params)
    got = _score_tile(scheme, tuples, table, params, best, KernelCounters())
    _check(got, grid, combos, f, tp, tn, best)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    alpha=st.sampled_from([0.3, 0.7, 1.0, 2.5, 1e-7]),
    shape=st.sampled_from(["inside", "cross"]),
)
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_score_tile_at_a_non_default_alpha(scheme_id, alpha, shape, data):
    """Every per-thread maximum and the winner's F are ``fscore``'s, bit
    for bit, at any α."""
    scheme = SCHEMES[scheme_id]
    g, lam, hi, tumor, normal, params = data.draw(tiles(scheme, shape))
    params = FScoreParams(params.n_tumor, params.n_normal, alpha)
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    grid, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    got = _score_tile(scheme, tuples, table, params, None, KernelCounters())
    _check(got, grid, combos, f, tp, tn, None)
    assert got[0].tobytes() == grid.max(axis=1).tobytes()
    cand = best_in_thread_range(scheme, g, tumor, normal, params, lam, hi)
    _check((None, cand), grid, combos, f, tp, tn, None)


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
        tuples = combinations_array(1, 0, 2)
        table = _table(SCHEME_1X1, 3, tuples, t, n)
        lam_max, cand = _score_tile(
            SCHEME_1X1, tuples, table, params, None, KernelCounters()
        )
        scanned = best_in_thread_range(SCHEME_1X1, 3, t, n, params, 0, 2)
        want = np.float64(fscore(37, 7, params)).tobytes()
        for c in (cand, scanned):  # the pruned batch, the unpruned scan
            assert (c.genes, c.tp, c.tn) == ((0, 1), 37, 7)
            assert np.float64(c.f).tobytes() == want
        assert lam_max[0].tobytes() == want


class TestNativeEdges:
    """Whole solves against ``sequential_solve`` where the native tile has
    edges: base rows past 64 words, 1- and 4-byte normal-hit stores (read
    from the second iteration on), the 2x2 scheme's valid columns that are
    not a suffix, and the pruned scan's per-thread maxima."""

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
    threads a hit bounds: both take the test after the normal side, and
    each scan starts from no lead.  Without a store nothing is bounded,
    and the range's first thread never is."""
    scheme = SCHEMES[scheme_id]
    g, lam, hi, tumor, normal, params = data.draw(edged_tiles(scheme))
    tuples = combinations_array(scheme.flattened, lam, hi)
    table = _table(scheme, g, tuples, tumor, normal)
    grid, combos, f, tp, tn = _reference(tuples, table, tumor, normal, params)
    store = NormalHitStore(scheme, g, normal)
    bounded = []
    for hits in (store, store, None):
        counters = KernelCounters()
        cand = best_in_thread_range(
            scheme, g, tumor, normal, params, lam, hi, counters, normal_hits=hits
        )
        _check((None, cand), grid, combos, f, tp, tn, None)
        assert counters.combos_scored == len(combos)
        bounded.append(counters.threads_bounded)
    fill, hit, plain = bounded
    assert fill == hit < hi - lam
    assert plain == 0


class TestBoundBeforeTheProduct:
    """Whole solves: the bound engages on a dense cohort, and never on
    the pruned path, which has its own bounds and no store."""

    def test_dense_solves_bound_threads_and_pruned_ones_none(self):
        rng = np.random.default_rng(7)
        t = rng.random((24, 300)) < 0.3
        n = rng.random((24, 280)) < 0.15
        full = MultiHitSolver(hits=3, max_iterations=3).solve(t, n)
        pruned = MultiHitSolver(hits=3, max_iterations=3, prune=True).solve(t, n)
        assert [c.genes for c in full.combinations] == [
            c.genes for c in pruned.combinations
        ]
        assert full.counters.combos_scored == 3 * math.comb(24, 3)
        assert full.counters.threads_bounded > 0
        assert pruned.counters.threads_bounded == 0


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
