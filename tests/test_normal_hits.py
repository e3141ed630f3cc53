"""The normal-hit store: normal popcounts computed once per solve.

Switching the store off (a zero byte budget) must change nothing but
``word_reads`` and wall time — winners, tie-breaks, ``combos_scored`` and
every other :class:`IterationRecord` field — on every backend, every
scheme shape, splice or mask, a resumed run and a budget that covers only
part of the grid.  Whether a rank thread finds a range stored depends on
scheduling; the answers must not.  The kernel bounds every thread
before its tumor product: by its tumor-prefix ceiling while its normal
hits are not stored — a thread that ceiling bounds is not filled, so
fills are lazy — and by the store's per-thread floor, ``least``, once
they are.  ``TestNormalHitFloor`` holds greedy arg-maxes to brute force
with both.
"""

import contextlib
import ctypes
import dataclasses
import math
import threading
import warnings
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.bitmatrix.matrix import BitMatrix
from repro.combinatorics.decode import top_index
from repro.combinatorics.enumeration import combinations_array
from repro.core import solver as solver_module
from repro.core.distributed import DistributedEngine
from repro.core.engine import NormalHitStore, SingleGpuEngine, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters, best_of, score_combos_reference
from repro.core.memopt import MemoryConfig
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1, scheme_for
from repro.scheduling.workload import cumulative_work_before, total_threads
from tests.scan_cuts import cuts, scans_cut
from tests.scan_walk import walk
from tests.test_meter_closure import W_BOUNDED, WIN, wrap_kernel
from tests.test_distributed import DRIVERS

ITERATIONS = 4
_SHAPE = {"backend": "distributed", "n_nodes": 2, "gpus_per_node": 2}

#: cell id -> (solver knobs, driver of the distributed ledger); the
#: ``*-pinned`` cells are the static schedule, named from when its leases
#: were pinned to ranks.
BACKENDS = {
    "single": ({"backend": "single"}, "engine"),
    "pool-1": ({"backend": "pool", "n_workers": 1}, "engine"),
    "pool-2": ({"backend": "pool", "n_workers": 2}, "engine"),
    "pool-2-elastic": (
        {"backend": "pool", "n_workers": 2, "elastic": True}, "engine",
    ),
    "distributed-pinned": (_SHAPE, "engine"),
    "distributed-elastic": ({**_SHAPE, "elastic": True}, "engine"),
    "fleet-pinned": (_SHAPE, "thread-fleet"),
    "fleet-elastic": ({**_SHAPE, "elastic": True}, "thread-fleet"),
}

SCHEMES = {
    "hits2": {"hits": 2},
    "hits3": {"hits": 3},
    "hits4": {"hits": 4},
    "2x2": {"hits": 4, "scheme": SCHEME_2X2},
}


@lru_cache(maxsize=None)
def _cohort():
    rng = np.random.default_rng(30)
    return rng.random((14, 150)) < 0.35, rng.random((14, 130)) < 0.2


def _outcome(result):
    """Everything the store must not move: winners with their scores, the
    scored count and every record field but ``word_reads`` and
    ``wall_seconds``."""
    records = [
        {
            k: v
            for k, v in dataclasses.asdict(r).items()
            if k not in ("word_reads", "wall_seconds")
        }
        for r in result.iterations
    ]
    return (
        [(c.genes, c.f, c.tp, c.tn) for c in result.combinations],
        result.counters.combos_scored,
        result.uncovered,
        records,
    )


def _assert_same_counts(a, b):
    """The threads both stores hold have equal counts and least counts
    (an unfilled thread's slots hold whatever the allocation held)."""
    both = a.filled & b.filled
    assert both.any()
    ranks = [cumulative_work_before(a.scheme, a.g, lam) for lam in range(a.lam_cap + 1)]
    entries = np.repeat(both, np.diff(ranks))
    np.testing.assert_array_equal(a.counts[entries], b.counts[entries])
    np.testing.assert_array_equal(a.least[both], b.least[both])


def _solve(knobs, driver="engine", budget=None, resume=None, cut=None):
    """A solve; ``cut``: every unpruned scan split at that many entries
    (:func:`tests.scan_cuts.scans_cut`)."""
    if budget is None:
        budget = engine_mod.NORMAL_HIT_BUDGET
    with patch.dict(solver_module._ENGINES, distributed=DRIVERS[driver]), \
            patch.object(engine_mod, "NORMAL_HIT_BUDGET", budget), \
            scans_cut(cut) if cut else contextlib.nullcontext():
        return MultiHitSolver(max_iterations=ITERATIONS, **knobs).solve(
            *_cohort(), resume=resume
        )


@lru_cache(maxsize=None)
def _reference(scheme: str, bitsplice: bool = True):
    """The store-off answer: single backend, zero budget."""
    knobs = {**SCHEMES[scheme], "memory": MemoryConfig(bitsplice=bitsplice)}
    return _solve(knobs, budget=0)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend(self, backend):
        knobs, driver = BACKENDS[backend]
        on = _solve({**knobs, "hits": 3}, driver)
        off = _solve({**knobs, "hits": 3}, driver, budget=0)
        assert _outcome(on) == _outcome(off) == _outcome(_reference("hits3"))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("backend", ["single", "fleet-elastic", "pool-2"])
    def test_every_scheme(self, scheme, backend):
        knobs, driver = BACKENDS[backend]
        on = _solve({**knobs, **SCHEMES[scheme]}, driver)
        assert _outcome(on) == _outcome(_reference(scheme))

    @pytest.mark.parametrize("backend", ["single", "distributed-elastic"])
    def test_mask_instead_of_splice(self, backend):
        knobs, driver = BACKENDS[backend]
        mask = {**knobs, "hits": 3, "memory": MemoryConfig(bitsplice=False)}
        assert _outcome(_solve(mask, driver)) == _outcome(
            _reference("hits3", bitsplice=False)
        )

    def test_store_engages_from_the_second_iteration(self):
        on, off = _solve({"hits": 3}), _reference("hits3")
        reads_on = [r.word_reads for r in on.iterations]
        reads_off = [r.word_reads for r in off.iterations]
        assert reads_on[0] == reads_off[0]  # the first scan fills
        assert all(a < b for a, b in zip(reads_on[1:], reads_off[1:]))

    @pytest.mark.parametrize("backend", ["single", "pool-2", "fleet-pinned"])
    def test_resumed_from_a_mid_solve_checkpoint(self, backend):
        knobs, driver = BACKENDS[backend]
        states = []
        MultiHitSolver(hits=3, max_iterations=2).solve(
            *_cohort(), on_iteration=states.append
        )
        resumed = _solve({**knobs, "hits": 3}, driver, resume=states[-1])
        full, got = _outcome(_reference("hits3")), _outcome(resumed)
        assert got[0] == full[0]  # the restored winners, then the new ones
        assert got[3] == full[3][2:]

    @pytest.mark.parametrize(
        "backend", ["single", "distributed-elastic", "pool-2"]
    )
    def test_budget_covering_part_of_the_grid(self, backend):
        """Half the grid's 1-byte counts (Nn = 130), in small scans so
        some lie below the cap, one across it: those below are stored,
        the rest rescored."""
        knobs, driver = BACKENDS[backend]
        budget, scheme = math.comb(14, 3) // 2, scheme_for(3, 2)
        with patch.object(engine_mod, "NORMAL_HIT_BUDGET", budget):
            store = NormalHitStore(scheme, 14, BitMatrix.from_dense(_cohort()[1]))
        assert 0 < store.lam_cap < total_threads(scheme, 14)
        got = _solve({**knobs, "hits": 3}, driver, budget=budget, cut=64)
        assert _outcome(got) == _outcome(_reference("hits3"))
        if backend == "single":
            off = _solve({"hits": 3}, budget=0, cut=64)
            full = _solve({"hits": 3}, cut=64)
            second = [r.iterations[1].word_reads for r in (full, got, off)]
            assert second == sorted(set(second))  # strictly between


class TestNormalSidePopcounts:
    """Iterations from the second on score the tumor side only."""

    def _normal_rows(self, budget=None, monkeypatch=None):
        """Normal rows gathered per iteration, read off ``word_reads``,
        and ``R``, the rows every piece's normal side has.

        The normal matrix is 5 words wide, wider than the tumor's 2, so
        every iteration cuts its scan into the same pieces
        (:func:`tests.scan_cuts.cuts`).  Each piece gathers one inner
        table of ``d * C(g-1-m, d)`` rows per side it builds and the
        fixed rows of its walk (:func:`tests.scan_walk.walk`, replayed
        on the piece's own inputs before it runs): iteration ``k`` reads
        ``w_k * T + 5 * N_k`` words plus its walks' tumor words, ``w_k``
        the tumor width it scanned, ``T`` the tables' rows and ``N_k``
        the normal rows.  ``R`` is ``T`` plus ``f`` rows per thread.
        With ``monkeypatch``, also the threads each iteration bounded."""
        rng = np.random.default_rng(4)
        t = rng.random((16, 120)) < 0.35
        n = rng.random((16, 300)) < 0.2
        scheme, g = scheme_for(3, 2), 16
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        tables = rows = 0
        for lo, hi in cuts(scheme, g, tumor, normal, 0, total_threads(scheme, g), 64):
            level = top_index(lo, scheme.flattened)
            tables += scheme.inner * math.comb(g - 1 - level, scheme.inner)
            rows += scheme.flattened * (hi - lo)
        rows += tables
        bounded = [0]
        if monkeypatch is not None:
            wrap_kernel(monkeypatch, lambda name, args: bounded.__setitem__(
                0, bounded[0] + ctypes.c_int64.from_address(args[WIN] + 8 * W_BOUNDED).value
            ))
        walked = [0]  # the walks' tumor words so far
        scan = engine_mod._scan_range

        def replayed(scheme, g, tumor, normal, params, lo, hi, counters, store=None):
            piece = walk(scheme, g, tumor, normal, params, lo, hi, store)
            walked[0] += piece.tumor_rows * tumor.n_words
            return scan(scheme, g, tumor, normal, params, lo, hi, counters, store)

        per_iteration, tumor_words = [], []

        def record(_):
            per_iteration.append(bounded[0])
            tumor_words.append(walked[0])

        budget = engine_mod.NORMAL_HIT_BUDGET if budget is None else budget
        with patch.object(engine_mod, "NORMAL_HIT_BUDGET", budget), patch.object(
            engine_mod, "_scan_range", replayed
        ), scans_cut(64):
            result = MultiHitSolver(hits=3, max_iterations=4).solve(
                t, n, on_iteration=record
            )
        records = result.iterations
        assert len(records) == 4
        widths = [tumor.n_words] + [r.tumor_words for r in records[:-1]]
        normal_rows = []
        for r, w, fixed in zip(records, widths, np.diff([0, *tumor_words])):
            n_rows, left = divmod(r.word_reads - w * tables - fixed, 5)
            assert left == 0
            normal_rows.append(n_rows)
        return normal_rows, rows, np.diff([0, *per_iteration]).tolist()

    def test_zero_after_the_first_iteration_when_the_store_fits(self):
        normal_rows, rows, _ = self._normal_rows()
        assert 0 < normal_rows[0] <= rows
        assert normal_rows[1:] == [0] * (len(normal_rows) - 1)

    def test_every_iteration_without_a_store(self, monkeypatch):
        """Every iteration gathers every piece's normal side but the
        fixed rows of the threads its tumor prefix bounded (with no
        store, every bound is the prefix's)."""
        normal_rows, rows, bounded = self._normal_rows(budget=0, monkeypatch=monkeypatch)
        assert normal_rows == [rows - 2 * b for b in bounded]
        assert all(0 < r <= rows for r in normal_rows)

    def test_past_the_cap_threads_are_rescored(self):
        # Half the grid's 2-byte counts (Nn = 300).
        normal_rows, _, _ = self._normal_rows(budget=math.comb(16, 3))
        assert all(0 < r < normal_rows[0] for r in normal_rows[1:])


class TestCountWidths:
    @pytest.mark.parametrize(
        "n_normal,dtype",
        [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)],
    )
    def test_narrowest_type_and_exact_scores(self, n_normal, dtype):
        """Counts reach ``Nn`` (an all-ones normal row pair), the edge of
        each type; ``TN`` must come out 0, not wrap."""
        g = 6
        rng = np.random.default_rng(n_normal)
        t = rng.random((g, 70)) < 0.5
        n = np.zeros((g, n_normal), dtype=bool)
        n[:3] = True  # genes 0-2: every normal sample
        n[3:] = rng.random((g - 3, n_normal)) < 0.3
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=70, n_normal=n_normal)
        scheme = scheme_for(3, 2)
        store = NormalHitStore(scheme, g, normal)
        assert store.counts.dtype == dtype
        assert store.counts.size == math.comb(g, 3)

        total = total_threads(scheme, g)
        first = best_in_thread_range(
            scheme, g, tumor, normal, params, 0, total, normal_hits=store
        )
        assert store.filled.all()
        assert store.counts[0] == n_normal  # (0, 1, 2) hits every sample
        again = best_in_thread_range(
            scheme, g, tumor, normal, params, 0, total, normal_hits=store
        )
        plain = best_in_thread_range(scheme, g, tumor, normal, params, 0, total)
        assert first == again == plain


class TestBinding:
    @pytest.fixture
    def setup(self):
        t, n = _cohort()
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1])
        return tumor, normal, params, NormalHitStore(SCHEME_3X1, 14, normal)

    def test_another_normal_matrix_is_refused(self, setup):
        tumor, normal, params, store = setup
        twin = BitMatrix(normal.words.copy(), normal.n_samples)
        with pytest.raises(ValueError, match="normal-hit store"):
            best_in_thread_range(
                SCHEME_3X1, 14, tumor, twin, params, 0, 10, normal_hits=store
            )

    def test_another_scheme_is_refused(self, setup):
        tumor, normal, params, store = setup
        with pytest.raises(ValueError, match="normal-hit store"):
            best_in_thread_range(
                SCHEME_2X2, 14, tumor, normal, params, 0, 10, normal_hits=store
            )

    def test_another_gene_count_is_refused(self, setup):
        tumor, normal, params, _ = setup
        store = NormalHitStore(SCHEME_3X1, 13, normal)
        with pytest.raises(ValueError, match="normal-hit store"):
            best_in_thread_range(
                SCHEME_3X1, 14, tumor, normal, params, 0, 10, normal_hits=store
            )

    def test_engines_rebind_instead(self, setup):
        tumor, normal, params, _ = setup
        engine = SingleGpuEngine(scheme=SCHEME_3X1)
        engine.best_combo(tumor, normal, params)
        first = engine._normal_hits
        engine.best_combo(tumor, normal, params)
        assert engine._normal_hits is first
        twin = BitMatrix(normal.words.copy(), normal.n_samples)
        assert engine.best_combo(tumor, twin, params) == engine.best_combo(
            tumor, normal, params
        )
        assert engine._normal_hits is not first


class TestPoolStore:
    """The pool spelling's rank threads share one store per engine: it
    is the distributed engine, one partition per rank."""

    def test_rebinds_on_a_new_normal_matrix(self):
        """The next job's normal matrix gets a new store, so two jobs
        never share counts."""
        t, n = _cohort()
        tumor = BitMatrix.from_dense(t)
        params = FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1])
        scheme = scheme_for(3, 2)
        eng = DistributedEngine(scheme=scheme, n_nodes=2, gpus_per_node=1)
        normal_a = BitMatrix.from_dense(n)
        best_a = eng.best_combo(tumor, normal_a, params)
        store_a = eng._normal_hits
        assert store_a.binds(scheme, tumor.n_genes, normal_a)
        assert store_a.filled.any()
        assert eng.best_combo(tumor, normal_a, params) == best_a
        assert eng._normal_hits is store_a

        normal_b = BitMatrix.from_dense(~n)  # the next job
        best_b = eng.best_combo(tumor, normal_b, params)
        store_b = eng._normal_hits
        assert store_b is not store_a
        assert store_b.binds(scheme, tumor.n_genes, normal_b)
        assert not store_a.binds(scheme, tumor.n_genes, normal_b)
        # Fills are lazy (a thread its tumor prefix bounds is not
        # filled): compare the threads both stores hold.
        both = np.flatnonzero(store_a.filled & store_b.filled)
        assert both.size

        def counts(store, lam):
            lo, hi = (
                cumulative_work_before(scheme, tumor.n_genes, x)
                for x in (lam, lam + 1)
            )
            return store.counts[lo:hi]

        assert any(
            not np.array_equal(counts(store_a, lam), counts(store_b, lam))
            for lam in both
        )
        assert best_b == SingleGpuEngine(scheme=scheme).best_combo(
            tumor, normal_b, params
        )

    def test_one_store_per_engine(self):
        """Elastic leases land on whichever rank is free; with one store
        shared by the ranks, what a solve gathers does not depend on
        which rank ran which lease."""
        rng = np.random.default_rng(33)
        t, n = rng.random((40, 200)) < 0.3, rng.random((40, 160)) < 0.15
        runs = [
            MultiHitSolver(
                hits=3, backend="pool", n_workers=2, elastic=True,
                max_iterations=ITERATIONS,
            ).solve(t, n)
            for _ in range(3)
        ]
        reads = [[r.word_reads for r in run.iterations] for run in runs]
        assert reads[1] == reads[0] and reads[2] == reads[0]
        dist = MultiHitSolver(
            hits=3, backend="distributed", n_nodes=2, elastic=True,
            max_iterations=ITERATIONS,
        ).solve(t, n)
        for run in runs:
            assert [c.genes for c in run.combinations] == [
                c.genes for c in dist.combinations
            ]
            assert [r.combos_scored for r in run.iterations] == [
                r.combos_scored for r in dist.iterations
            ]


class TestDuplicatedScans:
    def _instance(self):
        t, n = _cohort()
        tumor, normal = BitMatrix.from_dense(t), BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1])
        return tumor, normal, params

    def test_concurrent_scans_of_one_range_write_equal_counts(self):
        tumor, normal, params = self._instance()
        scheme = SCHEME_3X1
        total = total_threads(scheme, 14)
        shared = NormalHitStore(scheme, 14, normal)
        winners = []

        def scan():
            winners.append(best_in_thread_range(
                scheme, 14, tumor, normal, params, 0, total, normal_hits=shared
            ))

        with scans_cut(64):  # many scans, each filling part of the store
            threads = [threading.Thread(target=scan) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            alone = NormalHitStore(scheme, 14, normal)
            best_in_thread_range(
                scheme, 14, tumor, normal, params, 0, total, normal_hits=alone
            )
        # Which threads a piece's prefix ceiling leaves unfilled depends
        # on the piece alone.
        np.testing.assert_array_equal(shared.filled, alone.filled)
        _assert_same_counts(shared, alone)
        reference = best_in_thread_range(scheme, 14, tumor, normal, params, 0, total)
        assert winners == [reference] * 4

    def test_two_rank_threads_share_one_store(self):
        """Two rank threads of ``distributed`` scan their leases against
        the engine's one store, one native call per lease: the first
        iteration fills it, the second reads it, and both match the
        oracle bit for bit."""
        t, n = _cohort()
        engine = DistributedEngine(
            scheme=scheme_for(3, 2), n_nodes=2, gpus_per_node=1, elastic=True,
        )
        with patch.dict(solver_module._ENGINES, distributed=lambda solver: engine):
            got = MultiHitSolver(
                hits=3, backend="distributed", n_nodes=2, gpus_per_node=1,
                elastic=True, max_iterations=2,
            ).solve(t, n)
        want = sequential_solve(t, n, 3, max_iterations=2)
        assert [(c.genes, c.f, c.tp, c.tn) for c in got.combinations] == [
            (c.genes, c.f, c.tp, c.tn) for c in want
        ]
        assert [r.combos_scored for r in got.iterations] == [math.comb(14, 3)] * 2
        assert got.counters.combos_scored == 2 * math.comb(14, 3)
        assert engine._normal_hits.filled.all()

    def test_stolen_lease_leaves_winners_unchanged(self):
        """A hung rank's lease expires and is stolen; the rank resurfaces
        and scans it again against the store the thief filled."""
        t, n = _cohort()
        plan = FaultPlan((
            FaultSpec(kind="hang", site="rank", target=1, count=-1, delay_s=0.12),
        ))
        engine = DistributedEngine(
            scheme=scheme_for(3, 2), n_nodes=2, gpus_per_node=2, elastic=True,
            fault_plan=plan, retry_policy=RetryPolicy(deadline_s=0.03),
        )
        with patch.dict(
            solver_module._ENGINES, distributed=lambda solver: engine
        ), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = MultiHitSolver(
                hits=3, backend="distributed", n_nodes=2, gpus_per_node=2,
                elastic=True, max_iterations=ITERATIONS,
            ).solve(t, n)
        assert any(e.action == "lease-expired" for e in got.fault_report.events)
        assert _outcome(got) == _outcome(_reference("hits3"))
        tumor, normal, params = self._instance()
        fresh = NormalHitStore(engine.scheme, 14, normal)
        best_in_thread_range(
            engine.scheme, 14, tumor, normal, params, 0,
            total_threads(engine.scheme, 14), normal_hits=fresh,
        )
        _assert_same_counts(engine._normal_hits, fresh)


# -- the normal-hit floor bounds threads before their tumor product ----------

#: engine id -> a fresh engine for a scheme: one GPU, or two nodes of two
#: (``distributed-pinned``: the static schedule).
ENGINES = {
    "single": lambda scheme: SingleGpuEngine(scheme=scheme),
    "distributed-pinned": lambda scheme: DistributedEngine(
        scheme=scheme, n_nodes=2, gpus_per_node=2
    ),
    "distributed-elastic": lambda scheme: DistributedEngine(
        scheme=scheme, n_nodes=2, gpus_per_node=2, elastic=True
    ),
}


@st.composite
def floor_cohorts(draw):
    """A cohort with the bound's edges: a duplicated gene (equal F across
    threads), a gene no tumor carries (all-zero tumor bases), α of 0.1,
    1 or 1e-7, 66-word tumor rows, 1-, 2- and 4-byte stores, and a
    budget whose cap falls strictly inside the grid."""
    hits = draw(st.sampled_from([3, 4]))
    scheme = scheme_for(hits, hits - 1)
    g = draw(st.integers(hits + 2, 9))
    n_tumor = draw(st.sampled_from([70, 4200]))
    n_normal = draw(st.sampled_from([90, 300, 65600]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.random((g, n_tumor)) < draw(st.sampled_from([0.3, 0.7]))
    n = rng.random((g, n_normal)) < draw(st.sampled_from([0.05, 0.3]))
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, g - 1), min_size=2, max_size=2, unique=True))
        t[b], n[b] = t[a], n[a]
    if draw(st.booleans()):
        t[draw(st.integers(0, g - 1))] = False
    alpha = draw(st.sampled_from([0.1, 1.0, 1e-7]))
    budget = engine_mod.NORMAL_HIT_BUDGET
    cap = math.comb(g - scheme.inner, scheme.flattened)  # threads with inner loops
    if draw(st.booleans()):  # counts and a 4-byte least for `cap` threads
        cap = draw(st.integers(1, cap - 1))
        itemsize = np.min_scalar_type(n_normal).itemsize
        budget = itemsize * cumulative_work_before(scheme, g, cap) + 4 * cap
    return scheme, t, n, alpha, budget, cap


class TestNormalHitFloor:
    """Each greedy arg-max, with threads bounded out before their tumor
    product, is the brute-force arg-max of every combination, tie rule
    included; threads past the store's cap have no floor and are
    bounded by their tumor prefix alone."""

    @settings(max_examples=25, deadline=None)
    @given(case=floor_cohorts())
    @pytest.mark.parametrize("engine_id", ENGINES)
    def test_greedy_argmaxes_match_brute_force(self, engine_id, case):
        scheme, t, n, alpha, budget, cap = case
        g = t.shape[0]
        normal = BitMatrix.from_dense(n)
        params = FScoreParams(n_tumor=t.shape[1], n_normal=n.shape[1], alpha=alpha)
        combos = combinations_array(scheme.hits, 0, math.comb(g, scheme.hits))
        active = np.ones(t.shape[1], dtype=bool)
        engine = ENGINES[engine_id](scheme)
        try:
            with patch.object(engine_mod, "NORMAL_HIT_BUDGET", budget):
                for _ in range(3):
                    tumor = BitMatrix.from_dense(t[:, active])
                    counters = KernelCounters()
                    got = engine.best_combo(tumor, normal, params, counters)
                    want = best_of(
                        combos, *score_combos_reference(tumor, normal, combos, params)
                    )
                    assert (got.genes, got.f, got.tp, got.tn) == (
                        want.genes, want.f, want.tp, want.tn,
                    )
                    assert counters.combos_scored == len(combos)
                    # A scan never bounds its first thread.
                    assert counters.threads_bounded < math.comb(
                        g - scheme.inner, scheme.flattened
                    )
                    assert engine._normal_hits.lam_cap == cap
                    active &= ~t[list(got.genes)].all(axis=0)
                    if got.tp == 0 or not active.any():
                        break
        finally:
            if hasattr(engine, "close"):
                engine.close()
