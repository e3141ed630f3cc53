"""Tests for the distributed engine (lease ledger -> search -> reduction).

``TestDistributionMatrix`` is generated from the switch space: both
ways into the thread fleet (the engine behind ``backend="distributed"``
and a direct :func:`spmd_best_combo` call) x both scheduling modes x
pruning x a dense or a sparse cohort x every fault the fleet recovers.
The sparse cohort is blocky, like cancer subtypes: a gene is mutated
only in the samples of two of four 64-sample blocks, so a thread's
AND-reduced fixed rows are mostly zero words, which the native kernel
skips.  Whatever
the cell, the solve must select the winners of ``backend="single"``
(tie-breaks included) and score every combination exactly once; for a
fixed cut set — the same mode — pruning and traffic counters must equal
the failure-free engine run's too, because a lease's work is a pure
function of its range.
"""

import dataclasses
import sys
import threading
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest

from repro.cluster import LeaseLedger, spmd_best_combo
from repro.core import solver as solver_module
from repro.core.distributed import DistributedEngine
from repro.core.engine import NormalHitStore, SingleGpuEngine
from repro.core.sequential import sequential_solve
from repro.core.solver import MultiHitSolver
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.scheduling.equiarea import LEASES_PER_PULLER
from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1


class TestDistributedEngine:
    @pytest.mark.parametrize("n_nodes,gpn", [(1, 1), (2, 3), (5, 6), (30, 2)])
    def test_matches_single_gpu(self, small_bitmatrices, n_nodes, gpn):
        tumor, normal, params = small_bitmatrices
        ref = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(tumor, normal, params)
        eng = DistributedEngine(scheme=SCHEME_3X1, n_nodes=n_nodes, gpus_per_node=gpn)
        got = eng.best_combo(tumor, normal, params)
        assert got.genes == ref.genes and got.f == ref.f

    @pytest.mark.parametrize("scheduler", ["equiarea", "equidistance"])
    def test_both_schedulers_same_result(self, small_bitmatrices, scheduler):
        tumor, normal, params = small_bitmatrices
        eng = DistributedEngine(
            scheme=SCHEME_2X2, n_nodes=3, gpus_per_node=2, scheduler=scheduler
        )
        ref = SingleGpuEngine(scheme=SCHEME_2X2).best_combo(tumor, normal, params)
        got = eng.best_combo(tumor, normal, params)
        assert got.genes == ref.genes

    def test_unknown_scheduler(self, small_bitmatrices):
        tumor, normal, params = small_bitmatrices
        eng = DistributedEngine(scheme=SCHEME_3X1, n_nodes=2, scheduler="magic")
        with pytest.raises(ValueError):
            eng.best_combo(tumor, normal, params)

    def test_more_gpus_than_threads(self, small_bitmatrices):
        tumor, normal, params = small_bitmatrices
        eng = DistributedEngine(scheme=SCHEME_3X1, n_nodes=500, gpus_per_node=6)
        ref = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(tumor, normal, params)
        got = eng.best_combo(tumor, normal, params)
        assert got.genes == ref.genes


# -- the generated equivalence matrix --------------------------------------

N_NODES, GPUS_PER_NODE = 3, 2


def _crash(target, **kw):
    return FaultSpec(kind="crash", site="rank", target=target, **kw)


#: fault case -> (plan factory, retry policy).  Plans are stateful (a spent
#: spec never fires again), hence factories.
FAULT_CASES = {
    "clean": (lambda: None, None),
    "persistent-crash": (lambda: FaultPlan((_crash(1, count=-1),)), None),
    "one-shot-crash-resubmitted": (
        lambda: FaultPlan((_crash(0, at_call=0),)), RetryPolicy(resubmits=1),
    ),
    # A hang is a real silence: the lease TTL (``deadline_s``) expires
    # it well before the rank resurfaces.
    "hang": (
        lambda: FaultPlan(
            (FaultSpec(kind="hang", site="rank", target=2, count=-1,
                       delay_s=0.12),)
        ),
        RetryPolicy(deadline_s=0.03),
    ),
    "straggler": (
        lambda: FaultPlan(
            (FaultSpec(kind="straggler", site="rank", target=1, delay_s=0.01),)
        ),
        None,
    ),
    "every-rank-dead": (
        lambda: FaultPlan(tuple(_crash(r, count=-1) for r in range(N_NODES))),
        None,
    ),
    "join-leave-churn": (
        lambda: FaultPlan.churn(N_NODES, fraction=0.34, leave_at=0.2, join_at=0.4),
        None,
    ),
}


@lru_cache(maxsize=None)
def _cohort(sparse=False):
    rng = np.random.default_rng(2021)
    if not sparse:
        return rng.random((13, 48)) < 0.4, rng.random((13, 40)) < 0.15
    gene = np.arange(13)[:, None]
    block = np.arange(256)[None, :] // 64
    home = (block == gene % 4) | (block == (gene + 1) % 4)
    normal_home = np.arange(192)[None, :] // 64 == gene % 3
    return (
        (rng.random((13, 256)) < 0.5) & home,
        (rng.random((13, 192)) < 0.15) & normal_home,
    )


class _DirectSPMD:
    """:func:`spmd_best_combo` called directly behind the solver's engine
    surface, so the matrix drives the public entry point through the
    same greedy loop — cuts, splicing, fault plan, a normal-hit store
    kept across calls — as the engine it borrows its
    configuration from (but no lease TTL)."""

    def __init__(self, engine: DistributedEngine) -> None:
        self.engine = engine
        self.report = engine.report
        self.close = engine.close
        self.calls = 0
        self.normal_hits = None

    def best_combo(self, tumor, normal, params, **search):
        e = self.engine
        g = tumor.n_genes
        ledger = (
            LeaseLedger.build(e.scheme, g, LEASES_PER_PULLER * e.n_nodes)
            if e.elastic
            else LeaseLedger(e.build_schedule(g).boundaries)
        )
        self.calls += 1
        self.normal_hits = NormalHitStore.reuse(
            self.normal_hits, e.scheme, g, normal
        )
        return spmd_best_combo(
            ledger, e.scheme, tumor, normal, params, e.n_nodes,
            fault_plan=e.fault_plan, retry_policy=e.retry_policy,
            report=e.report, call=self.calls - 1,
            normal_hits=self.normal_hits, **search,
        )


_engine = solver_module._ENGINES["distributed"]
DRIVERS = {
    "engine": _engine,
    "thread-fleet": lambda solver: _DirectSPMD(_engine(solver)),
}


def _solve(
    backend="distributed", fault_case="clean", driver="engine", sparse=False,
    **kw,
):
    plan, policy = FAULT_CASES[fault_case]
    if backend == "distributed":
        kw = {"n_nodes": N_NODES, "gpus_per_node": GPUS_PER_NODE, **kw}
    with patch.dict(solver_module._ENGINES, distributed=DRIVERS[driver]):
        return MultiHitSolver(
            hits=3, backend=backend, max_iterations=4,
            fault_plan=plan(), retry_policy=policy, **kw,
        ).solve(*_cohort(sparse))


@lru_cache(maxsize=None)
def _clean(elastic, prune, sparse):
    return _solve(elastic=elastic, prune=prune, sparse=sparse)


@lru_cache(maxsize=None)
def _single(sparse):
    single = _solve(backend="single", sparse=sparse)
    oracle = sequential_solve(*_cohort(sparse), 3, max_iterations=4)
    assert _winners(single) == [(c.genes, c.f, c.tp, c.tn) for c in oracle]
    return single


def _winners(result):
    return [(c.genes, c.f, c.tp, c.tn) for c in result.combinations]


#: Without a lease TTL a ``hang`` is only a sleep; the direct calls'
#: TTL cases are in tests/test_elastic.py.
CELLS = [
    (driver, case)
    for driver in DRIVERS
    for case in FAULT_CASES
    if not (driver == "thread-fleet" and case == "hang")
]


class TestDistributionMatrix:
    @pytest.mark.parametrize(
        "driver,fault_case", CELLS,
        ids=[c if d == "engine" else f"{d}-{c}" for d, c in CELLS],
    )
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
    # ``pinned`` is the static mode's id, kept from when its leases were
    # reserved for their ranks.
    @pytest.mark.parametrize("elastic", [False, True], ids=["pinned", "elastic"])
    def test_cell_matches_clean_run(
        self, elastic, prune, sparse, driver, fault_case
    ):
        got = _solve(
            fault_case=fault_case, driver=driver, elastic=elastic, prune=prune,
            sparse=sparse,
        )
        clean = _clean(elastic, prune, sparse)
        assert _winners(got) == _winners(_single(sparse))
        assert len(got.combinations) == 4
        # Work accounting closes: every combination is scored exactly
        # once, and identically to the failure-free engine run.
        assert got.counters == clean.counters
        # Each lease starts from no lead, so the threads its bounds skip
        # depend on the cuts alone; ``prune`` is read by nothing.
        assert got.counters.threads_bounded == clean.counters.threads_bounded
        assert got.counters.threads_bounded > 0
        assert got.counters.combos_pruned == 0
        report = got.fault_report
        if fault_case == "clean":
            assert not report.events and not report.rescheduled
            return
        if fault_case == "every-rank-dead":
            retired = {e.target for e in report.events if e.action == "lease-forfeit"}
            assert retired == set(range(N_NODES))
            assert {r.survivor for r in report.rescheduled} == {-1}
        if driver == "thread-fleet" and (elastic or "churn" in fault_case):
            # Which thread pulls which elastic lease, and how far along
            # the solve is when the supervisor polls, is up to the OS:
            # the answer is fixed, the report is not.
            return
        assert report.events, "recovery left no entry in the FaultReport"
        if fault_case == "persistent-crash":
            assert report.dead_ranks == (1,)
        if fault_case == "one-shot-crash-resubmitted":
            assert any(e.action == "resubmitted" for e in report.events)
            assert not any(e.action == "lease-forfeit" for e in report.events)
            assert report.n_rescheduled == 0
        if fault_case == "straggler":
            assert {(e.kind, e.action) for e in report.events} == {
                ("straggler", "observed")
            }

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
    def test_pinned_is_elastic_with_one_lease_per_partition(self, prune, sparse):
        """The identity that made the static driver redundant: the same
        cuts through either mode do the same work, counter for counter
        (``threads_bounded`` included: each lease starts from no lead).
        With as many GPUs per node as the lease grain, the static
        partitions *are* the elastic leases (the test keeps the name it
        had when static leases were pinned to their ranks)."""
        shape = dict(gpus_per_node=LEASES_PER_PULLER, prune=prune, sparse=sparse)
        static = _solve(elastic=False, **shape)
        elastic = _solve(elastic=True, **shape)
        assert _winners(elastic) == _winners(static)
        assert dataclasses.asdict(elastic.counters) == dataclasses.asdict(
            static.counters
        )

    def test_more_rank_threads_than_cores_under_a_short_switch_interval(self):
        """Rank threads share the normal-hit store, the fault report and
        the ledger: with four times the cores' worth of ranks preempted every
        few bytecodes, a lost update would move a winner or a counter."""
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            solve = threading.Thread(
                target=lambda: out.append(
                    _solve(n_nodes=8, elastic=True, prune=True)
                ),
                daemon=True,
            )
            solve.start()
            solve.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not solve.is_alive() and len(out) == 1
        (got,) = out
        reference = _single(False)
        assert _winners(got) == _winners(reference)
        assert got.counters.combos_scored == reference.counters.combos_scored

    def test_unpruned_work_is_mode_independent(self):
        assert (
            _clean(True, False, False).counters.combos_scored
            == _clean(False, False, False).counters.combos_scored
            == _single(False).counters.combos_scored
        )


class TestRetryPolicyOnLeases:
    """Both ways in, both modes, consult the one ``RetryPolicy``."""

    @pytest.mark.parametrize(
        "elastic,driver",
        [(e, d) for d in DRIVERS for e in (False, True)],
        # ``pinned``: the static mode, named from when its leases were pinned.
        ids=["pinned", "elastic", "pinned-thread-fleet", "elastic-thread-fleet"],
    )
    def test_slow_lease_is_reported_without_injection(
        self, small_bitmatrices, elastic, driver
    ):
        tumor, normal, params = small_bitmatrices
        engine = DistributedEngine(
            scheme=SCHEME_3X1, n_nodes=2, gpus_per_node=2, elastic=elastic,
            retry_policy=RetryPolicy(straggler_after_s=0.0),
        )
        if driver == "thread-fleet":
            engine = _DirectSPMD(engine)
        engine.best_combo(tumor, normal, params)
        assert engine.report.events
        assert all(
            (e.kind, e.action) == ("straggler", "observed")
            for e in engine.report.events
        )
