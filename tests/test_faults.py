"""Fault-injection matrix: crash / hang / straggler across the rank
fleet (the pool and distributed backends, one plan each).

The contract under test is the tentpole guarantee: under **any**
deterministic :class:`FaultPlan`, a solve completes and its selected
combinations are bit-identical to the failure-free run — recovery
changes who searches a λ-range, never the winner — and a run killed
mid-iteration resumes from its checkpoint to an identical final result.
"""

from collections import Counter

import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.core.checkpoint import load_state, solve_with_checkpoints
from repro.core.distributed import DistributedEngine, run_lease
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.solver import MultiHitSolver
from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultReport,
    FaultSpec,
    RetryPolicy,
)
from repro.scheduling.schemes import scheme_for


def signature(combos):
    return [(c.genes, round(c.f, 12), c.tp, c.tn) for c in combos]


@pytest.fixture
def instance(rng):
    t = rng.random((14, 30)) < 0.4
    n = rng.random((14, 24)) < 0.2
    return (
        BitMatrix.from_dense(t),
        BitMatrix.from_dense(n),
        FScoreParams(n_tumor=30, n_normal=24),
    )


@pytest.fixture
def cohort(rng):
    t = rng.random((12, 40)) < 0.4
    n = rng.random((12, 40)) < 0.15
    return t, n


# -- the plan itself -----------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nope", site="rank")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site="nowhere")
        # There is no pool site: a pool worker runs a rank's scan.
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(kind="crash", site="pool")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site="rank", count=0)
        # There is no gpu site: the timing model runs no kernel to fail.
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(kind="crash", site="gpu")
        # Each site takes only the kinds it acts on: membership churn is
        # no failure, and nothing sends messages a fault could drop or
        # delay.
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site="membership")
        takes = {
            "rank": {"crash", "hang", "straggler"},
            "membership": {"join", "leave"},
        }
        assert FAULT_SITES == tuple(takes)
        assert set(FAULT_KINDS) == set().union(*takes.values())
        assert len(FAULT_KINDS) == 5
        for site in FAULT_SITES:
            for kind in FAULT_KINDS:
                if kind in takes[site]:
                    FaultSpec(kind=kind, site=site)
                else:
                    with pytest.raises(ValueError):
                        FaultSpec(kind=kind, site=site)

    def test_one_shot_take(self):
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=1, at_call=0),))
        assert plan.take("rank", 1, 0).kind == "crash"
        assert plan.take("rank", 1, 0) is None  # spent

    def test_persistent_fault_keeps_firing(self):
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=2, count=-1),))
        for _ in range(5):
            assert plan.take("rank", 2) is not None

    def test_call_and_target_matching(self):
        plan = FaultPlan((FaultSpec(kind="hang", site="rank", target=0, at_call=3),))
        assert plan.take("rank", 0, 2) is None  # wrong call
        assert plan.take("rank", 1, 3) is None  # wrong target
        assert plan.take("membership", 0, 3) is None  # wrong site
        assert plan.take("rank", 0, 3) is not None

    def test_reset_rearms(self):
        plan = FaultPlan((FaultSpec(kind="crash", site="rank"),))
        assert plan.take("rank", 0) is not None
        assert plan.take("rank", 0) is None
        # Replaying the identical scenario is a fresh plan of its specs.
        assert FaultPlan(plan.specs).take("rank", 0) is not None

    def test_seeded_plan_is_reproducible(self):
        a = FaultPlan.random(seed=7, n_faults=5)
        b = FaultPlan.random(seed=7, n_faults=5)
        assert a.specs == b.specs
        assert FaultPlan.random(seed=8, n_faults=5).specs != a.specs


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(resubmits=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_exponential_backoff(self):
        policy = RetryPolicy(resubmits=3, backoff_s=0.1, backoff_factor=2.0)
        assert policy.max_attempts == 4
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            policy.backoff(0)

    def test_straggler_threshold(self):
        assert not RetryPolicy().is_straggler(100.0)
        policy = RetryPolicy(straggler_after_s=0.5)
        assert policy.is_straggler(0.6)
        assert not policy.is_straggler(0.4)


# -- the fault matrix on the one fleet engine ------------------------------


def _fleet(**kw):
    """The engine ``backend="pool"`` builds for two ranks, elastic:
    ``LEASES_PER_PULLER`` leases per rank."""
    return DistributedEngine(
        scheme=scheme_for(3, 2), n_nodes=2, gpus_per_node=1, elastic=True, **kw
    )


def _pairs(report, call=0):
    """Call ``call``'s (kind, action) multiset, less the driver's drain:
    a forfeited or expired lease goes to a surviving rank (a steal, no
    event) or, once no rank is left pulling, to the driver
    (``inline-drain``), and which comes first is up to the OS."""
    return Counter(
        (e.kind, e.action) for e in report.events
        if e.call == call and e.action != "inline-drain"
    )


class TestPoolInjection:
    """Each case runs one ``rank``-site plan once on the fleet engine:
    the winner and ``combos_scored`` are the single engine's, and the
    (kind, action) pairs are the plan's."""

    def _run(self, instance, spec, policy, calls=1):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref_counters = KernelCounters()
        ref = SingleGpuEngine(scheme=scheme).best_combo(
            tumor, normal, params, counters=ref_counters
        )
        engine = _fleet(fault_plan=FaultPlan((spec,)), retry_policy=policy)
        counters = KernelCounters()
        for _ in range(calls):
            got = engine.best_combo(tumor, normal, params, counters=counters)
        assert got == ref
        assert counters.combos_scored == calls * ref_counters.combos_scored
        return engine.report

    def test_injected_crash_bit_exact(self, instance):
        # Persistent: rank 0 forfeits its lease, and a survivor's steal
        # or the driver's drain searches it.
        report = self._run(
            instance,
            FaultSpec(kind="crash", site="rank", target=0, at_call=0, count=-1),
            RetryPolicy(),
        )
        assert _pairs(report) == Counter(
            {("crash", "detected"): 1, ("crash", "lease-forfeit"): 1}
        )
        assert report.dead_ranks == (0,)
        assert report.n_rescheduled == 1

    def test_transient_crash_recovered_by_resubmission(self, instance):
        report = self._run(
            instance,
            FaultSpec(kind="crash", site="rank", target=0, at_call=0),
            RetryPolicy(resubmits=1),
        )
        assert _pairs(report) == Counter(
            {("crash", "detected"): 1, ("crash", "resubmitted"): 1}
        )
        assert report.n_rescheduled == 0

    def test_injected_hang_recovered_by_deadline(self, instance):
        # A real silence past the lease TTL: the lease expires and is
        # searched elsewhere; the resurfacing rank's result is a dropped
        # duplicate.
        report = self._run(
            instance,
            FaultSpec(kind="hang", site="rank", target=0, at_call=0, delay_s=1.0),
            RetryPolicy(deadline_s=0.4),
        )
        assert _pairs(report) == Counter({("hang", "lease-expired"): 1})
        assert report.dead_ranks == (0,)

    def test_injected_straggler_observed_not_retried(self, instance):
        # Call 0 fills the engines' normal-hit stores (and is not
        # compared: a slow first scan may read as a straggler); the
        # straggler fires on call 1.
        report = self._run(
            instance,
            FaultSpec(kind="straggler", site="rank", target=0, at_call=1,
                      delay_s=0.3),
            RetryPolicy(straggler_after_s=0.15),
            calls=2,
        )
        assert _pairs(report, call=1) == Counter({("straggler", "observed"): 1})
        assert report.n_rescheduled == 0

    def test_solver_with_plan_matches_clean_run(self, cohort):
        t, n = cohort
        clean = MultiHitSolver(hits=2, backend="pool", n_workers=2).solve(t, n)
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", site="rank", target=0, at_call=0),
                FaultSpec(kind="crash", site="rank", target=1, at_call=1),
            )
        )
        faulty = MultiHitSolver(
            hits=2, backend="pool", n_workers=2, fault_plan=plan,
            retry_policy=RetryPolicy(resubmits=1),
        ).solve(t, n)
        assert signature(faulty.combinations) == signature(clean.combinations)
        assert faulty.uncovered == clean.uncovered
        assert faulty.counters.combos_scored == clean.counters.combos_scored
        assert faulty.fault_report is not None
        assert faulty.fault_report.n_retries == 2
        assert "FaultReport" in faulty.fault_report.describe()


class TestRunLease:
    """``run_lease`` retries an injected crash in place, then forfeits,
    and lets every exception from the search through."""

    def _ledger(self):
        from repro.cluster.leases import LeaseLedger

        ledger = LeaseLedger((0, 10))
        return ledger, ledger.acquire(0)

    def test_lost_attempt_resubmitted_then_forfeit(self):
        ledger, lease = self._ledger()
        calls = []

        def search(lease, rank, stall_s=0.0):
            calls.append(rank)
            return None, KernelCounters()

        once = FaultPlan((FaultSpec(kind="crash", site="rank", target=0),))
        report = FaultReport()
        assert run_lease(
            ledger, lease, 0, search, once, RetryPolicy(resubmits=1), report, 0
        )
        assert [(e.kind, e.action) for e in report.events] == [
            ("crash", "detected"), ("crash", "resubmitted"),
        ]
        assert ledger.done and calls == [0]

        always = FaultPlan(
            (FaultSpec(kind="crash", site="rank", target=0, count=-1),)
        )
        ledger, lease = self._ledger()
        report = FaultReport()
        assert not run_lease(
            ledger, lease, 0, search, always, RetryPolicy(resubmits=1), report, 0
        )
        assert calls == [0]  # a crashed attempt never reaches the search
        assert [(e.kind, e.action) for e in report.events] == [
            ("crash", "detected"), ("crash", "detected"),
            ("crash", "lease-forfeit"),
        ]
        # The retired holder's lease is back on the heap: barred from
        # rank 0, the next grant to any live rank.
        assert ledger.acquire(0) is None
        assert ledger.acquire(1) is lease and lease.previous_holders == [0]

    def test_other_exceptions_propagate(self):
        ledger, lease = self._ledger()

        def buggy(lease, rank, stall_s=0.0):
            raise ValueError("scan bug")

        report = FaultReport()
        with pytest.raises(ValueError, match="scan bug"):
            run_lease(
                ledger, lease, 0, buggy, None, RetryPolicy(resubmits=3),
                report, 0,
            )
        assert report.events == []


# -- distributed column --------------------------------------------------


class TestDistributedInjection:
    def _engines(self, fault_plan=None, retry_policy=None):
        kwargs = dict(scheme=scheme_for(3, 2), n_nodes=3, gpus_per_node=2)
        clean = DistributedEngine(**kwargs)
        faulty = DistributedEngine(
            **kwargs,
            fault_plan=fault_plan,
            retry_policy=retry_policy or RetryPolicy(),
        )
        return clean, faulty

    def test_persistent_rank_crash_rescheduled_bit_exact(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=1, count=-1),))
        clean, faulty = self._engines(plan)
        ref_counters, counters = KernelCounters(), KernelCounters()
        ref = clean.best_combo(tumor, normal, params, counters=ref_counters)
        got = faulty.best_combo(tumor, normal, params, counters=counters)
        assert got == ref
        assert faulty.report.n_rescheduled >= 1
        assert faulty.report.dead_ranks == (1,)
        # The rescheduled pieces are searched exactly once: counters match.
        assert counters.combos_scored == ref_counters.combos_scored

    def test_transient_crash_retried_in_place(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=0, at_call=0),))
        clean, faulty = self._engines(plan, RetryPolicy(resubmits=1))
        ref = clean.best_combo(tumor, normal, params)
        got = faulty.best_combo(tumor, normal, params)
        assert got == ref
        assert any(e.action == "resubmitted" for e in faulty.report.events)
        assert faulty.report.n_rescheduled == 0

    def test_persistent_hang_detected_and_rescheduled(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan(
            (FaultSpec(kind="hang", site="rank", target=2, count=-1, delay_s=0.12),)
        )
        # The lease TTL is the hang detector: shorter than the silence.
        clean, faulty = self._engines(plan, RetryPolicy(deadline_s=0.03))
        assert faulty.best_combo(tumor, normal, params) == clean.best_combo(
            tumor, normal, params
        )
        assert faulty.report.events[0].kind == "hang"
        assert faulty.report.dead_ranks == (2,)

    def test_straggler_observed(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan(
            (FaultSpec(kind="straggler", site="rank", target=1, delay_s=0.05),)
        )
        clean, faulty = self._engines(plan)
        assert faulty.best_combo(tumor, normal, params) == clean.best_combo(
            tumor, normal, params
        )
        assert any(
            e.kind == "straggler" and e.action == "observed"
            for e in faulty.report.events
        )
        assert faulty.report.n_rescheduled == 0

    def test_all_ranks_dead_recovers_at_root(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="crash", site="rank", target=r, count=-1)
                for r in range(3)
            )
        )
        clean, faulty = self._engines(plan)
        assert faulty.best_combo(tumor, normal, params) == clean.best_combo(
            tumor, normal, params
        )
        assert faulty.report.dead_ranks == (0, 1, 2)

    def test_solver_distributed_with_plan_matches_clean(self, cohort):
        t, n = cohort
        clean = MultiHitSolver(hits=2, backend="distributed", n_nodes=2).solve(t, n)
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=1, count=-1),))
        faulty = MultiHitSolver(
            hits=2, backend="distributed", n_nodes=2, fault_plan=plan
        ).solve(t, n)
        assert signature(faulty.combinations) == signature(clean.combinations)
        assert faulty.fault_report is not None
        assert faulty.fault_report.n_rescheduled >= 1


# -- checkpointed recovery -----------------------------------------------


class TestCheckpointedRecovery:
    def test_killed_mid_run_resumes_to_identical_result(self, cohort, tmp_path):
        t, n = cohort
        clean = MultiHitSolver(hits=2).solve(t, n)
        path = tmp_path / "run.ckpt"
        # Simulated walltime kill after two iterations.
        solve_with_checkpoints(
            MultiHitSolver(hits=2, max_iterations=2), t, n, path
        )
        assert load_state(path).n_found == 2
        resumed = solve_with_checkpoints(MultiHitSolver(hits=2), t, n, path)
        assert signature(resumed.combinations) == signature(clean.combinations)
        assert resumed.uncovered == clean.uncovered

    def test_faulty_pool_run_killed_and_resumed(self, cohort, tmp_path):
        """Injection + kill + resume composes to the clean answer."""
        t, n = cohort
        clean = MultiHitSolver(hits=2).solve(t, n)
        path = tmp_path / "run.ckpt"
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=0, at_call=0),))
        solve_with_checkpoints(
            MultiHitSolver(
                hits=2, backend="pool", n_workers=2,
                fault_plan=plan, max_iterations=1,
            ),
            t, n, path,
        )
        resumed = solve_with_checkpoints(
            MultiHitSolver(hits=2, backend="pool", n_workers=2), t, n, path
        )
        assert signature(resumed.combinations) == signature(clean.combinations)
        assert resumed.uncovered == clean.uncovered
