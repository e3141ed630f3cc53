"""Fault-injection matrix: crash / hang / straggler across the pool,
distributed, and gpusim layers.

The contract under test is the tentpole guarantee: under **any**
deterministic :class:`FaultPlan`, a solve completes and its selected
combinations are bit-identical to the failure-free run — recovery
changes who searches a λ-range, never the winner — and a run killed
mid-iteration resumes from its checkpoint to an identical final result.
"""

import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.core.checkpoint import load_state, solve_with_checkpoints
from repro.core.distributed import DistributedEngine
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.pool import PoolDegradedWarning, PoolEngine
from repro.core.solver import MultiHitSolver
from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjected,
    FaultPlan,
    FaultReport,
    FaultSpec,
    RetryPolicy,
)
from repro.gpusim.executor import BlockKernelExecutor
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
            FaultSpec(kind="nope", site="pool")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site="nowhere")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site="pool", count=0)
        # Each site takes only the kinds it acts on: a gpu block cannot
        # hang, and nothing sends messages a fault could drop or delay.
        with pytest.raises(ValueError):
            FaultSpec(kind="hang", site="gpu")
        takes = {
            "pool": {"crash", "hang", "straggler"},
            "rank": {"crash", "hang", "straggler"},
            "gpu": {"crash", "straggler"},
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
        plan = FaultPlan((FaultSpec(kind="crash", site="pool", target=1, at_call=0),))
        assert plan.take("pool", 1, 0).kind == "crash"
        assert plan.take("pool", 1, 0) is None  # spent
        assert plan.n_pending == 0

    def test_persistent_fault_keeps_firing(self):
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=2, count=-1),))
        for _ in range(5):
            assert plan.take("rank", 2) is not None
        assert plan.n_pending == 1

    def test_call_and_target_matching(self):
        plan = FaultPlan((FaultSpec(kind="hang", site="pool", target=0, at_call=3),))
        assert plan.take("pool", 0, 2) is None  # wrong call
        assert plan.take("pool", 1, 3) is None  # wrong target
        assert plan.take("rank", 0, 3) is None  # wrong site
        assert plan.take("pool", 0, 3) is not None

    def test_reset_rearms(self):
        plan = FaultPlan((FaultSpec(kind="crash", site="pool"),))
        assert plan.take("pool", 0) is not None
        assert plan.take("pool", 0) is None
        plan.reset()
        assert plan.take("pool", 0) is not None

    def test_seeded_plan_is_reproducible(self):
        a = FaultPlan.random(seed=7, n_faults=5)
        b = FaultPlan.random(seed=7, n_faults=5)
        assert a.specs == b.specs
        assert FaultPlan.random(seed=8, n_faults=5).specs != a.specs

    def test_describe(self):
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", count=-1),))
        text = plan.describe()
        assert "crash" in text and "persistent" in text


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


# -- pool column of the matrix -------------------------------------------


class TestPoolInjection:
    def _ref(self, instance, scheme):
        tumor, normal, params = instance
        return SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)

    def test_injected_crash_bit_exact(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref = self._ref(instance, scheme)
        plan = FaultPlan((FaultSpec(kind="crash", site="pool", target=0, at_call=0),))
        with PoolEngine(scheme=scheme, n_workers=2, fault_plan=plan) as eng:
            with pytest.warns(PoolDegradedWarning):
                got = eng.best_combo(tumor, normal, params)
            assert got == ref
            assert eng.report.n_detected >= 1
            assert eng.report.events[0].kind == "crash"
            assert any(e.action == "inline-retry" for e in eng.report.events)

    def test_transient_crash_recovered_by_resubmission(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref = self._ref(instance, scheme)
        plan = FaultPlan((FaultSpec(kind="crash", site="pool", target=0, at_call=0),))
        policy = RetryPolicy(resubmits=1)
        with PoolEngine(
            scheme=scheme, n_workers=2, fault_plan=plan, retry_policy=policy
        ) as eng:
            with pytest.warns(PoolDegradedWarning):
                got = eng.best_combo(tumor, normal, params)
            assert got == ref
            assert any(e.action == "resubmitted" for e in eng.report.events)
            assert not any(e.action == "inline-retry" for e in eng.report.events)

    def test_injected_hang_recovered_by_deadline(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(2, 1)
        ref = self._ref(instance, scheme)
        plan = FaultPlan(
            (FaultSpec(kind="hang", site="pool", target=0, at_call=0, delay_s=10.0),)
        )
        policy = RetryPolicy(deadline_s=0.3)
        with PoolEngine(
            scheme=scheme, n_workers=2, fault_plan=plan, retry_policy=policy
        ) as eng:
            with pytest.warns(PoolDegradedWarning):
                got = eng.best_combo(tumor, normal, params)
            assert got == ref
            assert eng.report.events[0].kind == "hang"

    def test_injected_straggler_observed_not_retried(self, instance):
        import warnings as _warnings

        tumor, normal, params = instance
        scheme = scheme_for(2, 1)
        ref = self._ref(instance, scheme)
        plan = FaultPlan(
            (FaultSpec(kind="straggler", site="pool", target=0, delay_s=0.15),)
        )
        policy = RetryPolicy(straggler_after_s=0.05)
        with PoolEngine(
            scheme=scheme, n_workers=2, fault_plan=plan, retry_policy=policy
        ) as eng:
            with _warnings.catch_warnings(record=True) as caught:
                _warnings.simplefilter("always")
                got = eng.best_combo(tumor, normal, params)
            assert got == ref
            assert not [
                w for w in caught if issubclass(w.category, PoolDegradedWarning)
            ]
            stragglers = [e for e in eng.report.events if e.kind == "straggler"]
            assert stragglers and stragglers[0].action == "observed"

    def test_solver_with_plan_matches_clean_run(self, cohort):
        t, n = cohort
        clean = MultiHitSolver(hits=2, backend="pool", n_workers=2).solve(t, n)
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", site="pool", target=0, at_call=0),
                FaultSpec(kind="crash", site="pool", target=1, at_call=1),
            )
        )
        with pytest.warns(PoolDegradedWarning):
            faulty = MultiHitSolver(
                hits=2, backend="pool", n_workers=2, fault_plan=plan
            ).solve(t, n)
        assert signature(faulty.combinations) == signature(clean.combinations)
        assert faulty.uncovered == clean.uncovered
        assert faulty.fault_report is not None
        assert faulty.fault_report.n_retries >= 1
        assert "FaultReport" in faulty.fault_report.describe()


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


# -- gpusim column -------------------------------------------------------


class TestGpusimInjection:
    def test_straggler_scales_cycles_not_winner(self, instance):
        tumor, normal, params = instance
        clean = BlockKernelExecutor(scheme=scheme_for(2, 1)).launch(
            tumor, normal, params
        )
        plan = FaultPlan(
            (FaultSpec(kind="straggler", site="gpu", target=0, slowdown=3.0),)
        )
        report = FaultReport()
        slow = BlockKernelExecutor(
            scheme=scheme_for(2, 1), fault_plan=plan, report=report
        ).launch(tumor, normal, params)
        assert slow.winner == clean.winner
        assert slow.blocks[0].cycles == pytest.approx(clean.blocks[0].cycles * 3.0)
        for fast, ref in zip(slow.blocks[1:], clean.blocks[1:]):
            assert fast.cycles == pytest.approx(ref.cycles)
        assert any(e.site == "gpu" for e in report.events)

    def test_device_crash_raises(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan((FaultSpec(kind="crash", site="gpu", target=0),))
        with pytest.raises(FaultInjected):
            BlockKernelExecutor(scheme=scheme_for(2, 1), fault_plan=plan).launch(
                tumor, normal, params
            )


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
        plan = FaultPlan((FaultSpec(kind="crash", site="pool", target=0, at_call=0),))
        with pytest.warns(PoolDegradedWarning):
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
