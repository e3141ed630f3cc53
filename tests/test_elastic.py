"""Elastic scale-out churn matrix: crash / hang / straggler x join / leave.

The contract: under **any** mid-solve membership churn — ranks joining,
draining, crashing, or going silent until their leases are stolen — the
elastic paths (:class:`ElasticSPMDRunner` called directly, behind
``DistributedEngine(elastic=True)``, and the lease-grained pool) select
bit-identical winners to the static failure-free run, and the kernel
counters close (every combination is scored exactly once on the
unpruned path).  The timing-free cells of that contract are generated in
``tests/test_distributed.py::TestDistributionMatrix``; what lives here
needs a real clock: TTL expiry, heartbeats, the wall deadline.
"""

import numpy as np
import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster.elastic import ElasticSPMDRunner, spmd_best_combo
from repro.cluster.leases import LeaseLedger
from repro.cluster.virtual import VirtualCluster
from repro.core.bounds import BoundTable
from repro.core.distributed import DistributedEngine
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.pool import PoolEngine
from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import FaultReport
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.schemes import SCHEME_3X1, scheme_for
from repro.telemetry.session import telemetry_session


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


def fleet(instance, n_ranks, n_leases=None, ttl_s=0.5, **kw):
    """One arg-max on the thread fleet over unpinned equi-area leases;
    returns ``(winner, ledger)``."""
    tumor, normal, params = instance
    ledger = LeaseLedger.build(
        SCHEME_3X1, tumor.n_genes, n_leases or 4 * n_ranks, ttl_s=ttl_s
    )
    got = spmd_best_combo(
        ledger, SCHEME_3X1, tumor, normal, params, n_ranks, **kw
    )
    return got, ledger


@pytest.fixture
def cohort(rng):
    t = rng.random((12, 40)) < 0.4
    n = rng.random((12, 40)) < 0.15
    return t, n


# -- churn plan construction ---------------------------------------------


class TestChurnPlan:
    def test_membership_kind_site_coupling(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="join", site="rank")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", site="membership")
        FaultSpec(kind="leave", site="membership", target=1)  # fine

    def test_take_churn_fires_on_progress_fraction(self):
        plan = FaultPlan(
            (
                FaultSpec(kind="leave", site="membership", target=2, delay_s=0.3),
                FaultSpec(kind="join", site="membership", target=1, delay_s=0.6),
            )
        )
        assert plan.take_churn(0, 0.1) == []
        fired = plan.take_churn(0, 0.4)
        assert [s.kind for s in fired] == ["leave"]
        assert plan.take_churn(0, 0.4) == []  # spent
        assert [s.kind for s in plan.take_churn(0, 1.0)] == ["join"]

    def test_churn_factory_shape(self):
        plan = FaultPlan.churn(10, fraction=0.2, leave_at=0.25, join_at=0.5)
        leaves = [s for s in plan.specs if s.kind == "leave"]
        joins = [s for s in plan.specs if s.kind == "join"]
        assert len(leaves) == 2  # round(10 * 0.2)
        assert sorted(s.target for s in leaves) == [8, 9]  # highest ranks
        assert len(joins) == 1 and joins[0].target == 2
        assert all(s.delay_s == 0.25 for s in leaves)
        assert joins[0].delay_s == 0.5

    def test_churn_never_drains_the_last_rank(self):
        plan = FaultPlan.churn(1, fraction=1.0)
        assert not [s for s in plan.specs if s.kind == "leave"]
        assert [s.kind for s in plan.specs] == ["join"]


# -- threaded elastic runner ---------------------------------------------


class TestElasticRunner:
    def _ref(self, instance, counters=None):
        tumor, normal, params = instance
        return SingleGpuEngine(scheme=SCHEME_3X1).best_combo(
            tumor, normal, params, counters=counters
        )

    def test_clean_run_bit_exact_with_closed_counters(self, instance):
        ref_counters = KernelCounters()
        ref = self._ref(instance, ref_counters)
        counters = KernelCounters()
        got, ledger = fleet(instance, n_ranks=3, counters=counters)
        assert got == ref
        assert counters.combos_scored == ref_counters.combos_scored
        # Heartbeats renew the grants: a healthy fleet loses no lease.
        assert ledger.n_expired == 0 and ledger.n_steals == 0

    def test_full_churn_matrix_bit_exact(self, instance):
        """crash + hang + leave + join in one solve: the worst case."""
        ref = self._ref(instance)
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", site="rank", target=1),
                FaultSpec(kind="hang", site="rank", target=2, delay_s=0.8),
                FaultSpec(kind="leave", site="membership", target=0, delay_s=0.1),
                FaultSpec(kind="join", site="membership", target=2, delay_s=0.2),
            )
        )
        report = FaultReport()
        counters = KernelCounters()
        got, _ = fleet(
            instance, n_ranks=3, fault_plan=plan, report=report,
            counters=counters, ttl_s=0.3, max_wall_s=60.0,
        )
        assert got == ref
        kinds = {e.kind for e in report.events}
        assert "crash" in kinds  # the forfeiture edge
        assert any(e.kind == "join" and e.action == "joined" for e in report.events)
        assert any(e.kind == "leave" and e.action == "drained" for e in report.events)
        # Counter closure despite churn: the unpruned grid is scored once.
        ref_counters = KernelCounters()
        self._ref(instance, ref_counters)
        assert counters.combos_scored == ref_counters.combos_scored

    def test_first_round_is_granted_in_rank_order(self):
        """Every initial rank starts on its own lease, so a fault planned
        on the last rank fires even when a search takes no time at all
        and the first thread could drain the ledger alone."""
        ledger = LeaseLedger(tuple(range(0, 90, 10)))  # 8 leases
        ran = []

        def search(lease, rank, stall_s=0.0):
            ran.append((rank, lease.lease_id))
            return None, KernelCounters()

        report = FaultReport()
        ElasticSPMDRunner(
            n_ranks=4, report=report,
            fault_plan=FaultPlan((FaultSpec(kind="crash", site="rank", target=3),)),
        ).run(ledger, search)
        assert ledger.done
        assert {(r, r) for r in range(3)} <= set(ran)
        # Rank 3 crashed on its first-round lease and a survivor stole it.
        assert 3 in report.dead_ranks
        assert ledger.leases[3].previous_holders == [3]
        assert ledger.n_steals == 1

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "unpinned"])
    def test_hung_rank_is_stolen_from(self, instance, pinned):
        """A rank silent past the TTL loses its lease — and, pinned, its
        reservations — to the survivors, who must still be around to
        take it: idle ranks wait while any grant is outstanding."""
        tumor, normal, params = instance
        schedule = equiarea_schedule(SCHEME_3X1, tumor.n_genes, 6)
        ledger = (
            LeaseLedger.from_schedule(schedule, 2, ttl_s=0.2)
            if pinned
            else LeaseLedger(schedule.boundaries, ttl_s=0.2)
        )
        # Rank 0 holds a lease from the first round, however fast its
        # peers drain the rest.
        plan = FaultPlan(
            (FaultSpec(kind="hang", site="rank", target=0, delay_s=1.0),)
        )
        report = FaultReport()
        got = spmd_best_combo(
            ledger, SCHEME_3X1, tumor, normal, params, 3,
            fault_plan=plan, report=report, max_wall_s=60.0,
        )
        assert got == self._ref(instance)
        assert ledger.n_expired >= 1 and ledger.n_steals >= 1
        assert any(e.action == "lease-expired" for e in report.events)
        assert 0 in report.dead_ranks

    def test_straggler_finishes_inside_ttl(self, instance):
        ref = self._ref(instance)
        plan = FaultPlan(
            (FaultSpec(kind="straggler", site="rank", target=0, delay_s=0.05),)
        )
        report = FaultReport()
        got, ledger = fleet(
            instance, n_ranks=2, fault_plan=plan, report=report, ttl_s=5.0
        )
        assert got == ref
        assert any(
            e.kind == "straggler" and e.action == "observed"
            for e in report.events
        )
        assert ledger.n_expired == 0  # slow is not silent

    def test_whole_fleet_dead_drained_by_driver(self, instance):
        ref = self._ref(instance)
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="crash", site="rank", target=r, count=-1)
                for r in range(2)
            )
        )
        report = FaultReport()
        got, _ = fleet(
            instance, n_ranks=2, fault_plan=plan, report=report,
            max_wall_s=60.0,
        )
        assert got == ref
        assert any(e.action == "inline-drain" for e in report.events)

    def test_runner_validation(self):
        with pytest.raises(ValueError):
            ElasticSPMDRunner(n_ranks=0)

    def test_wall_deadline_raises(self, instance):
        # A 1 s hang outlasts the 0.5 s deadline, and the rank threads
        # finish their sleep inside the runner's drain grace.
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="hang", site="rank", target=r, delay_s=1.0,
                          count=-1)
                for r in range(2)
            )
        )
        with pytest.raises(RuntimeError, match="max_wall_s"):
            fleet(
                instance, n_ranks=2, fault_plan=plan, ttl_s=60.0,
                max_wall_s=0.5,
            )


# -- elastic distributed engine ------------------------------------------


class TestElasticDistributed:
    def _engines(self, fault_plan=None, **kw):
        kwargs = dict(scheme=scheme_for(3, 2), n_nodes=3, gpus_per_node=2)
        clean = DistributedEngine(**kwargs)
        faulty = DistributedEngine(
            **kwargs, elastic=True, fault_plan=fault_plan, **kw
        )
        return clean, faulty

    def test_clean_elastic_matches_static(self, instance):
        tumor, normal, params = instance
        clean, elastic = self._engines()
        ref_counters, counters = KernelCounters(), KernelCounters()
        ref = clean.best_combo(tumor, normal, params, counters=ref_counters)
        got = elastic.best_combo(tumor, normal, params, counters=counters)
        assert got == ref
        assert counters.combos_scored == ref_counters.combos_scored

    def test_persistent_crash_steals_bit_exact(self, instance):
        tumor, normal, params = instance
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=1, count=-1),))
        clean, elastic = self._engines(plan)
        ref_counters, counters = KernelCounters(), KernelCounters()
        ref = clean.best_combo(tumor, normal, params, counters=ref_counters)
        got = elastic.best_combo(tumor, normal, params, counters=counters)
        assert got == ref
        assert any(e.action == "lease-forfeit" for e in elastic.report.events)
        assert elastic.report.n_rescheduled >= 1
        assert 1 in elastic.report.dead_ranks
        # Stolen leases are searched exactly once.
        assert counters.combos_scored == ref_counters.combos_scored

    def test_mid_solve_churn_20pct_bit_exact(self, instance):
        """The acceptance scenario: ±20% of the fleet swaps mid-solve."""
        tumor, normal, params = instance
        plan = FaultPlan.churn(3, fraction=0.34, leave_at=0.2, join_at=0.4)
        clean, elastic = self._engines(plan)
        ref = clean.best_combo(tumor, normal, params)
        got = elastic.best_combo(tumor, normal, params)
        assert got == ref
        churn = [
            (e.kind, e.action)
            for e in elastic.report.events
            if e.site == "membership"
        ]
        assert ("leave", "drained") in churn
        assert ("join", "joined") in churn

    def test_mid_solve_churn_5_nodes_pinned(self):
        """A 5-rank fleet, one rank swapped at 20 % / 40 % progress, on a
        32-gene cohort: winners and scored work equal the static fleet,
        and the lease traffic is exact for the fixed plan."""
        cohort = generate_cohort(
            CohortConfig(n_genes=32, n_tumor=100, n_normal=100, hits=3, seed=7)
        )
        t, n = cohort.tumor.values, cohort.normal.values
        static = MultiHitSolver(hits=3, backend="distributed", n_nodes=5).solve(t, n)
        with telemetry_session() as tel:
            elastic = MultiHitSolver(
                hits=3, backend="distributed", n_nodes=5, elastic=True,
                fault_plan=FaultPlan.churn(
                    5, fraction=0.2, leave_at=0.2, join_at=0.4
                ),
            ).solve(t, n)
            counters = tel.metrics.counters
        assert signature(elastic.combinations) == signature(static.combinations)
        assert len(elastic.iterations) == 13
        scored = [sum(r.combos_scored for r in x.iterations) for x in (elastic, static)]
        assert scored == [64_480, 64_480]
        assert elastic.counters.combos_scored == static.counters.combos_scored
        assert counters["lease.grants"] == 280
        assert counters.get("lease.steals", 0) == 0
        churn = {
            (e.kind, e.action)
            for e in elastic.fault_report.events
            if e.site == "membership"
        }
        assert churn == {("leave", "drained"), ("join", "joined")}

    def test_pruned_elastic_crash_matches_pruned_static(self, instance):
        tumor, normal, params = instance
        g = tumor.n_genes
        scheme = scheme_for(3, 2)
        plan = FaultPlan((FaultSpec(kind="crash", site="rank", target=0, count=-1),))
        kwargs = dict(scheme=scheme, n_nodes=3, gpus_per_node=2)
        clean = DistributedEngine(**kwargs)
        faulty = DistributedEngine(**kwargs, elastic=True, fault_plan=plan)
        ref_bounds = BoundTable.build(scheme, g)
        bounds = BoundTable.build(scheme, g)
        ref = clean.best_combo(tumor, normal, params, bounds=ref_bounds)
        got = faulty.best_combo(tumor, normal, params, bounds=bounds)
        assert got == ref
        # Each lease bounds its own slice, whoever searched it.
        assert np.isfinite(bounds.values).any()

    def test_solver_elastic_distributed_under_churn(self, cohort):
        t, n = cohort
        clean = MultiHitSolver(hits=2, backend="distributed", n_nodes=3).solve(t, n)
        plan = FaultPlan.churn(3, fraction=0.34, leave_at=0.1, join_at=0.3)
        elastic = MultiHitSolver(
            hits=2, backend="distributed", n_nodes=3,
            elastic=True, fault_plan=plan,
        ).solve(t, n)
        assert signature(elastic.combinations) == signature(clean.combinations)
        assert elastic.uncovered == clean.uncovered

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            MultiHitSolver(hits=2, elastic=True, backend="single")


# -- lease-grained pool --------------------------------------------------


class TestPoolLeases:
    def test_lease_grained_pool_bit_exact(self, instance):
        tumor, normal, params = instance
        scheme = scheme_for(3, 2)
        ref_counters = KernelCounters()
        ref = SingleGpuEngine(scheme=scheme).best_combo(
            tumor, normal, params, counters=ref_counters
        )
        counters = KernelCounters()
        with PoolEngine(scheme=scheme, n_workers=2, elastic=True) as eng:
            got = eng.best_combo(tumor, normal, params, counters=counters)
        assert got == ref
        assert counters.combos_scored == ref_counters.combos_scored

    def test_solver_elastic_pool_matches_static(self, cohort):
        t, n = cohort
        clean = MultiHitSolver(hits=2, backend="pool", n_workers=2).solve(t, n)
        elastic = MultiHitSolver(
            hits=2, backend="pool", n_workers=2, elastic=True
        ).solve(t, n)
        assert signature(elastic.combinations) == signature(clean.combinations)


# -- membership + gauges ------------------------------------------------


class TestVirtualClusterMembership:
    def test_join_extends_the_fleet_at_current_time(self):
        cluster = VirtualCluster(n_ranks=3)
        cluster.compute(np.array([5.0, 0.0, 0.0]))
        cluster.join(2)
        assert cluster.n_ranks == 5
        # A joiner's clock starts at the join time, not at zero.
        assert cluster.clock[4] == pytest.approx(cluster.elapsed_s)

    def test_leave_moves_timelines_to_departed(self):
        cluster = VirtualCluster(n_ranks=4)
        cluster.compute(np.array([0.0, 0.0, 0.0, 2.0]))
        cluster.leave([3, 1])
        assert cluster.n_ranks == 2
        assert len(cluster.departed) == 2
        assert any(t.compute_s >= 2.0 for t in cluster.departed)

    def test_leave_validation(self):
        cluster = VirtualCluster(n_ranks=2)
        with pytest.raises(ValueError):
            cluster.leave([5])
        with pytest.raises(ValueError):
            cluster.leave([0, 1])  # cannot drain the whole fleet


class TestHeartbeatGaugeHygiene:
    def test_elastic_runner_clears_stale_rank_gauges(self, instance):
        """A new world re-writes the one staleness gauge at launch, so a
        reading left by a previous world's dead rank is gone."""
        with telemetry_session() as tel:
            tel.set_gauge("spmd.heartbeat_stale_s.max", 123.0)
            fleet(instance, n_ranks=2)
            gauges = tel.metrics.gauges
        assert gauges["spmd.heartbeat_stale_s.max"] < 123.0
        assert [g for g in gauges if g.startswith("spmd.")] == [
            "spmd.heartbeat_stale_s.max"
        ]


# -- elastic scaling model (fig4 extras) ---------------------------------


class TestElasticScalingModel:
    def test_makespan_ideal_without_churn(self):
        from repro.perfmodel.scaling import simulate_elastic_makespan

        assert simulate_elastic_makespan([], 4) == 0.0
        # 8 unit leases on 4 executors: two perfect waves.
        assert simulate_elastic_makespan([1.0] * 8, 4) == pytest.approx(2.0)

    def test_leave_slows_join_recovers(self):
        from repro.perfmodel.scaling import simulate_elastic_makespan

        base = simulate_elastic_makespan([1.0] * 12, 4)
        shrunk = simulate_elastic_makespan([1.0] * 12, 4, leaves=((0.25, 2),))
        swapped = simulate_elastic_makespan(
            [1.0] * 12, 4, leaves=((0.25, 2),), joins=((0.5, 2),)
        )
        assert shrunk > base
        assert base <= swapped <= shrunk

    def test_leaves_never_drain_the_fleet(self):
        from repro.perfmodel.scaling import simulate_elastic_makespan

        # Asking every executor to leave keeps one alive: finite makespan.
        m = simulate_elastic_makespan([1.0] * 6, 2, leaves=((0.0, 5),))
        assert m == pytest.approx(6.0)

    def test_validation(self):
        from repro.perfmodel.scaling import simulate_elastic_makespan

        with pytest.raises(ValueError):
            simulate_elastic_makespan([1.0], 0)

    def test_elastic_sweep_tracks_static(self):
        from repro.perfmodel.runtime import JobModel
        from repro.perfmodel.scaling import (
            elastic_strong_scaling_sweep,
            strong_scaling_sweep,
        )
        from repro.perfmodel.workloads import ACC

        model = JobModel(scheme=SCHEME_3X1)
        static = strong_scaling_sweep(
            model, ACC, node_counts=[4, 8], baseline_nodes=4
        )
        elastic = elastic_strong_scaling_sweep(
            model, ACC, node_counts=[4, 8], baseline_nodes=4,
            churn_fraction=0.25,
        )
        assert [p.n_nodes for p in elastic] == [4, 8]
        # Work stealing under churn stays within a band of the static
        # fleet: not catastrophically slower, never absurdly faster.
        for e, s in zip(elastic, static):
            assert 0.5 * s.runtime_s <= e.runtime_s <= 1.5 * s.runtime_s

    def test_fig4_run_with_elastic_extras(self):
        from repro.experiments import fig4_scaling
        from repro.perfmodel.workloads import ACC

        r = fig4_scaling.run(
            workload=ACC,
            strong_nodes=[4, 8],
            weak_nodes=[4, 8],
            elastic_nodes=[4, 8],
            churn_fraction=0.25,
        )
        assert r.elastic is not None and r.elastic_at_max_nodes is not None
        assert r.elastic_overhead_at_max is not None
        assert "elastic strong scaling" in fig4_scaling.report(r)

    def test_fig4_run_without_elastic_is_unchanged(self):
        from repro.experiments import fig4_scaling
        from repro.perfmodel.workloads import ACC

        r = fig4_scaling.run(workload=ACC, strong_nodes=[4, 8], weak_nodes=[4, 8])
        assert r.elastic is None
        assert r.elastic_at_max_nodes is None
        assert r.elastic_overhead_at_max is None
        assert "elastic" not in fig4_scaling.report(r)


# -- flight recorder lease events ----------------------------------------


class TestLeaseFlightEvents:
    def test_steal_leaves_a_note_and_assignment_trail(self, instance, tmp_path):
        from repro.telemetry.flight import FlightRecorder

        tumor, normal, params = instance
        with telemetry_session() as tel:
            tel.attach_flight(FlightRecorder(out_dir=tmp_path))
            plan = FaultPlan(
                (FaultSpec(kind="crash", site="rank", target=1, count=-1),)
            )
            engine = DistributedEngine(
                scheme=scheme_for(3, 2), n_nodes=3, gpus_per_node=2,
                elastic=True, fault_plan=plan,
            )
            engine.best_combo(tumor, normal, params)
            notes = [
                e for e in tel.flight.timeline()
                if e.get("type") == "note" and e.get("kind") == "lease"
            ]
            assert any(e.get("event") == "steal" for e in notes)
            assert tel.flight.assignments().get("lease")


class TestCausalUnderChurn:
    """Cross-rank span absorption keeps the causal graph sound.

    Ranks churn (crash / hang / leave / join) while their spans are
    absorbed into one session tracer; the causal layer promises the
    merged graph stays well-formed: ``(pid, span_id)`` unique, every
    recorded link resolving to a recorded span, steal edges crossing
    rank timelines, and the reduce anchored to every lease completion.
    """

    def test_edges_survive_full_churn_matrix(self, instance):
        tumor, normal, params = instance
        ref = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(
            tumor, normal, params
        )
        # Membership delay_s is a completed-lease fraction: the join
        # lands early (0.2) and the leave late (0.6), so live ranks are
        # around to steal the crashed rank's forfeited lease — the
        # lowest available id, regranted within one acquire round.
        plan = FaultPlan(
            (
                FaultSpec(kind="crash", site="rank", target=1),
                FaultSpec(kind="hang", site="rank", target=2, delay_s=0.8),
                FaultSpec(kind="join", site="membership", target=2,
                          delay_s=0.2),
                FaultSpec(kind="leave", site="membership", target=0,
                          delay_s=0.6),
            )
        )
        with telemetry_session() as tel:
            got, _ = fleet(
                instance, n_ranks=3, fault_plan=plan, report=FaultReport(),
                ttl_s=0.3, max_wall_s=60.0,
            )
        assert got == ref

        spans = tel.tracer.export()
        keys = [(s["pid"], s["id"]) for s in spans]
        assert len(keys) == len(set(keys))  # absorption never collides
        by_key = dict(zip(keys, spans))
        for span in spans:
            for link in span.get("links") or ():
                assert (link["pid"], link["id"]) in by_key, (
                    f"dangling {link['kind']} edge from {span['name']}"
                )

        # Forfeited leases (crash + expired hang) leave steal edges.  A
        # hung rank may resurface and reclaim its own expired lease (a
        # self-steal), but the crash forfeiture must have crossed rank
        # timelines, and every victim context predates its thief.
        steals = [
            (span, by_key[(link["pid"], link["id"])])
            for span in spans
            for link in span.get("links") or ()
            if link["kind"] == "steal"
        ]
        assert steals
        assert any(
            victim.get("rank") == 1 and thief.get("rank") != 1
            for thief, victim in steals
        ), "crashed rank's lease was not stolen cross-rank"
        for thief, victim in steals:
            assert victim["start_ns"] <= thief["end_ns"]

        # The reduce depends on every lease completion, and the
        # completions span more than one surviving rank.
        reduce_span = next(s for s in spans if s["name"] == "reduce")
        completes = [
            link for link in reduce_span["links"]
            if link["kind"] == "complete"
        ]
        assert completes
        complete_ranks = {
            by_key[(l["pid"], l["id"])].get("rank") for l in completes
        }
        assert len(complete_ranks) >= 2
