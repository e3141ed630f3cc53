"""Tests for the flight recorder: ring semantics and black-box dumps.

The operational promises:

* the ring is bounded (oldest events evicted) and thread-safe;
* a rank crash produces a dump carrying the failed rank's final spans,
  the fault report, and the λ-ranges rescheduled onto survivors;
* the pool's first degradation and an unhandled solver exception each
  leave a black box;
* dumps are atomic, schema-stamped, and capped by ``max_dumps``;
* a session without a recorder behaves exactly as before (no listener).
"""

import json
import warnings

import pytest

from repro.core.solver import MultiHitSolver
from repro.faults.plan import FaultPlan, FaultSpec
from repro.telemetry import FLIGHT_SCHEMA, FlightRecorder, telemetry_session


def _plan(site, target=0, at_call=1, kind="crash", **kw):
    return FaultPlan([FaultSpec(kind=kind, site=site, target=target,
                                at_call=at_call, **kw)])


class TestRing:
    def test_capacity_evicts_oldest(self, tmp_path):
        fr = FlightRecorder(out_dir=tmp_path, capacity=3)
        for i in range(5):
            fr.note("tick", i=i)
        timeline = fr.timeline()
        assert len(timeline) == 3
        assert [e["i"] for e in timeline] == [2, 3, 4]
        # seq keeps counting past evictions (a post-mortem can tell how
        # much history the ring dropped).
        assert [e["seq"] for e in timeline] == [2, 3, 4]

    def test_span_listener_feeds_ring(self, tmp_path):
        fr = FlightRecorder(out_dir=tmp_path)
        with telemetry_session() as tel:
            tel.attach_flight(fr)
            with tel.span("work", cat="test"):
                pass
        events = [e for e in fr.timeline() if e["type"] == "span"]
        assert [e["name"] for e in events] == ["work"]

    def test_detach_uninstalls_listener(self, tmp_path):
        fr = FlightRecorder(out_dir=tmp_path)
        with telemetry_session() as tel:
            tel.attach_flight(fr)
            tel.attach_flight(None)
            assert tel.tracer.listener is None
            with tel.span("quiet", cat="test"):
                pass
        assert fr.timeline() == []

    def test_dump_cap(self, tmp_path):
        fr = FlightRecorder(out_dir=tmp_path, max_dumps=2)
        assert fr.dump("one") is not None
        assert fr.dump("two") is not None
        assert fr.dump("three") is None
        assert len(list(tmp_path.glob("blackbox-*.json"))) == 2

    def test_dump_is_schema_stamped_and_atomic(self, tmp_path):
        fr = FlightRecorder(out_dir=tmp_path / "deep" / "dir")
        fr.note("hello", x=1)
        path = fr.dump("unit test!")
        assert path is not None and path.exists()
        assert "unit-test" in path.name  # reason slugged into the name
        payload = json.loads(path.read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["timeline"][-1]["kind"] == "hello"
        # No tmp litter from the atomic write.
        assert list(path.parent.glob("*.tmp")) == []


class TestRankCrashDump:
    def test_distributed_reschedule_dump(self, tmp_path, small_matrices):
        """A dead rank's dump names the rank, its spans, and the λ-ranges
        survivors stole — the ISSUE's acceptance scenario."""
        t, n, _ = small_matrices
        fr = FlightRecorder(out_dir=tmp_path)
        with telemetry_session() as tel:
            tel.attach_flight(fr)
            result = MultiHitSolver(
                hits=2, backend="distributed", n_nodes=2,
                fault_plan=_plan("rank", target=0, at_call=1),
            ).solve(t, n)
        assert result.fault_report.dead_ranks == (0,)
        dumps = sorted(tmp_path.glob("blackbox-*.json"))
        assert dumps, "no black box written for a rescheduled rank"
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "lease-churn"

        report = payload["fault_report"]
        assert report["dead_ranks"] == [0]
        assert report["n_detected"] >= 1
        # Every rescheduled λ-range is present with a survivor owner.
        assert report["rescheduled"]
        for r in report["rescheduled"]:
            assert r["dead_rank"] == 0
            assert r["survivor"] != 0
            assert r["lam_end"] > r["lam_start"]

        # The ring holds the crash detection and the reschedule notes...
        kinds = {(e["type"], e.get("kind")) for e in payload["timeline"]}
        assert ("fault", "crash") in kinds
        assert ("note", "reschedule") in kinds
        # ...and the assignments say whose partitions moved to whom.
        rows = payload["assignments"]["lease"]
        assert {row["owner"] for row in rows} == {0, 1}
        moved = [row for row in rows if row["owner"] == 0]
        assert moved and all(row["state"] == "completed" for row in moved)
        assert all(row["previous_holders"] in ([], [0]) for row in moved)

    def test_fleet_churn_dump_names_moved_partitions(self, rng, tmp_path):
        """A *survived* failure on the thread fleet dumps with the lease
        table saying whose partitions moved to whom."""
        from repro.bitmatrix.matrix import BitMatrix
        from repro.cluster import LeaseLedger, spmd_best_combo
        from repro.core.fscore import FScoreParams
        from repro.faults.report import FaultReport
        from repro.scheduling.equiarea import equiarea_schedule
        from repro.scheduling.schemes import SCHEME_3X1

        t = BitMatrix.from_dense(rng.random((14, 30)) < 0.4)
        n = BitMatrix.from_dense(rng.random((14, 30)) < 0.1)
        params = FScoreParams(n_tumor=30, n_normal=30)
        schedule = equiarea_schedule(SCHEME_3X1, 14, 4)

        def solve(**kw):
            return spmd_best_combo(
                LeaseLedger.from_schedule(schedule, 2), SCHEME_3X1, t, n,
                params, 2, **kw,
            )

        report = FaultReport()
        fr = FlightRecorder(out_dir=tmp_path)
        with telemetry_session() as tel:
            tel.attach_flight(fr)
            clean = solve()
            assert list(tmp_path.glob("blackbox-*.json")) == []
            got = solve(
                fault_plan=_plan("rank", target=0, at_call=0), report=report
            )
        assert got == clean  # recovery is bit-identical
        churn = [
            json.loads(p.read_text())
            for p in sorted(tmp_path.glob("blackbox-*.json"))
            if "lease-churn" in p.name
        ]
        assert churn, "no lease-churn black box"
        payload = churn[0]
        moved = [r for r in payload["assignments"]["lease"] if r["owner"] == 0]
        assert moved and all(r["state"] == "completed" for r in moved)
        assert all(r["previous_holders"] in ([], [0]) for r in moved)
        ranges = payload["fault_report"]["rescheduled"]
        assert {(r["dead_rank"], r["survivor"]) for r in ranges} == {(0, 1)}
        assert len(ranges) == len(moved)


class TestPoolAndSolverDumps:
    def test_pool_degraded_dump(self, tmp_path, small_matrices):
        t, n, _ = small_matrices
        fr = FlightRecorder(out_dir=tmp_path)
        with telemetry_session() as tel:
            tel.attach_flight(fr)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                MultiHitSolver(
                    hits=2, backend="pool", n_workers=2,
                    fault_plan=_plan("pool", target=0, at_call=1),
                ).solve(t, n)
        names = [p.name for p in sorted(tmp_path.glob("blackbox-*.json"))]
        assert any("pool-degraded" in name for name in names)

    def test_solver_exception_dump(self, tmp_path, small_matrices):
        t, n, _ = small_matrices
        fr = FlightRecorder(out_dir=tmp_path)

        boom = RuntimeError("mid-solve failure")

        def explode(_state):
            raise boom

        with telemetry_session() as tel:
            tel.attach_flight(fr)
            with pytest.raises(RuntimeError, match="mid-solve"):
                MultiHitSolver(hits=2).solve(t, n, on_iteration=explode)
        dumps = sorted(tmp_path.glob("blackbox-*.json"))
        assert dumps
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "solver-exception"
        assert payload["exception"]["message"] == "mid-solve failure"
        # The registry snapshot rode along.  ``kernel.*`` is only
        # absorbed at end of solve (never reached here); the live
        # ``progress.*`` feed is what a mid-solve post-mortem carries.
        assert payload["metrics"]["counters"]["progress.combos_scored"] > 0

    def test_no_dump_without_fault(self, tmp_path, small_matrices):
        t, n, _ = small_matrices
        fr = FlightRecorder(out_dir=tmp_path)
        with telemetry_session() as tel:
            tel.attach_flight(fr)
            MultiHitSolver(hits=2, backend="pool", n_workers=2).solve(t, n)
        assert list(tmp_path.glob("blackbox-*.json")) == []
        # The ring still has the run's history, ready had anything died.
        assert any(e["type"] == "span" for e in fr.timeline())
