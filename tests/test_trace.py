"""Tests for the virtual cluster's timeline: ordinary telemetry spans.

A ``VirtualCluster(trace=True)`` records span dicts in the shape
``Tracer.export()`` produces, so every fact below is asserted through
the same analyzer (`repro.telemetry.critpath`) a real run goes through.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import NetworkModel
from repro.cluster.virtual import HOST_SERIAL, VirtualCluster
from repro.telemetry import Telemetry, chrome_trace, validate_chrome_trace, write_jsonl
from repro.telemetry.critpath import (
    analyze_trace,
    attribute_time,
    classify_span,
    critical_path,
)


def make(n=3, trace=True):
    return VirtualCluster(
        n_ranks=n,
        network=NetworkModel(latency_s=1e-6, bandwidth_bps=1e9,
                             per_rank_software_overhead_s=0.0),
        trace=trace,
    )


def lane(vc, rank):
    return [s for s in vc.spans if s["tid"] == rank]


def assert_lanes_match_timelines(vc):
    """Per rank id: compute + idle == compute_s, comm_wait == comm_s."""
    report = attribute_time(vc.spans)
    lanes = {row["tid"]: row["buckets"] for row in report["lanes"]}
    lines = vc.timelines + vc.departed
    assert len({line.rank for line in lines}) == len(lines)
    assert set(lanes) <= {line.rank for line in lines}
    for line in lines:
        got = lanes.get(line.rank, {"compute": 0.0, "idle": 0.0, "comm_wait": 0.0})
        assert got["compute"] + got["idle"] == pytest.approx(
            line.compute_s, rel=1e-6, abs=1e-8
        )
        assert got["comm_wait"] == pytest.approx(line.comm_s, rel=1e-6, abs=1e-8)
    return report


class TestTracing:
    def test_events_recorded_per_phase(self):
        vc = make(2)
        vc.compute(np.array([1.0, 2.0]))
        vc.reduce_to_root(20)
        vc.bcast_from_root(40)
        vc.compute(np.array([0.5, 0.5]), name=HOST_SERIAL)
        names = [s["name"] for s in vc.spans]
        for name in ("compute", "reduce", "bcast", HOST_SERIAL):
            assert names.count(name) == 2
        buckets = {s["name"]: classify_span(s) for s in vc.spans}
        assert buckets == {
            "compute": "compute",
            "reduce": "comm_wait",
            "bcast": "comm_wait",
            HOST_SERIAL: "idle",
        }

    def test_event_intervals_consistent(self):
        vc = make(2)
        vc.compute(np.array([1.0, 3.0]))
        vc.reduce_to_root(20)
        for s in vc.spans:
            assert s["end_ns"] >= s["start_ns"]
            assert s["rank"] == s["tid"]
        # Rank lanes are contiguous: compute end == reduce start.
        r0 = lane(vc, 0)
        assert r0[0]["start_ns"] == 0 and r0[0]["end_ns"] == 1_000_000_000
        assert r0[0]["end_ns"] == r0[1]["start_ns"]

    def test_critical_path_compute_is_straggler(self):
        vc = make(3)
        vc.compute(np.array([1.0, 5.0, 2.0]))
        vc.reduce_to_root(20)
        path = critical_path(vc.spans)
        computes = [s for s in path["segments"] if s["bucket"] == "compute"]
        assert [s["rank"] for s in computes] == [1]
        assert computes[0]["dur_s"] == pytest.approx(5.0)
        assert path["coverage"] == pytest.approx(1.0)
        # Every reduce is caused by the straggler's compute span.
        straggler = lane(vc, 1)[0]["id"]
        for s in vc.spans:
            if s["name"] == "reduce":
                assert s["links"][0] == {"pid": s["pid"], "id": straggler,
                                         "kind": "message"}

    def test_wait_time_sums_gaps(self):
        vc = make(3)
        vc.compute(np.array([1.0, 5.0, 2.0]))
        vc.reduce_to_root(20)
        wire = vc.network.tree_reduce_time(3, 20)
        waited = attribute_time(vc.spans)["buckets"]["comm_wait"]
        assert waited == pytest.approx((5 - 1) + (5 - 2) + 3 * wire)

    def test_iteration_counter(self):
        vc = make(2)
        vc.compute(np.array([1.0, 1.0]))
        vc.iteration += 1
        vc.compute(np.array([1.0, 1.0]))
        assert [s["attrs"]["iteration"] for s in vc.spans] == [0, 0, 1, 1]
        # The second compute follows the first on the same lane.
        first, second = lane(vc, 1)
        assert second["links"] == [{"pid": first["pid"], "id": first["id"],
                                    "kind": "causal"}]

    def test_empty_trace(self):
        vc = make(2)
        assert vc.spans == []
        report = analyze_trace(vc.spans)
        assert report["span_count"] == 0
        assert report["critical_path"]["segments"] == []
        assert report["attribution"]["total_s"] == 0.0
        assert report["dominant_loss"] is None

    def test_virtual_cluster_semantics_preserved(self):
        plain, traced = make(3, trace=False), make(3)
        for vc in (plain, traced):
            vc.compute(np.array([1.0, 2.0, 3.0]))
            vc.reduce_to_root(20)
            vc.leave([0])
            vc.join(1)
            vc.compute(np.array([1.0, 2.0, 3.0]))
            vc.bcast_from_root(64)
        np.testing.assert_array_equal(plain.clock, traced.clock)
        assert plain.timelines == traced.timelines
        assert plain.departed == traced.departed
        assert plain.spans is None

    def test_rank_identity_survives_leave_and_join(self):
        """Regression: survivors were re-filed under their new index, so
        after ``leave([0])`` lane 0 mixed two physical ranks, and a
        joiner reused a departed id."""
        vc = make(3)
        vc.compute(np.array([1.0, 2.0, 3.0]))
        vc.reduce_to_root(20)
        vc.leave([0])
        vc.join(1)
        joined_at = vc.elapsed_s
        vc.compute(np.array([4.0, 5.0, 6.0]))
        assert [line.rank for line in vc.timelines] == [1, 2, 3]
        assert [line.rank for line in vc.departed] == [0]
        assert {s["tid"] for s in vc.spans} == {0, 1, 2, 3}
        for rank in range(4):
            spans = lane(vc, rank)
            for a, b in zip(spans, spans[1:]):
                assert a["end_ns"] == b["start_ns"]
        assert [s["name"] for s in lane(vc, 0)] == ["compute", "reduce"]
        joiner = lane(vc, 3)
        assert len(joiner) == 1 and "links" not in joiner[0]
        assert joiner[0]["start_ns"] == round(joined_at * 1e9)
        assert_lanes_match_timelines(vc)


_OPS = st.one_of(
    st.tuples(st.sampled_from(["compute", HOST_SERIAL]), st.integers(0, 2**31)),
    st.tuples(st.sampled_from(["reduce", "bcast"]), st.integers(0, 1 << 20)),
    st.tuples(st.just("join"), st.integers(1, 3)),
    st.tuples(st.just("leave"), st.integers(0, 2**31)),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), ops=st.lists(_OPS, max_size=14))
def test_lane_buckets_match_timelines(n, ops):
    """Any compute / collective / join / leave sequence: the analyzer's
    per-lane buckets are the ``RankTimeline`` sums, the buckets close and
    the critical path tiles the window."""
    vc = VirtualCluster(n_ranks=n, trace=True)
    for kind, arg in ops:
        if kind in ("compute", HOST_SERIAL):
            rng = np.random.default_rng(arg)
            vc.compute(rng.uniform(0.01, 100.0, vc.n_ranks), name=kind)
        elif kind == "reduce":
            vc.reduce_to_root(arg)
        elif kind == "bcast":
            vc.bcast_from_root(arg)
        elif kind == "join":
            vc.join(arg)
        elif vc.n_ranks > 1:
            rng = np.random.default_rng(arg)
            gone = rng.choice(vc.n_ranks, int(rng.integers(1, vc.n_ranks)), False)
            vc.leave([int(r) for r in gone])
        vc.iteration += 1
    report = assert_lanes_match_timelines(vc)
    assert report["closure"] == pytest.approx(1.0, abs=1e-6)
    if any(s["end_ns"] > s["start_ns"] for s in vc.spans):
        assert critical_path(vc.spans)["coverage"] >= 0.999


def test_simulated_job_round_trips_through_trace_cli(tmp_path, capsys):
    """JobModel spans -> Telemetry -> JSONL -> ``multihit trace analyze``."""
    from repro.cli import main
    from repro.perfmodel.runtime import JobModel
    from repro.perfmodel.workloads import ACC
    from repro.scheduling.schemes import SCHEME_3X1

    job = JobModel(scheme=SCHEME_3X1).run(ACC, 3, trace=True)
    telemetry = Telemetry()
    telemetry.tracer.absorb(job.spans)
    assert telemetry.tracer.export() == job.spans
    path = write_jsonl(tmp_path / "simulated.jsonl", telemetry)
    assert main(["trace", "analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro.telemetry.critpath/v1"
    assert report["span_count"] == len(job.spans) == 12 * 3 * 4
    assert report["dominant_loss"] == "comm_wait"
    assert report["attribution"]["closure"] == pytest.approx(1.0, abs=1e-6)
    assert validate_chrome_trace(chrome_trace(telemetry)) > len(job.spans)
