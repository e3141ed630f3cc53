"""Tests for end-to-end causal tracing (repro.telemetry.causal/critpath).

The invariants the causal layer promises:

* contexts are plain dicts minted only by enabled sessions; every
  ``link``-shaped API is a no-op on ``None`` so call sites never branch
  on enabled/disabled;
* stolen-lease searches link the victim via ``steal`` edges, and the
  reduce links every lease completion via ``complete`` edges;
* ``(pid, span_id)`` stays unique, and every recorded link resolves to
  a recorded span (edge integrity);
* the critical-path extractor tiles the trace window (coverage >= 0.95
  on real traces) and threads across ranks through causal edges;
* per-bucket attribution closes against total rank-seconds within 1%;
* winners are bit-identical with tracing on vs off (the acceptance
  criterion) — contexts observe scheduling, never influence it.
"""

import json
import os

import pytest

from repro.bitmatrix.matrix import BitMatrix
from repro.cli import main
from repro.cluster import LeaseLedger, spmd_best_combo
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.core.solver import MultiHitSolver
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import FaultReport
from repro.scheduling.schemes import SCHEME_3X1
from repro.telemetry import (
    NOOP_SPAN,
    Stopwatch,
    Telemetry,
    analyze_trace,
    attribute_time,
    classify_span,
    critical_path,
    dominant_loss,
    format_report,
    get_telemetry,
    load_trace,
    telemetry_session,
    write_jsonl,
)
from repro.telemetry.spans import Span


# ---------------------------------------------------------------------------
# context propagation API


class TestContexts:
    def test_enabled_context_shape(self):
        tel = Telemetry()
        assert tel.context() is None  # no span open
        with tel.span("work", cat="t") as span:
            ctx = tel.context()
        assert ctx == {"trace": tel.trace_id, "pid": os.getpid(), "id": span.span_id}

    def test_disabled_context_is_none_and_mints_no_trace(self):
        tel = Telemetry(enabled=False)
        assert tel.trace_id is None
        assert tel.context() is None
        with tel.span("work"):
            assert tel.context() is None

    def test_noop_and_stopwatch_link_return_self(self):
        assert NOOP_SPAN.link({"pid": 1, "id": 2}) is NOOP_SPAN
        sw = Stopwatch()
        assert sw.link({"pid": 1, "id": 2}) is sw

    def test_link_none_records_nothing(self):
        tel = Telemetry()
        with tel.span("a") as span:
            span.link(None)
        assert span.links is None  # lazy list never allocated

    def test_span_dict_roundtrips_trace_and_links(self):
        tel = Telemetry()
        with tel.span("a") as span:
            span.link({"trace": tel.trace_id, "pid": 7, "id": 9}, kind="message")
        d = span.to_dict()
        assert d["trace"] == tel.trace_id
        assert d["links"] == [{"pid": 7, "id": 9, "kind": "message"}]
        back = Span.from_dict(json.loads(json.dumps(d)))
        assert back.trace_id == tel.trace_id
        assert back.links == [{"pid": 7, "id": 9, "kind": "message"}]

    def test_context_resolves_installed_session(self):
        with telemetry_session() as tel:
            with tel.span("work") as span:
                ctx = get_telemetry().context()
            assert ctx["id"] == span.span_id
        assert get_telemetry().context() is None  # NULL session after exit


def _edge_integrity(spans):
    """Every recorded link must resolve to a recorded span."""
    keys = {(s["pid"], s["id"]) for s in spans}
    assert len(keys) == len(spans), "duplicate (pid, span_id)"
    for s in spans:
        for link in s.get("links") or ():
            assert (link["pid"], link["id"]) in keys, (s["name"], link)


# ---------------------------------------------------------------------------
# rank lanes of the distributed backend


class TestDistributedLanes:
    def test_traced_solve_has_one_lane_per_rank(self, small_matrices):
        """``backend="distributed"`` runs its ranks on threads: the lease
        searches of a traced solve sit on several lanes, and attribution
        still closes over them."""
        t, n, _params = small_matrices
        solver = MultiHitSolver(hits=2, backend="distributed", n_nodes=3)
        with telemetry_session() as tel:
            solver.solve(t, n)
        spans = tel.tracer.export()
        _edge_integrity(spans)
        searches = [s for s in spans if s["name"] == "lease.search"]
        assert len({s["tid"] for s in searches}) >= 2
        assert analyze_trace(spans)["attribution"]["closure"] >= 0.99


# ---------------------------------------------------------------------------
# critical path + attribution units (synthetic traces)


def _mk(name, pid, sid, t0, t1, tid=0, parent=None, links=None, cat="t",
        rank=None, attrs=None):
    d = {
        "name": name, "cat": cat, "id": sid, "pid": pid, "tid": tid,
        "start_ns": t0, "end_ns": t1,
    }
    if parent is not None:
        d["parent"] = parent
    if links:
        d["links"] = links
    if rank is not None:
        d["rank"] = rank
    if attrs:
        d["attrs"] = attrs
    return d


class TestCriticalPath:
    def test_empty_trace(self):
        cp = critical_path([])
        assert cp["length_s"] == 0.0 and cp["segments"] == []

    def test_single_span_covers_window(self):
        cp = critical_path([_mk("solve", 1, 1, 0, 1_000_000_000)])
        assert cp["coverage"] == pytest.approx(1.0)
        assert cp["length_s"] == pytest.approx(1.0)

    def test_nested_spans_tile_without_overlap(self):
        spans = [
            _mk("solve", 1, 1, 0, 100),
            _mk("iter", 1, 2, 10, 50, parent=1),
            _mk("iter", 1, 3, 60, 90, parent=1),
        ]
        cp = critical_path(spans)
        assert cp["coverage"] == pytest.approx(1.0)
        for a, b in zip(cp["segments"], cp["segments"][1:]):
            assert b["t0_ns"] >= a["t1_ns"]  # no double counting

    def test_path_crosses_lanes_through_message_link(self):
        # Lane A: recv blocks [0, 80]; lane B: the send that unblocks it
        # ends at 70.  The path must descend into lane B's work.
        spans = [
            _mk("comm.recv", 1, 1, 0, 80, tid=1, cat="comm",
                links=[{"pid": 1, "id": 2, "kind": "message"}]),
            _mk("comm.send", 1, 2, 65, 70, tid=2, cat="comm", parent=3),
            _mk("work", 1, 3, 0, 75, tid=2),
        ]
        cp = critical_path(spans)
        names_on_path = {seg["name"] for seg in cp["segments"]}
        assert "work" in names_on_path  # threaded into the sender's lane
        assert cp["coverage"] >= 0.95

    def test_steal_link_reaches_victim(self):
        spans = [
            _mk("spmd.rank", 1, 1, 0, 40, tid=1, rank=0),
            _mk("lease.search", 1, 2, 50, 100, tid=2, rank=1,
                attrs={"stolen": True},
                links=[{"pid": 1, "id": 1, "kind": "steal"}]),
        ]
        cp = critical_path(spans)
        ranks_on_path = {seg["rank"] for seg in cp["segments"] if seg["rank"] is not None}
        assert ranks_on_path == {0, 1}

    def test_deep_chain_no_recursion_limit(self):
        # 5000 chained message hops: an explicit work stack or bust.
        spans = []
        for i in range(5000):
            links = [{"pid": 1, "id": i, "kind": "message"}] if i else None
            spans.append(_mk("hop", 1, i + 1, i * 10, i * 10 + 15, tid=i,
                             links=links))
        cp = critical_path(spans)
        assert len(cp["segments"]) >= 5000


class TestAttribution:
    def test_classify_buckets(self):
        assert classify_span({"name": "comm.recv", "cat": "comm"}) == "comm_wait"
        assert classify_span({"name": "lease.wait", "cat": "spmd"}) == "lease_wait"
        assert classify_span({"name": "fault.retry", "cat": "fault"}) == "retry"
        assert classify_span(
            {"name": "lease.search", "cat": "distributed", "attrs": {"stolen": True}}
        ) == "steal"
        assert classify_span({"name": "save", "cat": "checkpoint"}) == "checkpoint"
        assert classify_span({"name": "spmd.rank", "cat": "spmd"}) == "idle"
        assert classify_span({"name": "scan", "cat": "kernel"}) == "compute"

    def test_exclusive_time_closure(self):
        spans = [
            _mk("spmd.rank", 1, 1, 0, 100, tid=1, cat="spmd"),
            _mk("lease.search", 1, 2, 10, 60, tid=1, parent=1),
            _mk("comm.recv", 1, 3, 60, 90, tid=1, parent=1, cat="comm"),
        ]
        attr = attribute_time(spans)
        assert attr["total_s"] == pytest.approx(100 / 1e9)
        assert attr["buckets"]["compute"] == pytest.approx(50 / 1e9)
        assert attr["buckets"]["comm_wait"] == pytest.approx(30 / 1e9)
        assert attr["buckets"]["idle"] == pytest.approx(20 / 1e9)
        assert attr["closure"] == pytest.approx(1.0)

    def test_lanes_split_by_pid_tid(self):
        spans = [
            _mk("a", 1, 1, 0, 50, tid=1),
            _mk("a", 1, 2, 0, 70, tid=2),
            _mk("a", 2, 3, 0, 30, tid=1),
        ]
        attr = attribute_time(spans)
        assert len(attr["lanes"]) == 3
        assert attr["total_s"] == pytest.approx(150 / 1e9)

    def test_dominant_loss_skips_compute_and_idle(self):
        report = {
            "attribution": {
                "buckets": {
                    "compute": 10.0, "idle": 5.0, "comm_wait": 2.0,
                    "lease_wait": 1.0, "retry": 0.0, "steal": 0.0,
                    "checkpoint": 0.0,
                }
            }
        }
        assert dominant_loss(report) == "comm_wait"
        report["attribution"]["buckets"]["comm_wait"] = 0.0
        assert dominant_loss(report) == "lease_wait"

    def test_all_compute_has_no_dominant_loss(self):
        spans = [_mk("scan", 1, 1, 0, 100)]
        assert analyze_trace(spans)["dominant_loss"] is None


class TestTraceIO:
    def test_load_trace_jsonl_roundtrip(self, tmp_path):
        tel = Telemetry()
        with tel.span("solve", cat="solver"):
            with tel.span("iteration", cat="solver"):
                pass
        path = write_jsonl(tmp_path / "trace.jsonl", tel)
        spans = load_trace(path)
        assert [s["name"] for s in spans] == ["iteration", "solve"]
        assert all(s.get("trace") == tel.trace_id for s in spans)
        assert "type" not in spans[0]

    def test_load_trace_json_list_and_payload(self, tmp_path):
        spans = [_mk("a", 1, 1, 0, 10)]
        p1 = tmp_path / "list.json"
        p1.write_text(json.dumps(spans))
        assert load_trace(p1) == spans
        p2 = tmp_path / "payload.json"
        p2.write_text(json.dumps({"spans": spans}))
        assert load_trace(p2) == spans

    def test_format_report_smoke(self):
        spans = [
            _mk("solve", 1, 1, 0, 1_000_000, rank=0),
            _mk("comm.recv", 1, 2, 100, 500_000, parent=1, cat="comm"),
        ]
        text = format_report(analyze_trace(spans))
        assert "critical path" in text
        assert "comm_wait" in text
        assert "dominant loss bucket: comm_wait" in text


# ---------------------------------------------------------------------------
# the CLI


class TestTraceCLI:
    def _write_trace(self, tmp_path):
        tel = Telemetry()
        with tel.span("solve", cat="solver"):
            with tel.span("comm.recv", cat="comm"):
                pass
        return write_jsonl(tmp_path / "trace.jsonl", tel), tel.trace_id

    def test_analyze_text(self, capsys, tmp_path):
        path, trace_id = self._write_trace(tmp_path)
        assert main(["trace", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert trace_id in out and "critical path" in out

    def test_analyze_json(self, capsys, tmp_path):
        path, trace_id = self._write_trace(tmp_path)
        assert main(["trace", "analyze", str(path), "--json", "--top", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.telemetry.critpath/v1"
        assert report["trace_id"] == trace_id
        assert report["attribution"]["closure"] == pytest.approx(1.0, abs=0.01)

    def test_analyze_missing_file(self, capsys, tmp_path):
        assert main(["trace", "analyze", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_analyze_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "analyze", str(path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"spans": 5}',
            '{"type": "span", "name": "a", "pid": 1, "id": 1, '
            '"start_ns": 0, "end_ns": 1}\n[1]\n',
            '{"type": "span", "name": "a", "pid": 1, "id": 1}\n',
        ],
        ids=["list-of-ints", "spans-not-a-list", "jsonl-line-not-object", "no-times"],
    )
    def test_analyze_malformed_trace(self, capsys, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        assert main(["trace", "analyze", str(path)]) == 2
        assert "error: cannot load trace" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# acceptance: traced elastic solve with straggler + steal


class TestElasticAcceptance:
    @pytest.fixture
    def instance(self, rng):
        t = rng.random((14, 30)) < 0.4
        n = rng.random((14, 24)) < 0.2
        return (
            BitMatrix.from_dense(t),
            BitMatrix.from_dense(n),
            FScoreParams(n_tumor=30, n_normal=24),
        )

    def _solve(self, instance, traced):
        tumor, normal, params = instance
        plan = FaultPlan(
            (
                FaultSpec(kind="straggler", site="rank", target=0, delay_s=0.4),
                FaultSpec(kind="crash", site="rank", target=1),
            )
        )

        def solve():
            return spmd_best_combo(
                LeaseLedger.build(SCHEME_3X1, tumor.n_genes, 8, ttl_s=5.0),
                SCHEME_3X1, tumor, normal, params, 4,
                fault_plan=plan, report=FaultReport(), max_wall_s=120.0,
            )

        if not traced:
            return solve(), None
        with telemetry_session() as tel:
            got = solve()
        return got, tel

    def test_traced_solve_end_to_end(self, instance):
        tumor, normal, params = instance
        ref = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(tumor, normal, params)
        got_off, _ = self._solve(instance, traced=False)
        got_on, tel = self._solve(instance, traced=True)
        # Winners bit-identical with tracing on vs off (and correct).
        assert got_on == got_off == ref

        spans = tel.tracer.export()
        _edge_integrity(spans)
        by_key = {(s["pid"], s["id"]): s for s in spans}

        # The steal edge chains the thief's timeline to the crashed
        # victim's rank span, across ranks.
        steals = [
            (s, link)
            for s in spans
            for link in s.get("links") or ()
            if link["kind"] == "steal"
        ]
        assert steals, "crash produced no steal edge"
        for thief, link in steals:
            victim = by_key[(link["pid"], link["id"])]
            assert victim["rank"] != thief["rank"]
            assert victim["end_ns"] <= thief["end_ns"]  # cause precedes effect

        # The reduce causally depends on every completed lease.
        reduce_span = next(s for s in spans if s["name"] == "reduce")
        completes = [
            link for link in reduce_span["links"] if link["kind"] == "complete"
        ]
        assert len(completes) == 8  # one per lease
        complete_ranks = {by_key[(l["pid"], l["id"])].get("rank") for l in completes}
        assert len(complete_ranks) >= 2  # chain crosses ranks

        report = analyze_trace(spans)
        # Critical path covers the window, attribution closes within 1%.
        assert report["critical_path"]["coverage"] >= 0.95
        assert report["attribution"]["closure"] == pytest.approx(1.0, abs=0.01)
        # The injected straggler's stall is the dominant loss bucket.
        assert report["dominant_loss"] == "comm_wait"
        assert report["attribution"]["buckets"]["comm_wait"] >= 0.35
        # ... and it sits on the critical path.
        stall_segments = [
            seg for seg in report["critical_path"]["segments"]
            if seg["name"] == "comm.stall"
        ]
        assert stall_segments
