"""Tests for :mod:`repro.telemetry`: spans, metrics, exporters, parity.

The invariants the subsystem promises:

* spans nest per thread and merge across processes/ranks without id
  collisions (``(pid, span_id)`` is the identity);
* the disabled path records nothing and allocates nothing (the shared
  no-op singleton), while ``timed_span`` still measures wall time;
* counter totals survive the pool result channel and the SPMD gather;
* solver results and kernel counters are bit-identical with telemetry
  on vs off on every backend (the acceptance criterion);
* exported Chrome traces pass the schema validator.
"""

import json
import threading

import pytest

from repro.core.solver import MultiHitSolver
from repro.telemetry import (
    NOOP_SPAN,
    NULL_TELEMETRY,
    MetricsRegistry,
    Stopwatch,
    Telemetry,
    chrome_trace,
    get_telemetry,
    set_telemetry,
    summarize,
    telemetry_session,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_summary,
)
from repro.telemetry.export import SUMMARY_SCHEMA


class TestSpanNesting:
    def test_parent_resolved_from_enclosing_span(self):
        tel = Telemetry()
        with tel.span("outer", cat="t") as outer:
            with tel.span("inner", cat="t") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Inner closed first: recorded order is innermost-out.
        assert [s.name for s in tel.tracer.spans] == ["inner", "outer"]

    def test_siblings_share_parent_not_each_other(self):
        tel = Telemetry()
        with tel.span("outer") as outer:
            with tel.span("a") as a:
                pass
            with tel.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        assert a.span_id != b.span_id

    def test_rank_inherited_from_enclosing_span(self):
        tel = Telemetry()
        with tel.span("rank-root", rank=3):
            with tel.span("child") as child:
                pass
            with tel.span("override", rank=7) as override:
                pass
        assert child.rank == 3
        assert override.rank == 7

    def test_threads_have_independent_stacks(self):
        tel = Telemetry()
        seen = {}

        def worker():
            with tel.span("thread-span") as s:
                seen["parent"] = s.parent_id
                seen["tid"] = s.tid

        with tel.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker thread's span must not parent under main's open span.
        assert seen["parent"] is None
        assert seen["tid"] != threading.get_ident()

    def test_span_ids_unique_per_tracer(self):
        tel = Telemetry()
        for _ in range(5):
            with tel.span("s"):
                pass
        ids = [s.span_id for s in tel.tracer.spans]
        assert len(set(ids)) == len(ids)


class TestDisabledPath:
    def test_disabled_span_is_shared_singleton(self):
        tel = Telemetry(enabled=False)
        assert tel.span("anything") is NOOP_SPAN
        assert tel.span("other", cat="x", rank=1, attr=2) is NOOP_SPAN

    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False)
        with tel.span("s"):
            pass
        tel.count("c")
        tel.observe("h", 1.0)
        tel.set_gauge("g", 1.0)
        assert tel.tracer.spans == []
        assert tel.metrics.to_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_disabled_timed_span_still_measures(self):
        tel = Telemetry(enabled=False)
        with tel.timed_span("iteration") as sw:
            pass
        assert isinstance(sw, Stopwatch)
        assert sw.duration_s >= 0.0
        assert tel.tracer.spans == []

    def test_enabled_timed_span_records_and_measures(self):
        tel = Telemetry()
        with tel.timed_span("iteration") as span:
            pass
        assert span.duration_s >= 0.0
        assert [s.name for s in tel.tracer.spans] == ["iteration"]


class TestSessionInstall:
    def test_default_session_is_null(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled

    def test_context_manager_installs_and_restores(self):
        before = get_telemetry()
        with telemetry_session() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
        assert get_telemetry() is before

    def test_set_telemetry_none_restores_null(self):
        prev = set_telemetry(Telemetry())
        try:
            set_telemetry(None)
            assert get_telemetry() is NULL_TELEMETRY
        finally:
            set_telemetry(prev)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 2.5)
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        d = reg.to_dict()
        assert d["counters"]["c"] == 5
        assert d["gauges"]["g"] == 2.5
        assert d["histograms"]["h"] == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        a.merge_dict(b.to_dict())
        d = a.to_dict()
        assert d["counters"]["c"] == 5  # counters add
        assert d["gauges"]["g"] == 9.0  # gauges last-write-wins
        assert d["histograms"]["h"]["count"] == 2  # histograms combine
        assert d["histograms"]["h"]["min"] == 1.0
        assert d["histograms"]["h"]["max"] == 5.0

    def test_merge_dict_roundtrips_empty_histogram(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("h", 2.0)
        state = json.loads(json.dumps(b.to_dict()))  # over-the-wire shape
        a.merge_dict(state)
        assert a.to_dict()["histograms"]["h"]["mean"] == 2.0

    def test_fault_event_routing(self, tmp_path):
        """``FaultReport.record`` routes each event to the registry's
        ``faults.events`` count and onto the flight recorder's ring."""
        from repro.faults.report import FaultReport
        from repro.telemetry import FlightRecorder

        with telemetry_session() as tel:
            tel.attach_flight(FlightRecorder(out_dir=tmp_path))
            FaultReport().record("crash", "pool", 3, 1, "retried")
        assert tel.metrics.to_dict()["counters"] == {"faults.events": 1}
        (event,) = tel.flight.timeline()
        assert (event["type"], event["kind"], event["site"], event["action"]) == (
            "fault", "crash", "pool", "retried"
        )

    def test_live_fault_report_feeds_registry(self):
        from repro.faults.report import FaultReport

        with telemetry_session() as tel:
            report = FaultReport()
            report.record("crash", "worker", 0, 1, "retried")
            report.record("straggler", "pool", 0, 1, "observed")
            report.record_reschedule(2, 1, 0, 10)
        # One count per event; reschedules are the report's own rows.
        assert tel.metrics.to_dict()["counters"] == {"faults.events": 2}


class TestExporters:
    def _session_with_spans(self):
        tel = Telemetry()
        with tel.span("solve", cat="solver", backend="single"):
            with tel.span("iteration", cat="solver", iteration=1):
                pass
        tel.count("solver.solves")
        return tel

    def test_chrome_trace_validates(self):
        tel = self._session_with_spans()
        trace = chrome_trace(tel)
        n = validate_chrome_trace(trace)
        assert n == 3  # 2 spans + 1 process_name metadata
        assert trace["displayTimeUnit"] == "ms"
        names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert names == {"repro"}

    def test_chrome_trace_roundtrips_through_json(self, tmp_path):
        tel = self._session_with_spans()
        path = write_chrome_trace(tmp_path / "trace.json", tel)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == 3

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "s", "ph": "Z", "pid": 1, "tid": 1}
                ]}
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "s", "ph": "X", "pid": 1, "tid": 1,
                     "ts": -1.0, "dur": 0.0}
                ]}
            )

    def _session_with_link(self):
        tel = Telemetry()
        with tel.span("send", cat="comm"):
            ctx = tel.context()
        with tel.span("recv", cat="comm") as recv:
            recv.link(ctx, kind="message")
        return tel

    def test_linked_spans_emit_flow_pair(self):
        trace = chrome_trace(self._session_with_link())
        validate_chrome_trace(trace)
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == 1 and len(ends) == 1
        start, end = starts[0], ends[0]
        assert start["id"] == end["id"]
        assert start["cat"] == end["cat"] == "flow.message"
        assert end["bp"] == "e"
        assert end["ts"] >= start["ts"]  # arrow never points backwards

    def test_unresolvable_link_emits_no_flow(self):
        tel = Telemetry()
        with tel.span("recv", cat="comm") as recv:
            # A source that was never recorded (dropped worker trace).
            recv.link({"trace": tel.trace_id, "pid": 999999, "id": 12345},
                      kind="message")
        trace = chrome_trace(tel)
        validate_chrome_trace(trace)
        assert not [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]

    def test_validator_rejects_broken_flows(self):
        start = {"name": "message", "ph": "s", "pid": 1, "tid": 1,
                 "ts": 1.0, "id": 7, "cat": "flow.message"}
        end = {"name": "message", "ph": "f", "bp": "e", "pid": 1, "tid": 1,
               "ts": 2.0, "id": 7, "cat": "flow.message"}
        assert validate_chrome_trace({"traceEvents": [start, end]}) == 2
        with pytest.raises(ValueError, match="no flow end"):
            validate_chrome_trace({"traceEvents": [start]})
        with pytest.raises(ValueError, match="no flow start"):
            validate_chrome_trace({"traceEvents": [end]})
        with pytest.raises(ValueError, match="binding point"):
            no_bp = {k: v for k, v in end.items() if k != "bp"}
            validate_chrome_trace({"traceEvents": [start, no_bp]})
        with pytest.raises(ValueError, match="category mismatch"):
            wrong_cat = dict(end, cat="flow.steal")
            validate_chrome_trace({"traceEvents": [start, wrong_cat]})
        with pytest.raises(ValueError, match="missing id"):
            no_id = {k: v for k, v in start.items() if k != "id"}
            validate_chrome_trace({"traceEvents": [no_id]})

    def test_jsonl_has_spans_then_metrics(self, tmp_path):
        tel = self._session_with_spans()
        path = write_jsonl(tmp_path / "events.jsonl", tel)
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [x["type"] for x in lines] == ["span", "span", "metrics"]
        assert lines[-1]["counters"]["solver.solves"] == 1

    def test_summary_shape(self, tmp_path):
        tel = self._session_with_spans()
        path = write_summary(
            tmp_path / "summary.json", "unit", telemetry=tel, extra={"k": 1}
        )
        summary = json.loads(path.read_text())
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["name"] == "unit"
        assert summary["counters"]["solver.solves"] == 1
        assert summary["extra"] == {"k": 1}
        assert summary["spans"]["iteration"]["count"] == 1
        assert summary["spans"]["solve"]["total_s"] >= 0.0

    def test_summary_without_telemetry_is_extras_only(self, tmp_path):
        path = write_summary(tmp_path / "s.json", "bare", extra={"x": [1, 2]})
        summary = json.loads(path.read_text())
        assert summary["extra"] == {"x": [1, 2]}
        assert summary["counters"] == {} and summary["spans"] == {}


def _solve(backend, dense, telemetry_on, **kw):
    t, n, _params = dense
    solver = MultiHitSolver(hits=2, backend=backend, **kw)
    if telemetry_on:
        with telemetry_session() as tel:
            return solver.solve(t, n), tel
    return solver.solve(t, n), None


def _fingerprint(res):
    """What no scheduling can move.  ``word_reads`` can move: a pool
    worker reads normal hits only from ranges it scanned before."""
    return (
        [c.genes for c in res.combinations],
        [c.f for c in res.combinations],
        [c.tp for c in res.combinations],
        res.uncovered,
        (res.counters.combos_scored, res.counters.word_ops),
    )


class TestBackendParity:
    """Telemetry on vs off: bit-identical results and kernel counters."""

    @pytest.mark.parametrize("backend", ["single", "sequential"])
    def test_inprocess_backends(self, small_matrices, backend):
        off, _ = _solve(backend, small_matrices, telemetry_on=False)
        on, tel = _solve(backend, small_matrices, telemetry_on=True)
        assert _fingerprint(on) == _fingerprint(off)
        assert on.counters.word_reads == off.counters.word_reads
        if backend == "single":
            c = tel.metrics.to_dict()["counters"]
            assert c["kernel.combos_scored"] == on.counters.combos_scored
            assert c["kernel.word_reads"] == on.counters.word_reads
            assert c["solver.solves"] == 1

    def test_pool_backend(self, small_matrices):
        off, _ = _solve("pool", small_matrices, telemetry_on=False, n_workers=2)
        on, tel = _solve("pool", small_matrices, telemetry_on=True, n_workers=2)
        assert _fingerprint(on) == _fingerprint(off)
        spans = tel.tracer.export()
        # Spans keep unique (pid, id) identity.
        keys = [(s["pid"], s["id"]) for s in spans]
        assert len(set(keys)) == len(keys)
        # Every pid in the Chrome export gets a named process track.
        trace = chrome_trace(tel)
        validate_chrome_trace(trace)
        meta_pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "M"}
        assert {s["pid"] for s in spans} <= meta_pids

    def test_distributed_backend(self, small_matrices):
        off, _ = _solve(
            "distributed", small_matrices, telemetry_on=False, n_nodes=2
        )
        on, tel = _solve(
            "distributed", small_matrices, telemetry_on=True, n_nodes=2
        )
        assert _fingerprint(on) == _fingerprint(off)
        assert on.counters.word_reads == off.counters.word_reads
        names = {s["name"] for s in tel.tracer.export()}
        assert {"solve", "iteration", "schedule", "reduce"} <= names

    def test_wall_seconds_populated_without_telemetry(self, small_matrices):
        res, _ = _solve("single", small_matrices, telemetry_on=False)
        assert all(r.wall_seconds >= 0.0 for r in res.iterations)
        assert any(r.wall_seconds > 0.0 for r in res.iterations)


class TestSpmdMerge:
    def test_spmd_result_identical_with_telemetry_off(self, rng):
        from repro.bitmatrix.matrix import BitMatrix
        from repro.cluster import LeaseLedger, spmd_best_combo
        from repro.core.fscore import FScoreParams
        from repro.scheduling.equiarea import equiarea_schedule
        from repro.scheduling.schemes import SCHEME_3X1

        t = BitMatrix.from_dense(rng.random((14, 30)) < 0.4)
        n = BitMatrix.from_dense(rng.random((14, 30)) < 0.1)
        params = FScoreParams(n_tumor=30, n_normal=30)
        schedule = equiarea_schedule(SCHEME_3X1, 14, 4)

        def solve():
            return spmd_best_combo(
                LeaseLedger(schedule.boundaries), SCHEME_3X1, t, n,
                params, 2,
            )

        off = solve()
        with telemetry_session():
            on = solve()
        assert on == off


class TestAtomicExporters:
    """Every exporter writes tmp + fsync + rename: parents are created,
    no ``*.tmp`` litter survives, and a crash mid-write can never leave
    a truncated artifact where a previous good one stood."""

    def _tel(self):
        tel = Telemetry()
        with tel.span("solve", cat="solver"):
            pass
        tel.count("solver.solves")
        return tel

    @pytest.mark.parametrize(
        "writer, fname",
        [
            (write_chrome_trace, "trace.json"),
            (write_jsonl, "events.jsonl"),
            (lambda p, t: write_summary(p, "unit", telemetry=t), "summary.json"),
        ],
    )
    def test_creates_parents_and_leaves_no_tmp(self, tmp_path, writer, fname):
        target = tmp_path / "deep" / "nested" / fname
        path = writer(target, self._tel())
        assert path.exists() and path.read_text()
        assert list(path.parent.glob("*.tmp")) == []

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        from repro.telemetry.export import atomic_write_text

        target = tmp_path / "out.json"
        atomic_write_text(target, "old content")
        atomic_write_text(target, "new content")
        assert target.read_text() == "new content"
        assert list(tmp_path.glob("*.tmp")) == []


class TestPruneSummaryAgreement:
    """A summary's counters agree with the solver's own counters, and the
    live ``progress.*`` feed with both; ``prune`` (read by nothing) adds
    no ``prune.*`` block."""

    def test_summary_prune_block_matches_result_counters(self, small_matrices):
        t, n, _ = small_matrices
        with telemetry_session() as tel:
            result = MultiHitSolver(hits=2, prune=True).solve(t, n)
            summary = summarize(tel, "prune-agreement")
        c = summary["counters"]
        assert c["kernel.combos_scored"] == result.counters.combos_scored
        assert c.get("kernel.threads_bounded", 0) == result.counters.threads_bounded
        assert not [k for k in c if k.startswith("prune.")]
        # The per-iteration feed closes against the run counters even
        # though the final probe iteration emits no IterationRecord.
        assert c["progress.combos_scored"] == result.counters.combos_scored
        assert "progress.combos_pruned" not in c
        record_scored = sum(r.combos_scored for r in result.iterations)
        assert record_scored <= c["kernel.combos_scored"]

    def test_unpruned_solve_has_no_prune_block(self, small_matrices):
        t, n, _ = small_matrices
        with telemetry_session() as tel:
            MultiHitSolver(hits=2).solve(t, n)
            summary = summarize(tel, "no-prune")
        assert not [k for k in summary["counters"] if k.startswith("prune.")]


class TestPoolFaultRetryMerge:
    """A pool lease recovered from a crashed rank must merge its
    telemetry exactly once: span identity stays unique and the live
    progress feed equals the kernel total (a double-ingest would
    overshoot it)."""

    def test_no_double_merge_on_injected_crash(self, small_matrices):
        import warnings

        from repro.faults.plan import FaultPlan, FaultSpec

        t, n, _ = small_matrices
        clean, _ = _solve("pool", small_matrices, telemetry_on=False, n_workers=2)
        plan = FaultPlan(
            [FaultSpec(kind="crash", site="rank", target=0, at_call=1)]
        )
        with telemetry_session() as tel:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                faulted = MultiHitSolver(
                    hits=2, backend="pool", n_workers=2, fault_plan=plan
                ).solve(t, n)
        assert _fingerprint(faulted) == _fingerprint(clean)
        # (pid, span_id) identity survives the retry without collisions.
        spans = tel.tracer.export()
        keys = [(s["pid"], s["id"]) for s in spans]
        assert len(set(keys)) == len(keys)
        # Each lease was counted exactly once: the per-lease progress
        # feed closes against the kernel counter totals.
        c = tel.metrics.to_dict()["counters"]
        assert c["progress.combos_scored"] == faulted.counters.combos_scored
        assert c["progress.combos_scored"] == c["kernel.combos_scored"]
        assert c["faults.events"] >= 1  # the injected crash was recorded


class TestLiveComponentsBitIdentity:
    """The full live stack (flight recorder + progress monitor + metrics
    endpoint) attached to a solve changes nothing about the answer."""

    @pytest.mark.parametrize(
        "backend, kw",
        [
            ("single", {}),
            ("pool", {"n_workers": 2}),
            ("distributed", {"n_nodes": 2}),
        ],
    )
    def test_bit_identical_with_live_stack(self, small_matrices, tmp_path,
                                           backend, kw, monkeypatch):
        from repro.service import MetricsServer
        from repro.telemetry import FlightRecorder, ProgressMonitor, progress

        monkeypatch.setattr(progress, "INTERVAL_S", 0.01)
        t, n, _ = small_matrices
        off, _ = _solve(backend, small_matrices, telemetry_on=False, **kw)
        with telemetry_session() as tel:
            tel.attach_flight(FlightRecorder(out_dir=tmp_path))
            with MetricsServer(telemetry=tel):
                with ProgressMonitor(telemetry=tel):
                    on = MultiHitSolver(hits=2, backend=backend, **kw).solve(t, n)
        assert _fingerprint(on) == _fingerprint(off)
        # No fault, no black box — the recorder observed silently.
        assert list(tmp_path.glob("blackbox-*.json")) == []
