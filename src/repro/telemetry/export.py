"""Exporters: JSONL event logs, Chrome ``trace_event`` JSON, summary JSON.

Three consumers, three formats:

* :func:`write_jsonl` — one JSON object per line (every span, then one
  final metrics snapshot); greppable, streamable, diff-friendly.
* :func:`write_chrome_trace` — the Chrome ``trace_event`` "JSON object
  format" (complete ``"X"`` events plus process-name metadata), loadable
  in Perfetto / ``chrome://tracing``.  :func:`validate_chrome_trace`
  checks the schema; the CI smoke job runs it on a real trace.
* :func:`write_summary` — a flat machine-readable run summary (counters,
  gauges, histogram moments, per-span-name aggregates, caller extras);
  ``multihit solve --metrics-out`` writes one per run.

Every exporter writes through :func:`atomic_write_text` — parent
directories created, tmp + fsync + ``os.replace``; checkpoints and job
files go through the same function — so a crash mid-export (exactly
when a trace is most wanted) never leaves a torn artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.telemetry.session import Telemetry

__all__ = [
    "SUMMARY_SCHEMA",
    "atomic_write_text",
    "chrome_trace",
    "summarize",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_summary",
]

SUMMARY_SCHEMA = "repro.telemetry.summary/v1"


def atomic_write_text(path: "str | Path", text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + ``os.replace``).

    The one durable-write body of the repo — exporters, checkpoints
    (:func:`repro.core.checkpoint.save_state`) and the gateway's job
    store all call it: a crash mid-write can never leave a torn file
    behind — ``path`` holds either the previous complete artifact or the
    new one.
    Parent directories are created as needed, so exporters can target
    per-run output trees that do not exist yet.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


# -- JSONL ---------------------------------------------------------------


def write_jsonl(path: "str | Path", telemetry: Telemetry) -> Path:
    """Write every span (one per line) followed by a metrics snapshot."""
    lines = [
        json.dumps({"type": "span", **span})
        for span in telemetry.tracer.export()
    ]
    lines.append(json.dumps({"type": "metrics", **telemetry.metrics.to_dict()}))
    return atomic_write_text(path, "\n".join(lines) + "\n")


# -- Chrome trace_event --------------------------------------------------


def chrome_trace(telemetry: Telemetry) -> dict:
    """Build a Chrome ``trace_event`` JSON object from recorded spans.

    Complete (``"X"``) events with microsecond timestamps; one
    ``process_name`` metadata event per distinct pid so absorbed spans
    from other pids show up as named tracks in Perfetto.  Causal span
    links (see :mod:`repro.telemetry.causal`) become Perfetto **flow events**:
    a ``ph: "s"`` at the source span and a binding-point ``ph: "f"``
    (``bp: "e"``) at the destination, matched by ``id``/``cat`` — the
    arrows Perfetto draws across tracks.  A link whose source span was
    never recorded (dropped message, disabled session) emits nothing, so
    exported flows are never dangling.
    """
    events: list[dict] = []
    pids: set[int] = set()
    root_pid = telemetry.tracer.pid
    spans = telemetry.tracer.export()
    by_key = {(s["pid"], s["id"]): s for s in spans}
    flow_id = 0
    for span in spans:
        pids.add(span["pid"])
        args = dict(span.get("attrs", {}))
        if "rank" in span:
            args["rank"] = span["rank"]
        events.append(
            {
                "name": span["name"],
                "cat": span["cat"],
                "ph": "X",
                "ts": span["start_ns"] / 1e3,
                "dur": max(0, span["end_ns"] - span["start_ns"]) / 1e3,
                "pid": span["pid"],
                "tid": span["tid"],
                "args": args,
            }
        )
        for link in span.get("links") or ():
            src = by_key.get((link["pid"], link["id"]))
            if src is None:
                continue
            flow_id += 1
            kind = link.get("kind", "causal")
            # Flow start at the source span's end; the binding end at
            # the destination's start (clamped so the pair stays
            # ordered even across clock-read jitter).
            ts_s = src["end_ns"] / 1e3
            ts_f = max(span["start_ns"] / 1e3, ts_s)
            events.append(
                {
                    "name": kind,
                    "cat": f"flow.{kind}",
                    "ph": "s",
                    "id": flow_id,
                    "ts": ts_s,
                    "pid": src["pid"],
                    "tid": src["tid"],
                }
            )
            events.append(
                {
                    "name": kind,
                    "cat": f"flow.{kind}",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": ts_f,
                    "pid": span["pid"],
                    "tid": span["tid"],
                }
            )
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {
                "name": "repro" if pid == root_pid else f"repro-worker-{pid}"
            },
        }
        for pid in sorted(pids)
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: "str | Path", telemetry: Telemetry) -> Path:
    return atomic_write_text(path, json.dumps(chrome_trace(telemetry)) + "\n")


def validate_chrome_trace(trace: dict) -> int:
    """Schema-check a Chrome trace object; returns the event count.

    Raises :class:`ValueError` on the first violation.  Used by the
    tests and the CI telemetry smoke job on real exported traces.

    Flow events (``ph: "s"``/``"f"``) are validated pairwise: both need
    ``id`` and ``ts``, a flow end must carry the binding point
    (``bp: "e"``), its ``id`` must have a matching flow start of the
    same ``cat``, and a start must not dangle without an end (nor an
    end without a start).
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a traceEvents list")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    flow_starts: dict = {}
    flow_ends: dict = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} missing required key {key!r}")
        phase = event["ph"]
        if phase not in ("X", "M", "B", "E", "i", "C", "s", "f"):
            raise ValueError(f"event {i} has unknown phase {phase!r}")
        if phase == "X":
            if "ts" not in event or "dur" not in event:
                raise ValueError(f"complete event {i} missing ts/dur")
            if event["ts"] < 0 or event["dur"] < 0:
                raise ValueError(f"event {i} has negative ts/dur")
        if phase in ("s", "f"):
            if "id" not in event or "ts" not in event:
                raise ValueError(f"flow event {i} missing id/ts")
            if phase == "f" and event.get("bp") != "e":
                raise ValueError(
                    f"flow end {i} missing binding point bp='e'"
                )
            bucket = flow_starts if phase == "s" else flow_ends
            bucket[event["id"]] = (i, event.get("cat"))
    for flow_id, (i, cat) in flow_ends.items():
        if flow_id not in flow_starts:
            raise ValueError(f"flow end {i} (id {flow_id}) has no flow start")
        if flow_starts[flow_id][1] != cat:
            raise ValueError(
                f"flow id {flow_id} category mismatch: "
                f"{flow_starts[flow_id][1]!r} vs {cat!r}"
            )
    for flow_id, (i, _cat) in flow_starts.items():
        if flow_id not in flow_ends:
            raise ValueError(
                f"flow start {i} (id {flow_id}) has no flow end"
            )
    return len(events)


# -- summary JSON --------------------------------------------------------


def summarize(
    telemetry: Telemetry,
    name: str,
    extra: "dict | None" = None,
) -> dict:
    """Aggregate a session into a flat, machine-readable summary."""
    span_rollup: dict[str, dict] = {}
    for span in telemetry.tracer.export():
        row = span_rollup.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        duration = max(0, span["end_ns"] - span["start_ns"]) / 1e9
        row["count"] += 1
        row["total_s"] += duration
        row["max_s"] = max(row["max_s"], duration)
    metrics = telemetry.metrics.to_dict()
    return {
        "schema": SUMMARY_SCHEMA,
        "name": name,
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histograms": metrics["histograms"],
        "spans": span_rollup,
        "extra": dict(extra or {}),
    }


def write_summary(
    path: "str | Path",
    name: str,
    telemetry: "Telemetry | None" = None,
    extra: "dict | None" = None,
) -> Path:
    """Write a run summary; ``telemetry=None`` writes extras only."""
    if telemetry is None:
        telemetry = Telemetry(enabled=False)
    payload = summarize(telemetry, name, extra=extra)
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
