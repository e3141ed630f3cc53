"""repro.telemetry — unified tracing, metrics, and benchmark reporting.

The observability substrate shared by every execution backend: a
:class:`Tracer` of nested thread/rank-aware spans, a
:class:`MetricsRegistry` of counters/gauges/histograms with a typed
merge, and exporters for JSONL event logs, Chrome
``trace_event`` JSON (Perfetto-loadable), and a run summary JSON
(``multihit solve --metrics-out``).

Telemetry is off by default (:data:`NULL_TELEMETRY`, whose span calls
return a shared no-op singleton); instrumented code pays two attribute
loads and a branch per site when disabled.  Enable per run::

    from repro.telemetry import telemetry_session, write_chrome_trace

    with telemetry_session() as tel:
        # "pool": the distributed engine, one partition per rank thread
        result = MultiHitSolver(backend="pool", n_workers=2).solve(tumor, normal)
    write_chrome_trace("trace.json", tel)

Enabled sessions additionally carry a causal identity: a ``trace_id``
minted per session (or adopted from a gateway job), span-to-span links
stamped across every async boundary (see :mod:`repro.telemetry.causal`),
and the offline analyzer (:mod:`repro.telemetry.critpath`) that turns
an exported trace into a critical path + per-bucket time attribution
(``multihit trace analyze``).

:mod:`repro.telemetry.prom` renders the live registry in the Prometheus
text format; serving it over HTTP (``/metrics``, ``/healthz``) is
:mod:`repro.service.http`'s ``MetricsServer``.
"""

from repro.telemetry.causal import new_trace_id
from repro.telemetry.critpath import (
    BUCKETS,
    CRITPATH_SCHEMA,
    analyze_trace,
    attribute_time,
    classify_span,
    critical_path,
    dominant_loss,
    format_report,
    load_trace,
)
from repro.telemetry.metrics import HistogramStat, MetricsRegistry
from repro.telemetry.session import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from repro.telemetry.spans import NOOP_SPAN, Span, Stopwatch, Tracer
from repro.telemetry.export import (
    SUMMARY_SCHEMA,
    atomic_write_text,
    chrome_trace,
    summarize,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_summary,
)
from repro.telemetry.flight import FLIGHT_SCHEMA, FlightRecorder
from repro.telemetry.prom import render_prometheus, validate_prometheus
from repro.telemetry.progress import ProgressMonitor, ProgressSnapshot

__all__ = [
    "BUCKETS",
    "CRITPATH_SCHEMA",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "HistogramStat",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NULL_TELEMETRY",
    "ProgressMonitor",
    "ProgressSnapshot",
    "SUMMARY_SCHEMA",
    "Span",
    "Stopwatch",
    "Telemetry",
    "Tracer",
    "analyze_trace",
    "atomic_write_text",
    "attribute_time",
    "chrome_trace",
    "classify_span",
    "critical_path",
    "dominant_loss",
    "format_report",
    "get_telemetry",
    "load_trace",
    "new_trace_id",
    "render_prometheus",
    "set_telemetry",
    "summarize",
    "telemetry_session",
    "validate_chrome_trace",
    "validate_prometheus",
    "write_chrome_trace",
    "write_jsonl",
    "write_summary",
]
