"""The telemetry session: one tracer + one metrics registry per run.

Instrumented layers (solver, distributed engine, rank fleet,
gpusim, checkpoints) call :func:`get_telemetry` and talk to
whatever session is installed.  The default is :data:`NULL_TELEMETRY`, a
permanently disabled session whose ``span``/``count`` calls are no-ops
(``span`` returns the shared no-op singleton, so the hot path allocates
nothing), which is what keeps telemetry-off runs at baseline speed.

Install a live session for the duration of a run with::

    from repro.telemetry import telemetry_session

    with telemetry_session() as tel:
        result = MultiHitSolver(...).solve(tumor, normal)
    write_chrome_trace("trace.json", tel)

``timed_span`` is the replacement for hand-rolled ``perf_counter``
bookkeeping: it *always* measures wall time (so public timing fields
stay populated with telemetry off) but records a span only when enabled.

Sessions resolve **thread-first**: :func:`set_thread_telemetry` installs
a session that only the calling thread (and threads that explicitly
inherit it — the fleet's rank threads do) sees, falling back to the
process-global session installed by :func:`set_telemetry`.  This is what
lets the multi-tenant gateway (:mod:`repro.service`) run many solves
concurrently in one process, each with its own isolated span timeline
and metrics registry, while ``/metrics`` keeps scraping the gateway-wide
global session.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NOOP_SPAN, Stopwatch, Tracer

__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "set_thread_telemetry",
    "telemetry_session",
    "thread_telemetry_session",
]


class Telemetry:
    """A tracer/metrics pair with enabled-aware convenience methods."""

    def __init__(self, enabled: bool = True, trace_id: "str | None" = None) -> None:
        self.enabled = enabled
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        # One causal-trace identity per enabled session (a solve or a
        # gateway job); disabled sessions mint nothing — the no-op path
        # stays allocation-free and context() returns None.
        if enabled:
            if trace_id is None:
                from repro.telemetry.causal import new_trace_id

                trace_id = new_trace_id()
            self.trace_id: "str | None" = trace_id
            self.tracer.trace_id = trace_id
        else:
            self.trace_id = None
        # Live layer (PR-5), attached per run: a FlightRecorder gets the
        # span-close feed and receives post-mortem dump triggers from
        # the engines.  None (the default) costs one attribute check at
        # fault sites and nothing on the span path.
        self.flight = None

    def attach_flight(self, recorder) -> "Telemetry":
        """Install a :class:`repro.telemetry.flight.FlightRecorder`.

        The recorder subscribes to span closes (including absorbed
        spans); engines consult ``telemetry.flight`` at
        their failure-detection sites to dump the black box.
        """
        self.flight = recorder
        self.tracer.listener = None if recorder is None else recorder.record_span
        return self

    # -- spans ---------------------------------------------------------

    def span(self, name: str, cat: str = "repro", rank: "int | None" = None, **attrs):
        """A recording span when enabled, the shared no-op otherwise."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, cat=cat, rank=rank, **attrs)

    def timed_span(
        self, name: str, cat: str = "repro", rank: "int | None" = None, **attrs
    ):
        """A span that always measures ``duration_s``, recorded only when on."""
        if not self.enabled:
            return Stopwatch()
        return self.tracer.span(name, cat=cat, rank=rank, **attrs)

    # -- metrics -------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.metrics.inc(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.set_gauge(name, value)

    # -- causal context ------------------------------------------------

    def context(self) -> "dict | None":
        """The calling thread's current span context (``None`` when off).

        See :mod:`repro.telemetry.causal` for the context shape and the
        edge vocabulary recorded against it.
        """
        if not self.enabled:
            return None
        return self.tracer.context()


NULL_TELEMETRY = Telemetry(enabled=False)

_current: Telemetry = NULL_TELEMETRY
_thread_local = threading.local()


def get_telemetry() -> Telemetry:
    """The session instrumented code reports to (never ``None``).

    A thread-scoped session (see :func:`set_thread_telemetry`) shadows
    the process-global one; with none installed the global applies.
    """
    override = getattr(_thread_local, "session", None)
    if override is not None:
        return override
    return _current


def set_telemetry(telemetry: "Telemetry | None") -> Telemetry:
    """Install the process-global session; returns the previous one."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


def set_thread_telemetry(telemetry: "Telemetry | None") -> "Telemetry | None":
    """Install a session visible only to the calling thread.

    ``None`` clears the override (falling back to the global session).
    Returns the previous thread override, which is ``None`` unless the
    thread had one.  Worker threads spawned *inside* an overridden
    thread do not inherit automatically — spawners that must keep their
    spans on the right timeline (the SPMD rank runners) capture the
    parent's session and re-install it in the child.
    """
    previous = getattr(_thread_local, "session", None)
    _thread_local.session = telemetry
    return previous


@contextmanager
def telemetry_session(enabled: bool = True):
    """Install a fresh process-global session for a ``with`` block."""
    telemetry = Telemetry(enabled=enabled)
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)


@contextmanager
def thread_telemetry_session(telemetry: Telemetry):
    """Install ``telemetry`` for this thread only, for a ``with`` block.

    The gateway's job runner wraps each job's solve in one of these so
    concurrent jobs accumulate spans and metrics into their own
    registries instead of each other's (or the gateway's).
    """
    previous = set_thread_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_thread_telemetry(previous)
