"""Nested, thread/rank-aware tracing spans.

A :class:`Tracer` produces :class:`Span` context managers.  Spans nest
per thread (a per-thread open-span stack supplies the parent id), carry
the producing process id and thread id, and optionally an SPMD/MPI rank.
Timestamps are ``time.perf_counter_ns()`` readings — on Linux this is
``CLOCK_MONOTONIC``, so the spans of every thread (the rank fleet's
ranks included) land on one timeline.

The disabled path allocates nothing: a disabled telemetry session hands
out the shared :data:`NOOP_SPAN` singleton, whose ``__enter__``/
``__exit__`` are empty.  Code that needs a duration even when tracing is
off (the solver's public ``wall_seconds`` field) uses
:class:`Stopwatch` — the same two-clock-read cost the bare
``time.perf_counter()`` bookkeeping it replaced had.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["NOOP_SPAN", "Span", "Stopwatch", "Tracer"]


class _NoopSpan:
    """Shared do-nothing span: the zero-allocation disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def link(self, ctx, kind: str = "causal") -> "_NoopSpan":
        return self

    @property
    def duration_s(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class Stopwatch:
    """Duration-only measurement: what a disabled ``timed_span`` returns.

    Costs exactly the two ``perf_counter_ns`` reads the hand-rolled
    ``t0 = time.perf_counter(); dt = time.perf_counter() - t0`` pattern
    cost, and records nothing anywhere.
    """

    __slots__ = ("start_ns", "end_ns")

    def __init__(self) -> None:
        self.start_ns = 0
        self.end_ns = 0

    def __enter__(self) -> "Stopwatch":
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end_ns = time.perf_counter_ns()
        return False

    def set(self, **attrs) -> "Stopwatch":
        return self

    def link(self, ctx, kind: str = "causal") -> "Stopwatch":
        return self

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Span:
    """One traced interval; a context manager handed out by a Tracer.

    ``parent_id`` is resolved at ``__enter__`` from the producing
    thread's open-span stack; ``rank`` is inherited from the enclosing
    span when not given explicitly.  Span ids are unique within one
    *process* (drawn from a process-wide counter, so sessions that come
    and go, one per gateway job, never reuse an id); absorbed spans
    from elsewhere (a :class:`repro.cluster.virtual.VirtualCluster`'s
    ranks) are distinguished by ``(pid, span_id)``.

    ``trace_id`` is stamped from the tracer at ``__enter__`` and ties
    every span of one solve/job together.  ``links`` holds *causal* edges to spans that happened
    before this one on another thread, rank, or process — each link is
    ``{"pid": int, "id": int, "kind": str}`` referencing the causing
    span by its ``(pid, span_id)`` key.  Links are what lets the
    critical-path extractor chain across async boundaries where the
    within-thread ``parent_id`` cannot reach.
    """

    name: str
    cat: str
    span_id: int
    pid: int
    tid: int = 0
    parent_id: "int | None" = None
    rank: "int | None" = None
    start_ns: int = 0
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)
    trace_id: "str | None" = None
    links: "list | None" = None
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    @property
    def duration_s(self) -> float:
        return max(0, self.end_ns - self.start_ns) / 1e9

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def link(self, ctx: "dict | None", kind: str = "causal") -> "Span":
        """Record a causal edge from the span identified by ``ctx``.

        ``ctx`` is a context dict as produced by ``Tracer.context()``
        (``{"trace": ..., "pid": ..., "id": ...}``) or ``None``, in
        which case nothing is recorded — callers can pass contexts
        captured from disabled sessions straight through.
        """
        if not ctx:
            return self
        if self.links is None:
            self.links = []
        self.links.append({"pid": ctx["pid"], "id": ctx["id"], "kind": kind})
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
            if self.rank is None:
                self.rank = stack[-1].rank
        if self.trace_id is None:
            self.trace_id = tracer.trace_id
        self.tid = threading.get_ident()
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end_ns = time.perf_counter_ns()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        tracer._record(self)
        return False

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "cat": self.cat,
            "id": self.span_id,
            "pid": self.pid,
            "tid": self.tid,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.parent_id is not None:
            d["parent"] = self.parent_id
        if self.rank is not None:
            d["rank"] = self.rank
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.trace_id is not None:
            d["trace"] = self.trace_id
        if self.links:
            d["links"] = [dict(link) for link in self.links]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            cat=d.get("cat", "repro"),
            span_id=d["id"],
            pid=d["pid"],
            tid=d.get("tid", 0),
            parent_id=d.get("parent"),
            rank=d.get("rank"),
            start_ns=d["start_ns"],
            end_ns=d["end_ns"],
            attrs=dict(d.get("attrs", {})),
            trace_id=d.get("trace"),
            links=[dict(link) for link in d["links"]] if d.get("links") else None,
        )


# Process-wide id source: every tracer in a process draws from the same
# counter, so (pid, span_id) stays unique even when short-lived tracers
# come and go (one session per gateway job).
_SPAN_IDS = itertools.count(1)


class Tracer:
    """Collects finished spans; thread-safe; one per telemetry session."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._ids = _SPAN_IDS
        self._lock = threading.Lock()
        self._local = threading.local()
        # Causal-trace identity: every span entered on this tracer is
        # stamped with trace_id.
        self.trace_id: "str | None" = None
        # Optional span-close subscriber (the flight recorder's live
        # feed).  One attribute load + branch per close when unset; only
        # enabled sessions record at all, so the no-op path is untouched.
        self.listener: "Callable[[dict], None] | None" = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
        listener = self.listener
        if listener is not None:
            listener(span.to_dict())

    def span(
        self, name: str, cat: str = "repro", rank: "int | None" = None, **attrs
    ) -> Span:
        """Open a new span (enter it with ``with``)."""
        return Span(
            name=name,
            cat=cat,
            span_id=next(self._ids),
            pid=self.pid,
            rank=rank,
            attrs=attrs,
            _tracer=self,
        )

    def current_span(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> "dict | None":
        """The calling thread's current span as a propagatable context.

        The dict (``{"trace": str|None, "pid": int, "id": int}``) is
        JSON-friendly so it can ride on lease records and flight-recorder
        dumps.  ``None`` when no span is open.
        """
        span = self.current_span()
        if span is None:
            return None
        return {
            "trace": span.trace_id or self.trace_id,
            "pid": self.pid,
            "id": span.span_id,
        }

    def absorb(self, span_dicts: "list[dict]") -> None:
        """Merge spans recorded elsewhere (a simulated job's virtual-time
        spans, :class:`repro.cluster.virtual.VirtualCluster`)."""
        with self._lock:
            for d in span_dicts:
                self.spans.append(Span.from_dict(d))
        listener = self.listener
        if listener is not None:
            for d in span_dicts:
                listener(d)

    def export(self) -> "list[dict]":
        with self._lock:
            return [s.to_dict() for s in self.spans]
