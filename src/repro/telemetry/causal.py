"""Causal context propagation across async boundaries.

Spans carry a within-thread ``parent_id`` resolved from the open-span
stack — enough to reconstruct call trees, useless for answering "what
made this rank wait?".  This module defines the *context* that crosses
every async boundary in the repo and the edge vocabulary recorded on the
receiving side:

==============  ====================================================
edge ``kind``   boundary
==============  ====================================================
``message``     VirtualCluster reduce: every rank's ``reduce`` /
                ``bcast`` span links to the latest span of the rank it
                waited on (the slowest rank, or the root) — virtual
                time only; the thread fleet sends no messages.
``dispatch``    parent → pool worker / spawned rank: the dispatching
                span context ships on the ``_ChunkTask`` (or is
                installed as the tracer's ``remote_parent``) and the
                worker's root span re-roots to it.
``grant``       ``LeaseLedger.acquire`` → the search span that works
                the lease: the granting context recorded on the lease.
``steal``       previous holder → thief: when a lease is re-granted
                after expiry/forfeit, the context captured at the
                moment the previous grant was revoked is linked from
                the thief's search span.
``complete``    ``LeaseLedger.complete`` → merge: each completion's
                context is linked from the reduce span so the critical
                path can thread through the slowest lease chain.
``request``     gateway job submission → the job's solve: the job's
                ``trace_id`` minted at submit is adopted by the
                runner's per-job session.
``retry``       failed attempt → its retry span.
==============  ====================================================

A context is a plain dict ``{"trace": str|None, "pid": int, "id": int}``
(JSON- and pickle-friendly; see ``Tracer.context()``).  Every helper
here treats ``None`` as "telemetry disabled": contexts are only minted
by enabled sessions, ``Span.link(None)`` is a no-op, and the disabled
path still allocates nothing — solver results stay bit-identical with
tracing on or off because contexts never influence scheduling, only
what gets recorded about it.
"""

from __future__ import annotations

import uuid

from repro.telemetry.spans import NOOP_SPAN  # noqa: F401  (re-export convenience)

__all__ = [
    "KIND_COMPLETE",
    "KIND_DISPATCH",
    "KIND_GRANT",
    "KIND_MESSAGE",
    "KIND_REQUEST",
    "KIND_RETRY",
    "KIND_STEAL",
    "context_key",
    "current_context",
    "new_trace_id",
]

KIND_MESSAGE = "message"
KIND_DISPATCH = "dispatch"
KIND_GRANT = "grant"
KIND_STEAL = "steal"
KIND_COMPLETE = "complete"
KIND_REQUEST = "request"
KIND_RETRY = "retry"


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (one per solve/job)."""
    return uuid.uuid4().hex[:16]


def current_context(telemetry=None) -> "dict | None":
    """The active session's current span context, or ``None``.

    ``None`` comes back when telemetry is disabled or no span is open —
    callers ship it anyway and the receiving ``Span.link`` drops it, so
    no call site needs an enabled/disabled branch.
    """
    if telemetry is None:
        from repro.telemetry.session import get_telemetry

        telemetry = get_telemetry()
    return telemetry.context()


def context_key(ctx: "dict | None") -> "tuple | None":
    """The ``(pid, span_id)`` key a context (or link) points at."""
    if not ctx:
        return None
    return (ctx["pid"], ctx["id"])
