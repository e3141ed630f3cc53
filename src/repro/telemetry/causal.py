"""Causal context propagation across async boundaries.

Spans carry a within-thread ``parent_id`` resolved from the open-span
stack — enough to reconstruct call trees, useless for answering "what
made this rank wait?".  This module defines the *context* that crosses
every async boundary in the repo; the receiving side records a span
link whose ``kind`` names the boundary:

==============  ====================================================
edge ``kind``   boundary
==============  ====================================================
``message``     VirtualCluster reduce: every rank's ``reduce`` /
                ``bcast`` span links to the latest span of the rank it
                waited on (the slowest rank, or the root) — virtual
                time only; the thread fleet sends no messages.
``steal``       previous holder → thief: when a lease is re-granted
                after expiry/forfeit, the context captured at the
                moment the previous grant was revoked is linked from
                the thief's search span.
``complete``    ``LeaseLedger.complete`` → merge: each completion's
                context is linked from the reduce span so the critical
                path can thread through the slowest lease chain.
``causal``      program order (the default kind): a VirtualCluster
                span links to its predecessor on the same rank.
==============  ====================================================

A gateway job is joined to its submission by identity, not by an edge:
the ``trace_id`` minted at submit is adopted by the runner's per-job
session, so every span of the solve carries the request's trace.

A context is a plain dict ``{"trace": str|None, "pid": int, "id": int}``
(JSON- and pickle-friendly; see ``Tracer.context()``).  ``None`` means
"telemetry disabled": contexts are only minted by enabled sessions,
``Span.link(None)`` is a no-op, and the disabled path still allocates
nothing — solver results stay bit-identical with tracing on or off
because contexts never influence scheduling, only what gets recorded
about it.
"""

from __future__ import annotations

import uuid

__all__ = ["new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (one per solve/job)."""
    return uuid.uuid4().hex[:16]
