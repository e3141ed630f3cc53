"""The benchmark's own span recorder: layers timed from outside.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
each layer's entry point *as its caller sees it* (a module attribute such
as ``repro.core.engine.combos_from_linear``, or a method on a class) with
a shim that records one span per call: name, layer, start, end, the span
that caused it (the enclosing span on the same thread) and the id of the
operation it belongs to.  Counts are read at the same boundaries.  Spans
stay in memory; :meth:`Recorder.write_jsonl` writes them out at the end.

Shims are pass-throughs while the recorder is inactive (the untraced
operations of a traced run) and in forked pool workers (pid check), so
worker-side numbers come from ``PoolStats`` instead.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["Recorder", "Span", "install", "self_times"]


@dataclass
class Span:
    span_id: int
    parent: "int | None"
    op: "int | None"
    name: str
    layer: str
    tid: int
    start: float = 0.0
    end: float = 0.0
    n: int = 0  # work count read at the boundary (tuples, entries, bytes)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id, "parent": self.parent, "op": self.op,
            "name": self.name, "layer": self.layer, "tid": self.tid,
            "start": self.start, "end": self.end, "n": self.n, **self.attrs,
        }


class Recorder:
    """In-memory span store plus the side tables the shims fill."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.op: "int | None" = None
        self.spans: list = []
        self.ledgers: list = []  # LeaseLedger instances built while active
        self.pool_stats = None  # PoolStats handed to PoolEngine.best_combo
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            parent=stack[-1].span_id if stack else None,
            op=self.op, name=name, layer=layer, tid=threading.get_ident(),
        )
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def operation(self, op: int, name: str = "bench.operation", layer: str = "bench"):
        """The root span of one traced operation; shims record inside it."""
        self.op = op
        self.active = True
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)
            self.active = False

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")


def _shim(rec: Recorder, fn, name: str, count=None, pre=None, post=None):
    layer = name.partition(".")[0]

    def shim(*args, **kwargs):
        if not rec.active or os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        span = rec.open(name, layer)
        if pre is not None:
            pre(rec, span, args, kwargs)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(span)
            if count is not None:
                span.n = count(args, kwargs, result)
            if post is not None:
                post(rec, span, args, kwargs, result)

    shim.__wrapped__ = fn
    return shim


# -- hooks that read counts at the boundary --------------------------------


def _len_arg0(args, kwargs, result) -> int:
    return len(args[0])


def _pool_pre(rec, span, args, kwargs) -> None:
    kwargs.setdefault("stats", rec.pool_stats)
    span.attrs["chunk0"] = len(kwargs["stats"].chunks)


def _pool_post(rec, span, args, kwargs, result) -> None:
    chunks = kwargs["stats"].chunks[span.attrs.pop("chunk0"):]
    span.attrs["slowest_chunk_s"] = max(
        (c.wall_seconds for c in chunks), default=0.0
    )


def _ledger_post(rec, span, args, kwargs, result) -> None:
    rec.ledgers.append(args[0])


def _checkpoint_bytes(args, kwargs, result) -> int:
    try:
        return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    except OSError:
        return 0


# (owner, attribute, span name[, hooks]).  The owner is the namespace the
# *caller* resolves the name in, so a function imported with ``from x import
# f`` is patched in each importing module.  The span's layer is the first
# component of its name.
_TARGETS = (
    ("repro.core.engine", "combos_from_linear", "combinatorics.decode", dict(count=_len_arg0)),
    ("repro.core.engine", "top_index_array", "combinatorics.top_index"),
    ("repro.core.engine", "fused_pair_popcount", "kernels.fused_pair_popcount"),
    ("repro.core.engine", "score_combos", "kernels.score_combos"),
    ("repro.core.engine", "best_of", "kernels.best_of"),
    ("repro.core.engine", "fscore", "fscore.fscore"),
    ("repro.core.engine", "stride_any_mask", "bitmatrix.stride_mask"),
    ("repro.core.engine", "best_in_thread_range", "engine.best_in_thread_range"),
    ("repro.core.distributed", "best_in_thread_range", "engine.best_in_thread_range"),
    ("repro.core.pool", "best_in_thread_range", "engine.best_in_thread_range"),
    ("repro.core.solver", "splice_columns", "bitmatrix.splice"),
    ("repro.bitmatrix.sparsity:SparsityIndex", "build", "bitmatrix.sparsity_build"),
    ("repro.core.bounds:BoundTable", "build", "bounds.build"),
    ("repro.core.bounds:BoundTable", "super_visit_order", "bounds.visit"),
    ("repro.core.bounds:BoundTable", "can_skip_super", "bounds.visit"),
    ("repro.core.bounds:BoundTable", "can_skip", "bounds.visit"),
    ("repro.core.bounds:BoundTable", "refresh", "bounds.refresh"),
    ("repro.core.bounds:BoundTable", "to_payload", "bounds.payload"),
    ("repro.core.bounds:BoundTable", "from_payload", "bounds.payload"),
    ("repro.core.checkpoint", "save_state", "checkpoint.save", dict(count=_checkpoint_bytes)),
    ("repro.core.checkpoint", "solve_with_checkpoints", "checkpoint.solve_with_checkpoints"),
    ("repro.core.solver:MultiHitSolver", "solve", "solver.solve"),
    ("repro.scheduling.equiarea", "equiarea_range_boundaries", "scheduling.equiarea"),
    ("repro.core.pool", "equiarea_range_boundaries", "scheduling.equiarea"),
    ("repro.core.bounds", "equiarea_range_boundaries", "scheduling.equiarea"),
    ("repro.core.distributed", "equiarea_schedule", "scheduling.equiarea"),
    ("repro.core.pool", "multi_stage_reduce", "reduction.reduce", dict(count=_len_arg0)),
    ("repro.core.distributed", "multi_stage_reduce", "reduction.reduce", dict(count=_len_arg0)),
    ("repro.cluster.leases", "multi_stage_reduce", "reduction.reduce", dict(count=_len_arg0)),
    ("repro.core.pool:PoolEngine", "best_combo", "pool.best_combo", dict(pre=_pool_pre, post=_pool_post)),
    ("repro.core.pool:PoolEngine", "close", "pool.close"),
    ("repro.core.distributed:DistributedEngine", "best_combo", "distributed.best_combo"),
    ("repro.cluster.leases:LeaseLedger", "__init__", "leases.build", dict(post=_ledger_post)),
    ("repro.cluster.leases:LeaseLedger", "acquire", "leases.acquire"),
    ("repro.cluster.leases:LeaseLedger", "complete", "leases.complete"),
    ("repro.cluster.leases:LeaseLedger", "merge", "leases.merge"),
    ("repro.cluster.leases:LeaseLedger", "merge_counters", "leases.merge"),
    ("repro.service.http:Gateway", "submit", "service.submit"),
    ("repro.data.synthesis", "generate_cohort", "service.cohort"),
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install() -> Recorder:
    """Patch every layer entry point; returns the (inactive) recorder."""
    from repro.core.pool import PoolStats

    rec = Recorder()
    rec.pool_stats = PoolStats()
    for path, attr, name, *hooks in _TARGETS:
        hooks = hooks[0] if hooks else {}
        owner = _resolve(path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(_shim(rec, raw.__func__, name, **hooks))
        else:
            new = _shim(rec, raw, name, **hooks)
        rec._originals.append((owner, attr, raw))
        setattr(owner, attr, new)
    return rec


def self_times(spans: list, root: Span) -> dict:
    """``span_id -> self seconds``: a span's duration minus the part of it
    its child spans cover (children on one thread never overlap).

    A span with no parent was opened on another thread (a gateway runner)
    on behalf of the operation; it is charged against ``root``, whose
    thread only waits meanwhile.
    """
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s is not root:
            out[s.parent if s.parent in out else root.span_id] -= s.duration
    return out
