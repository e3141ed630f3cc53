"""Multiprocess equi-area execution backend (the ``"pool"`` backend).

The paper's scale-out fans the per-iteration arg-max over thousands of
GPUs: cut the thread grid into equal-*work* (equi-area) partitions,
search each independently, reduce the per-partition winners through the
multi-stage max-reduction.  This module realizes the identical
shard -> score -> reduce shape on CPU cores:

* the λ thread-range is cut with the O(G) equi-area level walk
  (:func:`repro.scheduling.equiarea.equiarea_range_boundaries`, so a
  single simulated GPU's sub-range can itself be pooled);
* each chunk runs :func:`repro.core.engine.best_in_thread_range` in a
  persistent worker process (one pool per engine, reused across greedy
  iterations);
* per-chunk :class:`KernelCounters` are merged in partition order and
  the per-chunk winners flow through the same
  :func:`repro.core.reduction.multi_stage_reduce` as every other engine,
  so tie-breaking is bit-exact with the ``"single"`` and
  ``"sequential"`` backends regardless of worker count or partition
  boundaries.

The packed :class:`BitMatrix` words are shipped **once per greedy
iteration** via POSIX shared memory (``multiprocessing.shared_memory``),
not re-pickled per chunk: a chunk task carries only segment names,
shapes and the λ range; workers attach lazily and cache the mapping
until the segment names change.  Each worker also keeps a
:class:`repro.core.engine.NormalHitStore` for the normal segment it has
attached, so a range it scans again in a later iteration reads its
normal hits instead of recomputing them; the store goes with the
segment.

Pruned iterations ship each chunk a copy of its slice of the bound
table (:meth:`repro.core.bounds.BoundTable.slice`); the worker prunes
against it and returns it refreshed, and the parent writes the slices
back in partition order.  The scan counters (``decode_strides``,
``inner_tables_built``, ``threads_skipped``) merge across workers like
every other :class:`KernelCounters` field.

A lost worker never loses a greedy iteration: a crashed or timed-out
chunk is re-submitted per the engine's :class:`repro.faults.RetryPolicy`
(with exponential backoff) and finally retried inline in the parent
(with a one-time :class:`PoolDegradedWarning`); a broken pool is rebuilt
before the next attempt.  Every detection and recovery is recorded in
the engine's :class:`repro.faults.FaultReport`, and a
:class:`repro.faults.FaultPlan` can deterministically inject chunk
crashes, hangs, and stragglers for testing.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.engine import NormalHitStore, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.reduction import multi_stage_reduce
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.equiarea import LEASES_PER_PULLER, equiarea_range_boundaries
from repro.scheduling.schemes import Scheme
from repro.telemetry.session import Telemetry, get_telemetry
from repro.scheduling.workload import (
    cumulative_work_before,
    total_threads,
    work_prefix_by_level,
)

__all__ = ["ChunkRecord", "PoolDegradedWarning", "PoolEngine", "PoolStats"]


class PoolDegradedWarning(RuntimeWarning):
    """A worker chunk was recovered inline after a crash or timeout."""


# -- chunk task / result (what actually crosses the process boundary) ----


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a worker needs to search one λ chunk.

    Matrices travel by shared-memory segment name, never by value.
    """

    scheme: Scheme
    g: int
    tumor_name: str
    tumor_shape: tuple[int, int]
    tumor_samples: int
    normal_name: str
    normal_shape: tuple[int, int]
    normal_samples: int
    params: FScoreParams
    lam_start: int
    lam_end: int
    fault: "FaultSpec | None" = None
    trace: bool = False  # worker records spans/metrics and ships them back
    # Causal context of the dispatching span (repro.telemetry.causal):
    # the worker session adopts it, so its scan_chunk span re-roots to
    # the parent's timeline and joins the parent's trace_id.
    trace_ctx: "dict | None" = None
    # Pruning: a copy of the parent table's slice covering this chunk.
    # The worker prunes against it and ships it back refreshed in the
    # result tuple.
    bounds: "BoundTable | None" = None
    sparse: bool = False


# Per-worker cache: segment name -> (SharedMemory handle, word-array view).
_ATTACHED: dict = {}
# Per-worker normal-hit store: normal segment name -> NormalHitStore.
_NORMAL_HITS: dict = {}


def _init_worker() -> None:
    """Worker start-up: attaching a segment never calls the resource tracker.

    Workers are forked, and the gateway runs several pool jobs on
    threads of one process: a fork taken while another job's thread
    holds the tracker's lock (publishing or unlinking a segment) hands
    the worker that lock held by a thread it does not have, and the
    registration ``SharedMemory(name=...)`` makes before Python 3.13
    then blocks the worker forever.  The parent creates, tracks and
    unlinks every segment, so a worker has nothing to register.
    """
    from multiprocessing import resource_tracker

    resource_tracker.register = lambda name, rtype: None


def _attach(name: str, shape: tuple[int, int]) -> np.ndarray:
    entry = _ATTACHED.get(name)
    if entry is None:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        words = np.ndarray(shape, dtype=np.uint64, buffer=shm.buf)
        _ATTACHED[name] = entry = (shm, words)
    return entry[1]


def _evict_stale(keep: set) -> None:
    """Drop cached mappings from earlier iterations (segments renamed),
    and the normal-hit store of a normal segment that went with them."""
    for name in [n for n in _NORMAL_HITS if n not in keep]:
        del _NORMAL_HITS[name]
    for name in [n for n in _ATTACHED if n not in keep]:
        shm, _ = _ATTACHED.pop(name)
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view still referenced
            pass


def _apply_worker_fault(spec: FaultSpec) -> None:
    """Worker-side realization of an injected chunk fault."""
    if spec.kind == "crash":
        os._exit(17)  # hard death: no exception crosses the pipe
    elif spec.kind in ("hang", "straggler"):
        # A hang outlives the parent's deadline (which recovers the
        # chunk); a straggler merely finishes late.
        time.sleep(spec.delay_s)


def _scan(
    task: _ChunkTask, tumor: BitMatrix, normal: BitMatrix,
    normal_hits: "NormalHitStore | None" = None,
):
    """Search one chunk's λ range against its slice of the bound table.

    Shared by the worker and the parent's inline retry, so a recovered
    chunk prunes (and refreshes its slice) exactly like the lost attempt.
    A worker passes its normal-hit store; the inline retry has none.
    Returns ``(winner, counters, bounds)``; ``bounds`` is the refreshed
    slice (``None`` when pruning is off).
    """
    counters = KernelCounters()
    best = best_in_thread_range(
        task.scheme,
        task.g,
        tumor,
        normal,
        task.params,
        task.lam_start,
        task.lam_end,
        counters=counters,
        bounds=task.bounds,
        sparse=task.sparse,
        normal_hits=normal_hits,
    )
    return best, counters, task.bounds


def _search_chunk(task: _ChunkTask):
    """Worker-side: attach, search the λ range, return winner + accounting.

    Returns ``(winner, counters, pid, wall_s, telemetry_state, bounds)``.
    When ``task.trace`` is set the worker records a ``scan_chunk`` span
    in a *fresh local* session — never the fork-inherited global one —
    and ships the exported state back over this result channel for the
    parent to merge.
    """
    telemetry = Telemetry(enabled=task.trace)
    telemetry.adopt_context(task.trace_ctx)
    with telemetry.timed_span(
        "scan_chunk", cat="pool", lam_start=task.lam_start, lam_end=task.lam_end
    ) as span:
        if task.fault is not None:
            _apply_worker_fault(task.fault)
        _evict_stale({task.tumor_name, task.normal_name})
        tumor = BitMatrix(
            _attach(task.tumor_name, task.tumor_shape), task.tumor_samples
        )
        normal = BitMatrix(
            _attach(task.normal_name, task.normal_shape), task.normal_samples
        )
        store = None
        if task.bounds is None:
            store = _NORMAL_HITS[task.normal_name] = NormalHitStore.reuse(
                _NORMAL_HITS.get(task.normal_name), task.scheme, task.g, normal
            )
        best, counters, bounds = _scan(task, tumor, normal, store)
    state = telemetry.export_state() if task.trace else None
    return best, counters, os.getpid(), span.duration_s, state, bounds


# -- per-run statistics --------------------------------------------------


@dataclass(frozen=True)
class ChunkRecord:
    """What one worker chunk of one arg-max call did."""

    chunk: int
    lam_start: int
    lam_end: int
    work: int
    combos_scored: int
    wall_seconds: float
    worker_pid: int
    inline_retry: bool


@dataclass
class PoolStats:
    """Measured partition stats, accumulated over best_combo calls."""

    n_workers: int = 0
    chunks: list[ChunkRecord] = field(default_factory=list)
    publish_seconds: float = 0.0
    shipped_bytes: int = 0
    n_publishes: int = 0

    @property
    def n_inline_retries(self) -> int:
        return sum(c.inline_retry for c in self.chunks)

    def per_worker(self) -> dict[int, dict]:
        """Aggregate chunk stats per worker pid (parent pid = inline)."""
        out: dict[int, dict] = {}
        for c in self.chunks:
            row = out.setdefault(
                c.worker_pid,
                {"chunks": 0, "work": 0, "combos_scored": 0, "wall_seconds": 0.0},
            )
            row["chunks"] += 1
            row["work"] += c.work
            row["combos_scored"] += c.combos_scored
            row["wall_seconds"] += c.wall_seconds
        return out

    def describe(self) -> str:
        work = [c.work for c in self.chunks] or [0]
        mean = sum(work) / len(work)
        lines = [
            f"PoolStats workers={self.n_workers} chunks={len(self.chunks)} "
            f"inline_retries={self.n_inline_retries} "
            f"shipped={self.shipped_bytes}B in {self.n_publishes} publishes "
            f"({self.publish_seconds * 1e3:.2f} ms) "
            f"chunk-work imbalance={max(work) / mean if mean else 1.0:.4f}",
            "  worker pid | chunks |        work | combos scored | wall (s)",
        ]
        for pid, row in sorted(self.per_worker().items()):
            lines.append(
                f"  {pid:10d} | {row['chunks']:6d} | {row['work']:11d} | "
                f"{row['combos_scored']:13d} | {row['wall_seconds']:8.4f}"
            )
        return "\n".join(lines)


# -- the engine ----------------------------------------------------------


@dataclass
class _Segment:
    matrix: BitMatrix  # held so the identity check stays valid
    shm: object


@dataclass
class PoolEngine:
    """Equi-area multiprocess arg-max over a λ thread-range.

    Parameters
    ----------
    scheme:
        Loop-flattening scheme (the thread grid being partitioned).
    n_workers:
        Worker processes in the persistent pool.
    retry_policy:
        Shared recovery policy: ``deadline_s`` is the per-chunk seconds
        before the parent gives up on a worker and recovers the chunk
        (``None`` waits forever); ``resubmits`` re-submissions to the
        (rebuilt) pool with backoff before the guaranteed inline
        retry; ``straggler_after_s`` as the soft straggler-detection
        threshold.
    fault_plan:
        Optional deterministic fault injection (site ``"pool"``,
        target = chunk index, call = arg-max call number).
    elastic:
        Lease-grained scheduling: the range is cut into
        :data:`LEASES_PER_PULLER` equi-area leases per worker instead of
        one chunk per worker, all submitted up front — the executor's
        task queue then *is* the work-stealing mechanism (a free worker
        pulls the next lease, so a straggling worker cannot hold back
        more than one lease's work), and the timeout/resubmit recovery
        path doubles as the steal of a lost lease.  Winners and
        ``combos_scored`` are bit-identical to the default cut: both
        feed the same partition-ordered reduce.
    sparse:
        Forwarded to every chunk's :func:`best_in_thread_range`.
        Winners and ``combos_scored`` do not depend on it or on the
        cut; ``word_reads`` depends on the cut (each chunk builds its
        own inner tables) and on which worker ran which chunk before
        (each worker stores the normal hits of the ranges it scanned).
    """

    scheme: Scheme
    n_workers: int = 2
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: "FaultPlan | None" = None
    elastic: bool = False
    sparse: bool = False
    report: FaultReport = field(
        default_factory=FaultReport, repr=False, compare=False
    )

    _pool: "ProcessPoolExecutor | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _segments: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _warned: bool = field(default=False, init=False, repr=False, compare=False)
    _timed_out: bool = field(default=False, init=False, repr=False, compare=False)
    _calls: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    @property
    def _n_cuts(self) -> int:
        """Ranges per call: lease-grained when elastic, else one per
        worker (the paper's one-partition-per-device shape)."""
        return (LEASES_PER_PULLER if self.elastic else 1) * self.n_workers

    # -- pool / shared-memory lifecycle -------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            try:  # fork where the platform has it, else its default
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context,
                initializer=_init_worker,
            )
        return self._pool

    def _publish(self, slot: str, matrix: BitMatrix, stats: "PoolStats | None"):
        """Copy a matrix into a named segment once; reuse while unchanged."""
        seg = self._segments.get(slot)
        if seg is not None and seg.matrix is matrix:
            return seg.shm.name
        from multiprocessing import shared_memory

        tel = get_telemetry()
        with tel.timed_span(
            "comm.shm_publish", cat="pool", slot=slot, bytes=matrix.words.nbytes
        ) as span:
            if seg is not None:
                seg.shm.close()
                seg.shm.unlink()
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, matrix.words.nbytes)
            )
            if matrix.words.nbytes:
                dst = np.ndarray(matrix.words.shape, dtype=np.uint64, buffer=shm.buf)
                dst[:] = matrix.words
            self._segments[slot] = _Segment(matrix, shm)
        if stats is not None:
            stats.publish_seconds += span.duration_s
            stats.shipped_bytes += matrix.words.nbytes
            stats.n_publishes += 1
        return shm.name

    def close(self) -> None:
        """Shut the pool down and release the shared-memory segments."""
        if self._pool is not None:
            # A timed-out chunk leaves its worker running an abandoned
            # search; without a kill, interpreter exit would block on it.
            stuck = (
                list(getattr(self._pool, "_processes", {}).values())
                if self._timed_out
                else []
            )
            self._pool.shutdown(wait=False, cancel_futures=True)
            for proc in stuck:
                if proc.is_alive():
                    proc.terminate()
            self._pool = None
        for seg in self._segments.values():
            try:
                seg.shm.close()
                seg.shm.unlink()
            except (FileNotFoundError, BufferError):  # pragma: no cover
                pass
        self._segments.clear()

    def __enter__(self) -> "PoolEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- degradation ---------------------------------------------------

    def _note_failure(self, exc: BaseException) -> None:
        """Bookkeeping common to every detected chunk loss."""
        tel = get_telemetry()
        if not self._warned:
            self._warned = True
            warnings.warn(
                f"pool worker lost ({type(exc).__name__}: {exc}); "
                "recovering the λ-range — results are unaffected",
                PoolDegradedWarning,
                stacklevel=4,
            )
            # First degradation of the run: snapshot the black box while
            # the timeline still shows the healthy-to-degraded edge.
            if tel.flight is not None:
                tel.flight.dump(
                    "pool-degraded", exc=exc, telemetry=tel,
                    fault_report=self.report,
                )
        if isinstance(exc, TimeoutError):
            self._timed_out = True
        if isinstance(exc, BrokenExecutor) and self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None  # rebuilt on the next attempt

    def _recover_chunk(
        self, exc: BaseException, chunk: int, call: int, task: _ChunkTask,
        tumor, normal,
    ):
        """Detected loss of one chunk: resubmit per policy, then inline."""
        kind = "hang" if isinstance(exc, TimeoutError) else "crash"
        self._note_failure(exc)
        if self.elastic:
            # On the lease path a recovered chunk is a stolen lease: the
            # range moves from the lost worker to a new holder (another
            # worker on resubmit, the parent on the inline fallback).
            get_telemetry().count("lease.steals")
        policy = self.retry_policy
        self.report.record(
            kind, "pool", chunk, call, "detected",
            detail=f"{type(exc).__name__}: {exc}",
        )
        tel = get_telemetry()
        for attempt in range(1, policy.resubmits + 1):
            with tel.span(
                "fault.retry", cat="pool", chunk=chunk, call=call, attempt=attempt
            ):
                policy.sleep_before(attempt)
                fault = (
                    self.fault_plan.take("pool", chunk, call)
                    if self.fault_plan is not None
                    else None
                )
                # Re-root the retried chunk under the retry span so the
                # critical path threads detection -> retry -> rescan.
                retry_task = replace(
                    task, fault=fault,
                    trace_ctx=tel.context() or task.trace_ctx,
                )
                try:
                    out = self._ensure_pool().submit(
                        _search_chunk, retry_task
                    ).result(timeout=policy.deadline_s)
                except (BrokenExecutor, TimeoutError, OSError) as exc2:
                    self._note_failure(exc2)
                    self.report.record(
                        "hang" if isinstance(exc2, TimeoutError) else "crash",
                        "pool", chunk, call, "detected", attempt=attempt + 1,
                        detail=f"{type(exc2).__name__}: {exc2}",
                    )
                    continue
            self.report.record(
                kind, "pool", chunk, call, "resubmitted", attempt=attempt + 1
            )
            return out + (False,)
        self.report.record(
            kind, "pool", chunk, call, "inline-retry",
            attempt=policy.resubmits + 2,
        )
        # The guaranteed fallback: re-run the chunk in the parent.  The
        # ``scan_chunk`` span lands directly in the parent's session
        # (``inline=True``), so the shipped-state slot is ``None``.
        with tel.timed_span(
            "scan_chunk", cat="pool", lam_start=task.lam_start,
            lam_end=task.lam_end, inline=True,
        ) as span:
            best, counters, bounds = _scan(task, tumor, normal)
        return best, counters, os.getpid(), span.duration_s, None, bounds, True

    def _ingest(self, result, tel):
        """Merge one chunk result into the live session as it arrives.

        Worker spans/metrics are absorbed (and progress counters fed)
        here — in future-resolution order, not after the whole call —
        so a concurrent ``/metrics`` scrape or progress monitor sees
        per-chunk movement mid-iteration.  The later partition-order
        loop only merges kernel counters and bound slices, keeping
        those bit-deterministic.
        """
        _, chunk_counters, _, _, tel_state, _, _ = result
        tel.absorb_state(tel_state)
        if tel.enabled:
            tel.count("progress.combos_scored", chunk_counters.combos_scored)
            tel.count("progress.combos_pruned", chunk_counters.combos_pruned)
        return result

    # -- the arg-max ---------------------------------------------------

    def best_combo(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        lam_start: int = 0,
        lam_end: "int | None" = None,
        counters: "KernelCounters | None" = None,
        stats: "PoolStats | None" = None,
        bounds: "BoundTable | None" = None,
    ) -> "MultiHitCombination | None":
        """Pooled arg-max over ``[lam_start, lam_end)``.

        Bit-exact with :class:`SingleGpuEngine` over the same range: the
        per-chunk winners are reduced with the library-wide tie rule, so
        worker count and chunk boundaries never change the result.

        ``bounds`` (a table covering ``[lam_start, lam_end)``) enables
        pruning: each chunk task carries a copy of the table's slice for
        its λ-range, workers prune against it, and the refreshed slices
        are written back here in partition order.
        """
        g = tumor.n_genes
        if normal.n_genes != g:
            raise ValueError("tumor and normal matrices must share the gene axis")
        total = total_threads(self.scheme, g)
        if lam_end is None:
            lam_end = total
        lam_start = max(0, lam_start)
        lam_end = min(lam_end, total)
        if lam_end <= lam_start:
            return None
        call = self._calls
        self._calls += 1
        tel = get_telemetry()
        timeout = self.retry_policy.deadline_s
        if stats is not None:
            stats.n_workers = self.n_workers

        cuts = equiarea_range_boundaries(
            self.scheme, g, lam_start, lam_end, self._n_cuts
        )
        ranges = [
            (cuts[i], cuts[i + 1])
            for i in range(len(cuts) - 1)
            if cuts[i + 1] > cuts[i]
        ]

        t_name = self._publish("tumor", tumor, stats)
        n_name = self._publish("normal", normal, stats)
        # One dispatch context for the whole batch: the caller's current
        # span (the solver's iteration / schedule span) — worker sessions
        # adopt it so scan_chunk spans re-root onto this timeline.
        dispatch_ctx = tel.context()
        tasks = [
            _ChunkTask(
                scheme=self.scheme,
                g=g,
                tumor_name=t_name,
                tumor_shape=tumor.words.shape,
                tumor_samples=tumor.n_samples,
                normal_name=n_name,
                normal_shape=normal.words.shape,
                normal_samples=normal.n_samples,
                params=params,
                lam_start=lo,
                lam_end=hi,
                fault=(
                    self.fault_plan.take("pool", i, call)
                    if self.fault_plan is not None
                    else None
                ),
                trace=tel.enabled,
                trace_ctx=dispatch_ctx,
                bounds=None if bounds is None else bounds.slice(lo, hi),
                sparse=self.sparse,
            )
            for i, (lo, hi) in enumerate(ranges)
        ]

        if tel.flight is not None:
            tel.flight.set_assignments(
                "pool",
                [
                    {"chunk": i, "lam_start": lo, "lam_end": hi, "call": call}
                    for i, (lo, hi) in enumerate(ranges)
                ],
            )

        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_search_chunk, task) for task in tasks]
        except BrokenExecutor as exc:  # pragma: no cover - submit-time break
            futures = None
            results = [
                self._ingest(
                    self._recover_chunk(exc, i, call, task, tumor, normal),
                    tel,
                )
                for i, task in enumerate(tasks)
            ]
        if futures is not None:
            results = []
            for i, (fut, task) in enumerate(zip(futures, tasks)):
                try:
                    result = fut.result(timeout=timeout) + (False,)
                except (BrokenExecutor, TimeoutError, OSError) as exc:
                    result = self._recover_chunk(exc, i, call, task, tumor, normal)
                results.append(self._ingest(result, tel))

        prefix = work_prefix_by_level(self.scheme, g)
        winners: list["MultiHitCombination | None"] = []
        for i, (
            (lo, hi),
            (best, chunk_counters, pid, wall, tel_state, refreshed, retried),
        ) in enumerate(zip(ranges, results)):
            winners.append(best)
            if refreshed is not None:
                bounds.write_back(refreshed)
            if counters is not None:
                counters.merge(chunk_counters)
            if not retried and self.retry_policy.is_straggler(wall):
                self.report.record(
                    "straggler", "pool", i, call, "observed",
                    detail=f"{wall:.3f}s",
                )
            if stats is not None:
                stats.chunks.append(
                    ChunkRecord(
                        chunk=i,
                        lam_start=lo,
                        lam_end=hi,
                        work=cumulative_work_before(self.scheme, g, hi, prefix)
                        - cumulative_work_before(self.scheme, g, lo, prefix),
                        combos_scored=chunk_counters.combos_scored,
                        wall_seconds=wall,
                        worker_pid=pid,
                        inline_retry=retried,
                    )
                )
        if tel.enabled and self.elastic:
            # Lease accounting on the pool path: every submitted range
            # is a grant (steals are counted at recovery).
            tel.count("lease.grants", len(ranges))
        if tel.flight is not None:
            # One registry snapshot per arg-max call: the black box's
            # metric trail, sampled at the call cadence rather than on a
            # timer so replay lines up with the span timeline.
            tel.flight.record_metrics(tel.metrics)
        with tel.span("reduce", cat="pool", candidates=len(winners)):
            return multi_stage_reduce(winners)
