"""Multiprocess equi-area execution backend (the ``"pool"`` backend).

The paper's scale-out fans the per-iteration arg-max over thousands of
GPUs: cut the thread grid into equal-*work* (equi-area) ranges, search
each independently, fold the per-range winners through the multi-stage
max-reduction.  The pool is that shape on CPU cores, and it is the rank
fleet of :mod:`repro.cluster.elastic` with worker processes behind its
ranks:

* each call builds a :class:`repro.cluster.leases.LeaseLedger` over
  equi-area cuts of its λ-range (one lease per worker, or
  :data:`LEASES_PER_PULLER` per worker when ``elastic``) and drives it
  with :func:`repro.cluster.elastic.spmd_best_combo` on ``n_workers``
  rank threads;
* a rank scans a lease by shipping its range to a persistent worker
  process (:func:`_search_chunk`, one executor per engine, reused across
  greedy iterations) instead of scanning in its own thread;
* winners fold through :meth:`LeaseLedger.merge` in lease-id order and
  counters merge per lease, so winners, tie-breaks and ``combos_scored``
  are bit-exact with the ``"single"`` backend for any worker count, cut
  or schedule.

The packed :class:`BitMatrix` words are shipped **once per greedy
iteration** via POSIX shared memory (``multiprocessing.shared_memory``),
not re-pickled per lease: a task carries only segment names, shapes and
the λ range; workers attach lazily and cache the mapping until the
segment names change.  Each worker also keeps a
:class:`repro.core.engine.NormalHitStore` for the normal segment it has
attached, so a range it scans again in a later iteration reads its
normal hits instead of recomputing them; the store goes with the
segment.  A pruned lease ships a copy of its slice of the bound table
and gets it back refreshed.

Recovery is the fleet's one rule (:func:`repro.core.distributed.
run_lease`).  A lost worker — a broken executor, a missed
``retry_policy.deadline_s`` or an ``OSError`` — raises
:class:`repro.core.distributed.WorkerLost` out of the scan: the executor
is replaced once, its stuck workers terminated, and the holder retries
with backoff and then forfeits; survivors steal the lease, and the
driver's inline drain (holder ``-1``) scans in this process when no rank
is left.  A real loss warns once per engine
(:class:`PoolDegradedWarning`).  Injected faults are ``rank``-site
:class:`repro.faults.FaultSpec` events, exactly as on the distributed
backend.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import BrokenExecutor, CancelledError, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.distributed import WorkerLost
from repro.core.engine import NormalHitStore, best_in_thread_range
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.equiarea import LEASES_PER_PULLER
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import (
    cumulative_work_before,
    total_threads,
    work_prefix_by_level,
)
from repro.telemetry.session import Telemetry, get_telemetry

# Bound here but never called by the pool: the benchmark harness
# (benchmarks/perf/trace.py) patches them by these names.
from repro.core.reduction import multi_stage_reduce  # noqa: F401
from repro.scheduling.equiarea import equiarea_range_boundaries  # noqa: F401

__all__ = ["ChunkRecord", "PoolDegradedWarning", "PoolEngine", "PoolStats"]

#: What a rank sees when the worker behind its scan is lost.  A
#: cancelled future is a task the replaced executor never ran.
_LOST = (BrokenExecutor, CancelledError, TimeoutError, OSError)


class PoolDegradedWarning(RuntimeWarning):
    """A worker process was lost; its λ-ranges were recovered."""


# -- task / result (what actually crosses the process boundary) ----------


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a worker needs to search one lease's λ range.

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
    lam_start: int = 0
    lam_end: int = 0
    trace: bool = False  # worker records spans/metrics and ships them back
    # Causal context of the dispatching span (repro.telemetry.causal):
    # the worker session adopts it, so its scan_chunk span re-roots
    # under the rank's lease.search span and joins the parent's trace.
    trace_ctx: "dict | None" = None
    # Pruning: a copy of the lease's slice of the bound table.  The
    # worker prunes against it and ships it back refreshed.
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


def _search_chunk(task: _ChunkTask):
    """Worker-side: attach, search the λ range, return winner + accounting.

    Returns ``(winner, counters, pid, wall_s, telemetry_state, bounds)``;
    ``bounds`` is the refreshed slice (``None`` when pruning is off).
    When ``task.trace`` is set the worker records a ``scan_chunk`` span
    in a *fresh local* session — never the fork-inherited global one —
    and ships the exported state back over this result channel for the
    rank to merge.
    """
    telemetry = Telemetry(enabled=task.trace)
    telemetry.adopt_context(task.trace_ctx)
    with telemetry.timed_span(
        "scan_chunk", cat="pool", lam_start=task.lam_start, lam_end=task.lam_end
    ) as span:
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
        counters = KernelCounters()
        best = best_in_thread_range(
            task.scheme, task.g, tumor, normal, task.params,
            task.lam_start, task.lam_end,
            counters=counters, bounds=task.bounds, sparse=task.sparse,
            normal_hits=store,
        )
    state = telemetry.export_state() if task.trace else None
    return best, counters, os.getpid(), span.duration_s, state, task.bounds


def _terminate(executor: ProcessPoolExecutor) -> None:
    """Shut ``executor`` down and kill its workers: a lost or late worker
    would otherwise keep running an abandoned scan (and hold up
    interpreter exit)."""
    procs = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


# -- per-run statistics --------------------------------------------------


@dataclass(frozen=True)
class ChunkRecord:
    """What one lease of one arg-max call did, as its completer saw it.

    ``inline_retry`` marks a range the driver drained in this process
    (``worker_pid`` is then the parent's).
    """

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
        Worker processes in the persistent executor, and rank threads
        pulling leases for them.
    retry_policy:
        The fleet's recovery policy: ``deadline_s`` is both the lease
        TTL and how long a rank waits on its worker before declaring it
        lost (``None`` waits forever); ``resubmits`` retries by the same
        rank, with backoff, before it forfeits the lease;
        ``straggler_after_s`` the soft straggler threshold.
    fault_plan:
        Optional deterministic fault injection: ``rank``-site specs
        (target = rank, call = arg-max call number) and ``membership``
        churn, as on the distributed backend.
    elastic:
        Lease grain: :data:`LEASES_PER_PULLER` equi-area leases per
        worker instead of one, so a free rank pulls the next lease and
        a straggling worker holds back at most one lease's work.
        Winners and ``combos_scored`` are bit-identical to the default
        cut: both fold through the same lease-ordered merge.
    sparse:
        Forwarded to every lease's :func:`best_in_thread_range`.
        Winners and ``combos_scored`` do not depend on it or on the
        cut; ``word_reads`` depends on the cut (each lease builds its
        own inner tables) and on which worker ran which lease before
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
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )
    _segments: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The engine's first worker loss, and whether it has been warned
    # about (once per engine).
    _loss: "BaseException | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _warned: bool = field(default=False, init=False, repr=False, compare=False)
    _calls: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    @property
    def _n_cuts(self) -> int:
        """Leases per call: lease-grained when elastic, else one per
        worker (the paper's one-partition-per-device shape)."""
        return (LEASES_PER_PULLER if self.elastic else 1) * self.n_workers

    # -- executor / shared-memory lifecycle ---------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
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

    def _lose(self, executor: ProcessPoolExecutor, exc: BaseException) -> None:
        """A worker of ``executor`` is lost: replace the executor once,
        whichever rank saw it first, and keep the loss for the warning."""
        with self._lock:
            self._loss = self._loss or exc
            if self._pool is executor:
                self._pool = None  # the next submit builds a fresh one
        _terminate(executor)

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
        """Shut the executor down and release the shared-memory segments."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
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

    # -- one lease's scan ------------------------------------------------

    def _scan(self, template: _ChunkTask, tumor, normal, done: dict,
              lease, rank: int, counters: KernelCounters, bounds):
        """Scan ``lease`` for ``rank`` (the ``scan`` of
        :func:`repro.core.distributed.search_lease`).

        A rank ships the range to a worker and merges what comes back; a
        lost worker raises :class:`WorkerLost`.  The driver's drain
        (rank ``-1``) scans in this process: the executor is what lost
        the range.  ``done[(lease_id, rank)]`` keeps ``(pid, wall)`` of
        every finished scan for :class:`PoolStats`.
        """
        tel = get_telemetry()
        lo, hi = lease.lam_start, lease.lam_end
        if rank < 0:
            with tel.timed_span(
                "scan_chunk", cat="pool", lam_start=lo, lam_end=hi, inline=True
            ) as span:
                best = best_in_thread_range(
                    self.scheme, template.g, tumor, normal, template.params,
                    lo, hi, counters=counters, bounds=bounds, sparse=self.sparse,
                )
            done[lease.lease_id, rank] = (os.getpid(), span.duration_s)
            return best
        task = replace(
            template, lam_start=lo, lam_end=hi, bounds=bounds,
            trace_ctx=tel.context(),
        )
        executor = None
        try:
            with self._lock:
                executor = self._ensure_pool()
                future = executor.submit(_search_chunk, task)
            best, found, pid, wall, state, refreshed = future.result(
                timeout=self.retry_policy.deadline_s
            )
        except _LOST as exc:
            if executor is not None:
                self._lose(executor, exc)
            raise WorkerLost(
                f"pool worker lost ({type(exc).__name__}: {exc})"
            ) from exc
        tel.absorb_state(state)
        counters.merge(found)
        if refreshed is not None:
            bounds.write_back(refreshed)
        done[lease.lease_id, rank] = (pid, wall)
        return best

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
        per-lease winners fold through :meth:`LeaseLedger.merge`, so
        worker count, cuts and recovery never change the result.

        ``bounds`` (a table covering ``[lam_start, lam_end)``) enables
        pruning: each lease prunes against a copy of its slice and the
        refreshed slices are written back in lease-id order.
        """
        # Imported here: repro.cluster imports repro.core.
        from repro.cluster.elastic import spmd_best_combo
        from repro.cluster.leases import LeaseLedger

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

        ledger = LeaseLedger.build(
            self.scheme, g, self._n_cuts, lam_start, lam_end,
            ttl_s=self.retry_policy.deadline_s,
        )
        template = _ChunkTask(
            scheme=self.scheme,
            g=g,
            tumor_name=self._publish("tumor", tumor, stats),
            tumor_shape=tumor.words.shape,
            tumor_samples=tumor.n_samples,
            normal_name=self._publish("normal", normal, stats),
            normal_shape=normal.words.shape,
            normal_samples=normal.n_samples,
            params=params,
            trace=get_telemetry().enabled,
            sparse=self.sparse,
        )
        done: dict = {}
        best = spmd_best_combo(
            ledger, self.scheme, tumor, normal, params, self.n_workers,
            fault_plan=self.fault_plan, retry_policy=self.retry_policy,
            report=self.report, counters=counters, bounds=bounds,
            sparse=self.sparse, max_wall_s=None, call=call,
            scan=partial(self._scan, template, tumor, normal, done),
        )
        self._warn_on_loss()
        if stats is not None:
            stats.n_workers = self.n_workers
            prefix = work_prefix_by_level(self.scheme, g)
            for lease in ledger.leases:
                pid, wall = done[lease.lease_id, lease.completed_by]
                stats.chunks.append(
                    ChunkRecord(
                        chunk=lease.lease_id,
                        lam_start=lease.lam_start,
                        lam_end=lease.lam_end,
                        work=cumulative_work_before(
                            self.scheme, g, lease.lam_end, prefix
                        )
                        - cumulative_work_before(
                            self.scheme, g, lease.lam_start, prefix
                        ),
                        combos_scored=lease.counters.combos_scored,
                        wall_seconds=wall,
                        worker_pid=pid,
                        inline_retry=lease.completed_by < 0,
                    )
                )
        return best

    def _warn_on_loss(self) -> None:
        """Warn once per engine, in the caller's thread, after a real loss
        (a rank thread's warning would be retried into silence)."""
        with self._lock:
            if self._loss is None or self._warned:
                return
            self._warned = True
        exc, tel = self._loss, get_telemetry()
        if tel.flight is not None:
            tel.flight.dump(
                "pool-degraded", exc=exc, telemetry=tel, fault_report=self.report,
            )
        warnings.warn(
            f"pool worker lost ({type(exc).__name__}: {exc}); "
            "recovering the λ-range — results are unaffected",
            PoolDegradedWarning,
            stacklevel=3,
        )
