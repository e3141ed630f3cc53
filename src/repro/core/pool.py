"""Equi-area rank-thread execution backend (the ``"pool"`` backend).

The paper's scale-out cuts the thread grid into equal-*work* ranges,
searches each independently and folds the per-range winners through the
multi-stage max-reduction.  The pool is that shape on the cores of one
host, on the rank fleet of :mod:`repro.cluster.elastic` exactly as the
distributed backend runs it: each call cuts its λ-range into equi-area
leases (one per worker, or :data:`LEASES_PER_PULLER` per worker when
``elastic``), and ``n_workers`` rank threads scan them in-thread
(:func:`repro.core.distributed.search_lease`) against one
:class:`repro.core.engine.NormalHitStore` kept across calls.  Winners
fold through :meth:`LeaseLedger.merge` in lease-id order, so winners,
tie-breaks and ``combos_scored`` are bit-exact with ``"single"`` for any
worker count, cut or schedule.  Recovery is the fleet's one rule
(:func:`repro.core.distributed.run_lease`) under ``rank``-site faults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bitmatrix.matrix import BitMatrix
from repro.core.bounds import BoundTable
from repro.core.combination import MultiHitCombination
from repro.core.engine import NormalHitStore
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

# Bound here but never called by the pool: the benchmark harness
# (benchmarks/perf/trace.py) patches them by these names.
from repro.core.engine import best_in_thread_range  # noqa: F401
from repro.core.reduction import multi_stage_reduce  # noqa: F401
from repro.scheduling.equiarea import equiarea_range_boundaries  # noqa: F401

__all__ = ["ChunkRecord", "PoolEngine", "PoolStats"]


# -- per-run statistics --------------------------------------------------


@dataclass(frozen=True)
class ChunkRecord:
    """What one lease of one arg-max call did, as its completer saw it.

    ``rank`` is the rank thread that completed the lease; ``-1`` (and
    ``inline_retry``) marks a range the driver drained itself.
    ``wall_seconds`` is the completing attempt's scan.  ``worker_pid``
    is always this process's pid (the ranks are threads); the benchmark
    harness still reads it.
    """

    chunk: int
    lam_start: int
    lam_end: int
    work: int
    combos_scored: int
    wall_seconds: float
    worker_pid: int
    inline_retry: bool
    rank: int


@dataclass
class PoolStats:
    """Measured partition stats, accumulated over best_combo calls.

    ``publish_seconds``, ``shipped_bytes`` and ``n_publishes`` are
    always 0: the ranks read the caller's matrices in place.  The
    benchmark harness still reads them.
    """

    n_workers: int = 0
    chunks: list[ChunkRecord] = field(default_factory=list)
    publish_seconds: float = 0.0
    shipped_bytes: int = 0
    n_publishes: int = 0

    @property
    def n_inline_retries(self) -> int:
        return sum(c.inline_retry for c in self.chunks)

    def per_worker(self) -> dict[int, dict]:
        """Aggregate chunk stats per rank (``-1``: the driver's drain)."""
        out: dict[int, dict] = {}
        for c in self.chunks:
            row = out.setdefault(
                c.rank,
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
            f"chunk-work imbalance={max(work) / mean if mean else 1.0:.4f}",
            "  rank | chunks |        work | combos scored | wall (s)",
        ]
        for rank, row in sorted(self.per_worker().items()):
            lines.append(
                f"  {rank:4d} | {row['chunks']:6d} | {row['work']:11d} | "
                f"{row['combos_scored']:13d} | {row['wall_seconds']:8.4f}"
            )
        return "\n".join(lines)


# -- the engine ----------------------------------------------------------


@dataclass
class PoolEngine:
    """Equi-area arg-max over a λ thread-range, on rank threads.

    ``n_workers`` rank threads pull the leases.  ``retry_policy`` and
    ``fault_plan`` (``rank``-site specs, target = rank, call = arg-max
    call number, and ``membership`` churn) act as on the distributed
    backend; ``retry_policy.deadline_s`` is the lease TTL.  ``elastic``
    cuts :data:`LEASES_PER_PULLER` leases per worker instead of one, so
    a straggling rank holds back at most one lease's work.  ``sparse``
    is forwarded to every scan.  Winners and ``combos_scored`` depend on
    none of these; ``word_reads`` depends on the cut (each lease builds
    its own inner tables), not on which rank ran which lease.
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

    _calls: int = field(default=0, init=False, repr=False, compare=False)
    _normal_hits: "NormalHitStore | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    def close(self) -> None:
        """Nothing to release: the rank threads and the ledger live for
        one call."""

    def __enter__(self) -> "PoolEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        if bounds is None:
            self._normal_hits = NormalHitStore.reuse(
                self._normal_hits, self.scheme, g, normal
            )

        n_leases = (LEASES_PER_PULLER if self.elastic else 1) * self.n_workers
        ledger = LeaseLedger.build(
            self.scheme, g, n_leases, lam_start, lam_end,
            ttl_s=self.retry_policy.deadline_s,
        )
        best = spmd_best_combo(
            ledger, self.scheme, tumor, normal, params, self.n_workers,
            fault_plan=self.fault_plan, retry_policy=self.retry_policy,
            report=self.report, counters=counters, bounds=bounds,
            sparse=self.sparse, max_wall_s=None, call=call,
            normal_hits=None if bounds is not None else self._normal_hits,
        )
        if stats is not None:
            stats.n_workers = self.n_workers
            prefix = work_prefix_by_level(self.scheme, g)

            def before(lam: int) -> int:
                return cumulative_work_before(self.scheme, g, lam, prefix)

            stats.chunks.extend(
                ChunkRecord(
                    chunk=lease.lease_id,
                    lam_start=lease.lam_start,
                    lam_end=lease.lam_end,
                    work=before(lease.lam_end) - before(lease.lam_start),
                    combos_scored=lease.counters.combos_scored,
                    wall_seconds=lease.wall_seconds,
                    worker_pid=os.getpid(),
                    inline_retry=lease.completed_by < 0,
                    rank=lease.completed_by,
                )
                for lease in ledger.leases
            )
        return best
