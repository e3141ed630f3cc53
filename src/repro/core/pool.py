"""Equi-area rank-thread execution backend (the ``"pool"`` backend).

The paper's scale-out — cut the thread grid into equal-*work* ranges,
search each, fold the winners through the multi-stage max-reduction —
on the cores of one host: a :class:`repro.core.distributed.FleetEngine`
whose static ledger is one unpinned equi-area lease per worker, over
the whole grid.  Its ``n_workers`` rank threads run exactly as the
distributed backend's, so winners, tie-breaks and ``combos_scored`` are
bit-exact with ``"single"`` for any worker count, cut or schedule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bitmatrix.matrix import BitMatrix
from repro.core.combination import MultiHitCombination
from repro.core.distributed import FleetEngine
from repro.core.fscore import FScoreParams
from repro.core.kernels import KernelCounters
from repro.scheduling.workload import cumulative_work_before, work_prefix_by_level

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


@dataclass(kw_only=True)
class PoolEngine(FleetEngine):
    """Equi-area arg-max over the thread grid, on rank threads.

    ``n_workers`` rank threads pull one lease per worker, or
    :data:`LEASES_PER_PULLER` per worker when ``elastic``, so a
    straggling rank holds back at most one lease's work; the rest is
    :class:`FleetEngine`'s.  ``word_reads`` depends on the cut (each
    lease builds its own inner tables), not on which rank ran which
    lease.
    """

    n_workers: int = 2

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")

    # Bound in this class for the benchmark harness, which times it here.
    close = FleetEngine.close

    def __enter__(self) -> "PoolEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _static_ledger(self, g, ttl_s):
        from repro.cluster.leases import LeaseLedger

        return LeaseLedger.build(self.scheme, g, self.n_workers, ttl_s=ttl_s)

    def best_combo(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        counters: "KernelCounters | None" = None,
        stats: "PoolStats | None" = None,
    ) -> "MultiHitCombination | None":
        """Pooled arg-max over the whole grid.

        Bit-exact with :class:`SingleGpuEngine`: the per-lease winners
        fold through :meth:`LeaseLedger.merge`, so worker count, cuts
        and recovery never change the result.
        """
        g = tumor.n_genes
        if normal.n_genes != g:
            raise ValueError("tumor and normal matrices must share the gene axis")
        best, ledger = self._argmax(
            tumor, normal, params, self.n_workers, counters=counters
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
