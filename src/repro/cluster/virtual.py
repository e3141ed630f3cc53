"""Deterministic virtual-time cluster for paper-scale timing experiments.

Rather than running 6000 GPU kernels, each rank carries a virtual clock;
compute work advances a rank's clock by a model-provided duration, and a
collective synchronizes clocks under the network cost model.  The
per-rank split into *computation* and *communication* (= time spent
waiting inside collectives, which is dominated by straggler skew) is the
data behind Fig. 8.

A cluster built with ``trace=True`` also records its timeline in the
span/link schema of :mod:`repro.telemetry` — the dicts
``Tracer.export()`` produces, with virtual seconds × 1e9 as
``start_ns``/``end_ns`` — so ``analyze_trace``, the exporters (via
``Tracer.absorb``) and ``multihit trace analyze`` read a simulated job
as they read a real one.  One span per rank per phase: ``compute`` and
``host.serial`` (cat ``virtual``), ``reduce`` and ``bcast`` (cat
``comm``).  A reduce links (kind ``message``) to the straggler's
compute, a bcast to the root's reduce, and every span (kind ``causal``)
to its rank's previous span; ``tid``/``rank`` are
:attr:`RankTimeline.rank`.  DESIGN §9 has the bucketing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.network import SUMMIT_NETWORK, NetworkModel
from repro.telemetry.spans import Span

__all__ = ["HOST_SERIAL", "RankTimeline", "VIRTUAL_PID", "VirtualCluster"]

#: ``pid`` of every virtual span (no OS process; constant = reproducible).
VIRTUAL_PID = 0
#: Span name of per-iteration serial host work; ``classify_span``: idle.
HOST_SERIAL = "host.serial"


@dataclass
class RankTimeline:
    """Accumulated virtual time of one rank, split by activity."""

    compute_s: float = 0.0
    comm_s: float = 0.0
    rank: int = 0  # stable id: kept across leave(), never reused by join()

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s


@dataclass
class VirtualCluster:
    """Virtual clocks for ``n_ranks`` MPI processes."""

    n_ranks: int
    network: NetworkModel = field(default_factory=lambda: SUMMIT_NETWORK)
    trace: bool = False

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        self.clock = np.zeros(self.n_ranks, dtype=np.float64)
        self.timelines = [RankTimeline(rank=r) for r in range(self.n_ranks)]
        self.departed: list[RankTimeline] = []
        self.iteration = 0  # the driver sets it; spans carry it in attrs
        self.spans: "list[dict] | None" = [] if self.trace else None
        self._last_span: dict[int, int] = {}  # rank id -> its latest span id

    # -- elastic membership ----------------------------------------------

    def join(self, n: int = 1) -> None:
        """Register ``n`` new ranks mid-run.

        A joiner's clock starts at the current global elapsed time (it
        cannot have done work before it existed), so the next collective
        treats it like any other rank.
        """
        if n < 1:
            raise ValueError("must join at least one rank")
        now = self.elapsed_s
        self.clock = np.concatenate(
            [self.clock, np.full(n, now, dtype=np.float64)]
        )
        fresh = len(self.timelines) + len(self.departed)
        self.timelines.extend(RankTimeline(rank=fresh + i) for i in range(n))
        self.n_ranks += n

    def leave(self, ranks: "list[int]") -> None:
        """Remove ``ranks`` (current indices) from the fleet mid-run.

        Departed timelines move to :attr:`departed` so their accumulated
        compute/comm time stays in the accounting; subsequent collectives
        span only the survivors.  Removing every rank is an error.
        """
        gone = sorted(set(ranks))
        if any(r < 0 or r >= self.n_ranks for r in gone):
            raise ValueError(f"rank out of range in {ranks}")
        if len(gone) >= self.n_ranks:
            raise ValueError("cannot remove every rank")
        keep = [r for r in range(self.n_ranks) if r not in gone]
        self.departed.extend(self.timelines[r] for r in gone)
        self.clock = self.clock[keep]
        self.timelines = [self.timelines[r] for r in keep]
        self.n_ranks = len(keep)

    # -- compute ---------------------------------------------------------

    def compute(self, durations: np.ndarray, name: str = "compute") -> None:
        """Advance every rank's clock by its own compute duration."""
        durations = np.asarray(durations, dtype=np.float64)
        if durations.shape != (self.n_ranks,):
            raise ValueError(
                f"expected {self.n_ranks} durations, got shape {durations.shape}"
            )
        if np.any(durations < 0):
            raise ValueError("durations cannot be negative")
        starts = self.clock.copy() if self.trace else None
        self.clock += durations
        for r in range(self.n_ranks):
            self.timelines[r].compute_s += float(durations[r])
        if self.trace:
            self._emit(name, "virtual", starts)

    # -- communication -----------------------------------------------------

    def reduce_to_root(self, n_bytes: int) -> float:
        """Tree-reduce: all clocks sync to the straggler plus wire time.

        Each rank's *communication* time is its wait for the straggler
        plus the reduce itself — exactly the "message passing overhead is
        hidden by the largest computation time" effect of Fig. 8.
        Returns the post-reduce global clock.
        """
        wire = self.network.tree_reduce_time(self.n_ranks, n_bytes)
        return self._collective("reduce", wire, int(np.argmax(self.clock)))

    def bcast_from_root(self, n_bytes: int) -> float:
        wire = self.network.bcast_time(self.n_ranks, n_bytes)
        return self._collective("bcast", wire, 0)

    def _collective(self, name: str, wire: float, cause: int) -> float:
        """Sync every clock to ``max + wire``; the wait books as comm.
        ``cause``: index of the rank whose latest span caused this one."""
        starts = self.clock.copy() if self.trace else None
        finish = float(self.clock.max()) + wire
        for r in range(self.n_ranks):
            self.timelines[r].comm_s += finish - float(self.clock[r])
        self.clock[:] = finish
        if self.trace:
            self._emit(name, "comm", starts, cause)
        return finish

    # -- timeline ------------------------------------------------------------

    def _emit(
        self, name: str, cat: str, starts: np.ndarray, cause: "int | None" = None
    ) -> None:
        """The one emit site: a span per rank over ``[starts[r], clock[r]]``."""
        spans, last = self.spans, self._last_span
        begin = np.rint(starts * 1e9).astype(np.int64).tolist()
        end = np.rint(self.clock * 1e9).astype(np.int64).tolist()
        cause_id = None if cause is None else last.get(self.timelines[cause].rank)
        for r, line in enumerate(self.timelines):
            span = Span(
                name=name,
                cat=cat,
                span_id=len(spans) + 1,
                pid=VIRTUAL_PID,
                tid=line.rank,
                rank=line.rank,
                start_ns=begin[r],
                end_ns=end[r],
                attrs={"iteration": self.iteration},
            )
            prev = last.get(line.rank)
            if cause_id is not None:
                span.link({"pid": VIRTUAL_PID, "id": cause_id}, kind="message")
            if prev is not None and prev != cause_id:
                span.link({"pid": VIRTUAL_PID, "id": prev})
            last[line.rank] = span.span_id
            spans.append(span.to_dict())

    # -- results ------------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Virtual wall-clock of the whole job so far."""
        return float(self.clock.max())

    def compute_times(self) -> np.ndarray:
        return np.array([t.compute_s for t in self.timelines])

    def comm_times(self) -> np.ndarray:
        return np.array([t.comm_s for t in self.timelines])
