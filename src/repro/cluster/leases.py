"""λ-range leases: the work-stealing currency of the elastic scale-out.

The paper's static scale-out cuts the λ thread-grid once, equi-area,
into exactly one partition per device — correct for a fixed fleet, but
structurally straggler-prone once pruning makes per-range work
non-uniform, and helpless when ranks join or leave mid-solve.  The
elastic path instead cuts each iteration's λ-space into a pool of
**leases**, finer than one-per-rank, owned by a :class:`LeaseLedger`
on the driver (rank 0): ranks *pull* leases, each grant arms a
time-to-live, and a lease whose holder stays silent past it (or
departs) returns to the pool for a survivor to steal.

Determinism argument: a lease's result is a pure function of its
``[lam_start, lam_end)`` range — never of who computed it or when — and
:meth:`LeaseLedger.merge` folds the per-lease winners through
:func:`repro.core.reduction.multi_stage_reduce` in **lease-id order**.
Steals, duplicate completions (a stolen lease finished by both the
thief and a resurfacing straggler) and join/leave churn therefore
cannot change the winner: the merge input is the same ordered list of
range-winners on every run.  Kernel counters are kept per lease and
folded in the same order, with duplicates dropped at completion time,
so work accounting closes exactly once per lease.

A static schedule is the same ledger cut at the schedule's partition
boundaries: its cuts balance the work, and no lease is reserved for a
rank.  Every lease is pulled by whoever asks first, lowest id first.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field

from repro.core.reduction import multi_stage_reduce
from repro.scheduling.equiarea import equiarea_range_boundaries
from repro.telemetry.session import get_telemetry

__all__ = ["Lease", "LeaseLedger", "LEASE_STATES"]

#: Lease lifecycle: ``available`` (in the pool) -> ``granted`` (held by a
#: rank, deadline-armed) -> ``completed`` (result recorded, terminal).
#: ``granted`` falls back to ``available`` on expiry or forfeiture.
LEASE_STATES = ("available", "granted", "completed")


@dataclass
class Lease:
    """One λ-range unit of stealable work.

    ``grants`` counts how many times the lease was handed out; any grant
    after the first is a steal (the range moved to a new holder after an
    expiry or forfeiture).  ``previous_holders`` keeps the churn trail
    for fault attribution: its first entry is the rank the lease
    started with.

    The ``*_ctx`` fields carry causal span contexts (see
    :mod:`repro.telemetry.causal`): ``grant_ctx`` is the holder's span
    at acquire time, ``stolen_from_ctx`` is the *previous* holder's
    grant context saved when the grant was revoked, and
    ``complete_ctx`` is the completing span (the merge links
    ``complete`` edges to these).  ``wall_seconds`` is the completing
    attempt's search time.  ``victim_ctx`` is the pending
    ``stolen_from_ctx`` *bound at grant time*: the thief's search links
    its ``steal`` edge to the victim it is redoing work for, and a
    later revocation of the thief's own grant (a hang outliving its
    TTL mid-search) cannot clobber it.  All ``None`` when telemetry is
    disabled — contexts never affect scheduling.
    """

    lease_id: int
    lam_start: int
    lam_end: int
    state: str = "available"
    holder: "int | None" = None
    deadline: float = float("inf")
    grants: int = 0
    previous_holders: list = field(default_factory=list)
    result: "object | None" = None
    counters: "object | None" = None
    completed_by: "int | None" = None
    wall_seconds: float = 0.0
    grant_ctx: "dict | None" = None
    stolen_from_ctx: "dict | None" = None
    victim_ctx: "dict | None" = None
    complete_ctx: "dict | None" = None

    @property
    def span(self) -> int:
        return self.lam_end - self.lam_start


class LeaseLedger:
    """Thread-safe lease pool with TTL expiry.

    One ledger per arg-max call.  ``ttl_s`` arms a deadline on every
    grant (restarted by :meth:`take_up`): a holder that does not
    complete within the TTL loses the lease back to the pool once
    :meth:`expire` runs (``ttl_s=None`` disables the clock: a silent
    holder then keeps its lease until it resurfaces).
    """

    def __init__(
        self,
        boundaries: "tuple[int, ...]",
        ttl_s: "float | None" = None,
    ) -> None:
        if len(boundaries) < 2:
            raise ValueError("need at least one lease range")
        self.boundaries = tuple(boundaries)
        self.ttl_s = ttl_s
        self.leases: "list[Lease]" = []
        for lo, hi in zip(self.boundaries[:-1], self.boundaries[1:]):
            if hi > lo:  # duplicate cuts (tiny grids) make empty ranges
                self.leases.append(
                    Lease(lease_id=len(self.leases), lam_start=lo, lam_end=hi)
                )
        if not self.leases:
            raise ValueError("every lease range is empty")
        self._lock = threading.Lock()
        self._retired: set = set()
        # Available lease ids as one min-heap, so a grant never scans the
        # leases.  Ids are appended in ascending order: already a heap.
        self._heap: "list[int]" = [lease.lease_id for lease in self.leases]
        self._n_granted = 0
        self._n_completed = 0
        self.n_steals = 0
        self.n_expired = 0
        self.n_forfeited = 0
        self.n_duplicates = 0
        self.n_grants = 0

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        scheme,
        g: int,
        n_leases: int,
        ttl_s: "float | None" = None,
    ) -> "LeaseLedger":
        """Equi-area lease cuts over the whole thread grid.

        The same O(G) level walk as every other cut in the repo.
        """
        cuts = equiarea_range_boundaries(scheme, g, max(1, n_leases))
        return cls(cuts, ttl_s=ttl_s)

    # -- lifecycle -----------------------------------------------------

    def _deadline(self, now: "float | None") -> float:
        """When a grant armed at ``now`` expires (``inf``: no TTL)."""
        if self.ttl_s is None:
            return float("inf")
        return (time.monotonic() if now is None else now) + self.ttl_s

    def acquire(self, holder: int, now: "float | None" = None) -> "Lease | None":
        """Grant ``holder`` the lowest-id available lease.

        Returns ``None`` when there is none or the holder has been
        retired.  A grant after a previous holder lost the lease counts
        as a steal.
        """
        tel = get_telemetry()
        with self._lock:
            heap = self._heap
            # A lease completed while pooled (an expired holder
            # resurfacing before the steal) leaves a stale id behind.
            while heap and self.leases[heap[0]].state != "available":
                heapq.heappop(heap)
            if holder in self._retired or not heap:
                return None
            lease = self.leases[heapq.heappop(heap)]
            stolen = lease.grants > 0
            lease.state = "granted"
            lease.holder = holder
            lease.grants += 1
            # The acquiring thread's span context; the pending victim
            # context (saved when the last grant was revoked) binds to
            # this grant so the thief's search links the right ``steal``
            # edge even if this grant is itself revoked before the
            # search closes.
            lease.grant_ctx = tel.context()
            lease.victim_ctx = lease.stolen_from_ctx
            lease.stolen_from_ctx = None
            lease.deadline = self._deadline(now)
            self._n_granted += 1
            self.n_grants += 1
            if stolen:
                self.n_steals += 1
            if tel.enabled:
                tel.count("lease.grants")
                if stolen:
                    tel.count("lease.steals")
                    if tel.flight is not None:
                        tel.flight.note(
                            "lease",
                            event="steal",
                            lease=lease.lease_id,
                            lam_start=lease.lam_start,
                            lam_end=lease.lam_end,
                            thief=holder,
                            previous_holders=list(lease.previous_holders),
                        )
            return lease

    def take_up(self, lease: Lease, holder: int, now: "float | None" = None) -> None:
        """``holder`` starts on a lease the driver acquired on its behalf.

        The grant is causally the holder's, so its context becomes the
        holder's own span (a later thief's ``steal`` edge must reach the
        victim's timeline, not the driver's), and the TTL restarts now:
        the holder's silence is timed from when it took the lease up, not
        from the launch.  A grant revoked in the meantime is left alone.
        """
        with self._lock:
            if lease.state == "granted" and lease.holder == holder:
                lease.grant_ctx = get_telemetry().context()
                lease.deadline = self._deadline(now)

    def _revoke(self, lost, event: str) -> "list[Lease]":
        """Return every granted lease for which ``lost(lease)`` holds to
        the pool; ``event`` (``expired`` / ``forfeited``) names the
        counters and the flight-recorder note."""
        tel = get_telemetry()
        revoked: "list[Lease]" = []
        with self._lock:
            for lease in self.leases:
                if lease.state != "granted" or not lost(lease):
                    continue
                lease.previous_holders.append(lease.holder)
                lease.state = "available"
                lease.holder = None
                lease.deadline = float("inf")
                lease.stolen_from_ctx = lease.grant_ctx
                lease.grant_ctx = None
                self._n_granted -= 1
                heapq.heappush(self._heap, lease.lease_id)
                revoked.append(lease)
            if revoked:
                tally = f"n_{event}"  # n_expired / n_forfeited
                setattr(self, tally, getattr(self, tally) + len(revoked))
        if revoked and tel.enabled:
            tel.count(f"lease.{event}", len(revoked))
            if tel.flight is not None:
                for lease in revoked:
                    tel.flight.note(
                        "lease",
                        event=event,
                        lease=lease.lease_id,
                        lam_start=lease.lam_start,
                        lam_end=lease.lam_end,
                        holder=lease.previous_holders[-1],
                    )
        return revoked

    def expire(self, now: "float | None" = None) -> "list[Lease]":
        """Reclaim granted leases whose deadline has passed.

        The next ``acquire`` by any live rank is the steal.
        """
        if now is None:
            now = time.monotonic()
        return self._revoke(lambda lease: lease.deadline < now, "expired")

    def forfeit(self, holder: int) -> "list[Lease]":
        """Return every lease ``holder`` holds to the pool (crash/leave)."""
        return self._revoke(lambda lease: lease.holder == holder, "forfeited")

    def retire(self, holder: int) -> "list[Lease]":
        """Permanently bar ``holder`` from new grants and forfeit the
        leases it holds."""
        with self._lock:
            self._retired.add(holder)
        return self.forfeit(holder)

    def complete(
        self,
        lease_id: int,
        holder: int,
        result: "object | None",
        counters: "object | None" = None,
        wall_seconds: float = 0.0,
    ) -> bool:
        """Record a lease's range-winner; duplicates are dropped.

        A completion is accepted from *any* holder — including one whose
        grant has since expired and been stolen — because the result is
        a pure function of the λ-range: whoever finishes first supplies
        the identical answer.  The second finisher is recorded as a
        duplicate and contributes nothing (neither result nor counters),
        so accounting closes exactly once per lease.
        """
        tel = get_telemetry()
        with self._lock:
            lease = self.leases[lease_id]
            if lease.state == "completed":
                self.n_duplicates += 1
                if tel.enabled:
                    tel.count("lease.duplicate_results")
                return False
            if lease.holder is not None and lease.holder != holder:
                # Completed by a resurfaced straggler while the steal is
                # still in flight: same range, same result — accept it.
                lease.previous_holders.append(lease.holder)
            if lease.state == "granted":
                self._n_granted -= 1
            self._n_completed += 1
            lease.state = "completed"
            lease.holder = None
            lease.deadline = float("inf")
            lease.result = result
            lease.counters = counters
            lease.wall_seconds = wall_seconds
            lease.completed_by = holder
            lease.complete_ctx = tel.context()
        if tel.enabled:
            tel.count("lease.completed")
        return True

    # -- queries -------------------------------------------------------

    @property
    def n_leases(self) -> int:
        return len(self.leases)

    @property
    def n_completed(self) -> int:
        with self._lock:
            return self._n_completed

    @property
    def done(self) -> bool:
        with self._lock:
            return self._n_completed == len(self.leases)

    def completed_fraction(self) -> float:
        with self._lock:
            return self._n_completed / len(self.leases)

    def moved(self) -> "list[tuple[int, int, int, int]]":
        """``(origin, finisher, lam_start, lam_end)`` for every lease
        completed by someone other than its first holder: the rescheduled
        work of a call."""
        with self._lock:
            return [
                (origin, lease.completed_by, lease.lam_start, lease.lam_end)
                for lease in self.leases
                if lease.state == "completed" and lease.previous_holders
                and (origin := lease.previous_holders[0]) != lease.completed_by
            ]

    def completion_contexts(self) -> "list[dict]":
        """Completion span contexts in lease-id order (for merge links)."""
        with self._lock:
            return [
                lease.complete_ctx
                for lease in self.leases
                if lease.complete_ctx is not None
            ]

    # -- deterministic merge -------------------------------------------

    def merge(self):
        """Fold the per-lease winners in lease-id order.  The whole
        determinism story: the reduction input is identical regardless
        of which rank completed which lease, or in what order, so churn
        cannot change the winner."""
        incomplete = [
            lease.lease_id for lease in self.leases if lease.state != "completed"
        ]
        if incomplete:
            raise RuntimeError(f"leases not completed: {incomplete}")
        return multi_stage_reduce([lease.result for lease in self.leases])

    def merge_counters(self, into) -> None:
        """Fold per-lease kernel counters in lease-id order into ``into``."""
        for lease in self.leases:
            if lease.counters is not None:
                into.merge(lease.counters)

    def assignment_rows(self, call: "int | None" = None) -> "list[dict]":
        """Flight-recorder assignment table: one row per lease."""
        with self._lock:
            return [
                {
                    "lease": lease.lease_id,
                    "lam_start": lease.lam_start,
                    "lam_end": lease.lam_end,
                    "state": lease.state,
                    "holder": lease.holder,
                    "grants": lease.grants,
                    "previous_holders": list(lease.previous_holders),
                    **({"call": call} if call is not None else {}),
                }
                for lease in self.leases
            ]
