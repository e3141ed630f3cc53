"""SPMD runner: execute a rank function on N simulated ranks.

Each rank runs on its own thread with its own :class:`SimComm` handle, so
blocking MPI semantics (recv before matching send, barriers) behave as on
a real cluster.

Failure semantics mirror a job launcher with a failure detector:

* the first rank that raises **aborts the world** — the barrier is
  broken and every rank blocked in ``recv`` fails fast with
  :class:`CommAbortedError` (no 60 s timeout drain);
* an optional **heartbeat deadline** (``heartbeat_timeout_s``) declares
  a silent rank hung — every communicator operation beats, so a rank
  stuck in a non-returning call is detected without its cooperation;
* the caller receives :class:`RankFailedError` carrying *which* ranks
  failed (primary failures, not the cascade of aborted peers).

The runner only detects: nothing here recovers.  The fault-tolerant
thread fleet is :class:`repro.cluster.elastic.ElasticSPMDRunner`, whose
ranks pull leases instead of exchanging messages.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.comm import CommAbortedError, SimComm, SimCommWorld
from repro.telemetry.session import get_telemetry, set_thread_telemetry

__all__ = ["RankFailedError", "SPMDRunner", "export_heartbeat_staleness"]


class RankFailedError(RuntimeError):
    """One or more ranks failed; carries the primary failures.

    ``failures`` holds ``(rank, exception)`` for ranks that *originated*
    a failure (crashed or were declared hung), excluding ranks that
    merely observed the abort.  The message preserves the historical
    ``"rank N failed: ..."`` form.
    """

    def __init__(self, failures: "list[tuple[int, BaseException]]"):
        self.failures = list(failures)
        self.failed_ranks = sorted({r for r, _ in self.failures})
        rank, exc = self.failures[0]
        super().__init__(f"rank {rank} failed: {exc!r}")


def export_heartbeat_staleness(telemetry, heartbeats, live_ranks, now) -> None:
    """Publish ``spmd.heartbeat_stale_s.rank<r>`` for every live rank and
    ``.max`` over them, re-keyed on each call: a rank that finished or
    left must not keep a stale gauge on /metrics.  The progress monitor
    reads the max to flag a world whose ranks have gone quiet before any
    deadline actually trips."""
    if not telemetry.enabled:
        return
    telemetry.clear_gauges("spmd.heartbeat_stale_s.")
    stalest = 0.0
    for r in live_ranks:
        stale = now - heartbeats[r]
        stalest = max(stalest, stale)
        telemetry.set_gauge(f"spmd.heartbeat_stale_s.rank{r}", stale)
    telemetry.set_gauge("spmd.heartbeat_stale_s.max", stalest)


@dataclass
class SPMDRunner:
    """Runs ``fn(comm, *args, **kwargs)`` on every rank; returns all results.

    ``heartbeat_timeout_s`` (off by default) enables the deadline
    failure detector: a rank whose last communicator heartbeat is older
    than the deadline while its thread is still running is declared
    hung and the world is aborted.  ``abort_grace_s`` bounds how long
    the runner waits for surviving threads to unwind after an abort
    before abandoning them (rank threads are daemonic).
    """

    n_ranks: int
    recv_timeout_s: float = 60.0
    heartbeat_timeout_s: "float | None" = None
    fault_plan: "object | None" = None
    poll_s: float = 0.02
    abort_grace_s: float = 5.0

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        world = SimCommWorld(
            self.n_ranks,
            recv_timeout_s=self.recv_timeout_s,
            fault_plan=self.fault_plan,
        )
        results: list[Any] = [None] * self.n_ranks
        failures: list[tuple[int, BaseException]] = []
        aborted_peers: list[tuple[int, BaseException]] = []
        lock = threading.Lock()

        telemetry = get_telemetry()
        # Re-key the liveness gauges for this world's membership: a
        # previous world's ranks must not outlive it on /metrics.
        telemetry.clear_gauges("spmd.heartbeat_stale_s.")

        def worker(rank: int) -> None:
            # Rank threads inherit the spawner's session (which may be a
            # thread-scoped per-job session under the gateway): rank-side
            # get_telemetry() calls must land on the same timeline.
            set_thread_telemetry(telemetry)
            comm = SimComm(world, rank)
            comm.heartbeat()
            try:
                # Top-level per-rank span: every comm/search span the
                # rank opens nests under it (and inherits its rank tag).
                # A rank abandoned mid-abort never closes its span, so
                # only completed rank lifetimes are recorded.
                with telemetry.span("spmd.rank", cat="spmd", rank=rank):
                    results[rank] = fn(comm, *args, **kwargs)
            except CommAbortedError as exc:
                # Collateral of someone else's failure, not a root cause.
                with lock:
                    aborted_peers.append((rank, exc))
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with lock:
                    failures.append((rank, exc))
                world.abort(f"rank {rank} died: {exc!r}")

        threads = [
            threading.Thread(
                target=worker, args=(r,), name=f"simrank-{r}", daemon=True
            )
            for r in range(self.n_ranks)
        ]
        with telemetry.span("spmd.world", cat="spmd", n_ranks=self.n_ranks):
            for t in threads:
                t.start()
            self._supervise(world, threads, failures, lock)

        primary = failures or aborted_peers
        if primary:
            err = RankFailedError(primary)
            # Dump the black box before the exception leaves the runner:
            # the failed ranks' final spans are already on the ring (a
            # span is recorded on __exit__ even when its body raised).
            if telemetry.flight is not None:
                telemetry.flight.dump(
                    "rank-failed", exc=err, telemetry=telemetry
                )
            raise err from primary[0][1]
        return results

    def _supervise(self, world, threads, failures, lock) -> None:
        """Poll threads until completion, abort, or heartbeat deadline."""
        telemetry = get_telemetry()
        while any(t.is_alive() for t in threads):
            if world.aborted:
                # Give survivors a bounded window to observe the abort
                # and unwind, then abandon any thread still stuck (it is
                # daemonic and its world is being discarded).
                t_end = time.monotonic() + self.abort_grace_s
                while time.monotonic() < t_end and any(
                    t.is_alive() for t in threads
                ):
                    time.sleep(self.poll_s)
                break
            if self.heartbeat_timeout_s is not None:
                now = time.monotonic()
                # Liveness gauges at the detector's own poll cadence.
                export_heartbeat_staleness(
                    telemetry, world.heartbeats,
                    [r for r, t in enumerate(threads) if t.is_alive()], now,
                )
                for r, t in enumerate(threads):
                    if (
                        t.is_alive()
                        and now - world.heartbeats[r] > self.heartbeat_timeout_s
                    ):
                        exc = TimeoutError(
                            f"rank {r} heartbeat stale for more than "
                            f"{self.heartbeat_timeout_s}s (hung)"
                        )
                        with lock:
                            failures.append((r, exc))
                        world.abort(f"rank {r} hung: {exc}")
                        break
            time.sleep(self.poll_s)
