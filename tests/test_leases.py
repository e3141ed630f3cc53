"""Lease lifecycle: grant -> renew -> expire -> steal -> deterministic merge.

The :class:`LeaseLedger` is the work-stealing currency of the elastic
scale-out; these tests pin its state machine and the determinism
argument — the merge input is the per-lease winners in lease-id order,
so who completed what, in which order, with how many steals and
duplicates, cannot change the winner.
"""

import random
import sys
import threading
import time

import pytest

from repro.cluster.leases import LEASE_STATES, Lease, LeaseLedger
from repro.core.engine import SingleGpuEngine, best_in_thread_range
from repro.core.kernels import KernelCounters
from repro.scheduling.schemes import SCHEME_3X1, scheme_for
from repro.scheduling.workload import cumulative_work_before, total_threads
from repro.telemetry.session import telemetry_session


@pytest.fixture
def ledger():
    return LeaseLedger.build(SCHEME_3X1, 20, n_leases=6)


def n_granted(ledger) -> int:
    return sum(lease.state == "granted" for lease in ledger.leases)


class TestLedgerConstruction:
    def test_build_covers_the_grid_equi_area(self):
        g = 24
        ledger = LeaseLedger.build(SCHEME_3X1, g, n_leases=8)
        total = total_threads(SCHEME_3X1, g)
        assert ledger.boundaries[0] == 0
        assert ledger.boundaries[-1] == total
        spans = [(lease.lam_start, lease.lam_end) for lease in ledger.leases]
        assert all(hi > lo for lo, hi in spans)
        for (_, a), (b, _) in zip(spans, spans[1:]):
            assert a == b  # contiguous, no gaps or overlaps
        # Equi-area: per-lease work stays within a factor of the mean
        # plus one thread's worth of quantisation.
        works = [
            cumulative_work_before(SCHEME_3X1, g, hi)
            - cumulative_work_before(SCHEME_3X1, g, lo)
            for lo, hi in spans
        ]
        mean = sum(works) / len(works)
        assert max(works) <= 2 * mean

    def test_needs_at_least_one_range(self):
        with pytest.raises(ValueError):
            LeaseLedger((0,))

    def test_states_enumeration(self):
        assert LEASE_STATES == ("available", "granted", "completed")
        lease = Lease(lease_id=0, lam_start=0, lam_end=10)
        assert lease.state == "available" and lease.span == 10


class TestLifecycle:
    def test_acquire_grants_lowest_id_first(self, ledger):
        a = ledger.acquire(0)
        b = ledger.acquire(1)
        assert (a.lease_id, b.lease_id) == (0, 1)
        assert a.state == "granted" and a.holder == 0
        assert n_granted(ledger) == 2 and ledger.n_grants == 2

    def test_exhausted_pool_returns_none(self):
        ledger = LeaseLedger((0, 5, 10))
        assert ledger.acquire(0) is not None
        assert ledger.acquire(0) is not None
        assert ledger.acquire(0) is None

    def test_complete_then_done(self):
        ledger = LeaseLedger((0, 5, 10))
        for _ in range(2):
            lease = ledger.acquire(0)
            assert ledger.complete(lease.lease_id, 0, result=None)
        assert ledger.done and ledger.n_completed == 2
        assert ledger.completed_fraction() == 1.0

    def test_take_up_restarts_the_ttl(self):
        ledger = LeaseLedger((0, 5, 10), ttl_s=1.0)
        lease = ledger.acquire(2, now=100.0)
        assert lease.deadline == pytest.approx(101.0)
        # The holder takes up the driver's grant at t=104: its silence is
        # timed from there, so the lease outlives the launch's deadline.
        ledger.take_up(lease, 2, now=104.0)
        assert lease.deadline == pytest.approx(105.0)
        assert not ledger.expire(now=104.5)
        assert ledger.expire(now=105.5) == [lease]
        # Taken up by anyone but the holder, it is left alone.
        stolen = ledger.acquire(1, now=106.0)
        ledger.take_up(stolen, 2, now=200.0)
        assert stolen.deadline == pytest.approx(107.0)
        # Without a TTL the deadline stays at infinity.
        untimed = LeaseLedger((0, 5, 10))
        lease = untimed.acquire(0)
        untimed.take_up(lease, 0, now=time.monotonic() + 50.0)
        assert lease.deadline == float("inf")

    def test_expire_reclaims_and_next_grant_is_a_steal(self):
        ledger = LeaseLedger((0, 5, 10), ttl_s=1.0)
        lease = ledger.acquire(0, now=100.0)
        reclaimed = ledger.expire(now=102.0)
        assert reclaimed == [lease]
        assert lease.state == "available" and lease.holder is None
        assert lease.previous_holders == [0]
        assert ledger.n_expired == 1 and ledger.n_steals == 0
        stolen = ledger.acquire(1, now=102.0)
        assert stolen is lease and stolen.holder == 1
        assert ledger.n_steals == 1 and stolen.grants == 2

    def test_forfeit_returns_only_that_holders_leases(self):
        ledger = LeaseLedger((0, 5, 10, 15))
        a, b = ledger.acquire(0), ledger.acquire(1)
        dropped = ledger.forfeit(0)
        assert dropped == [a] and a.state == "available"
        assert b.state == "granted"
        assert ledger.n_forfeited == 1

    def test_retire_bars_future_grants(self):
        ledger = LeaseLedger((0, 5, 10))
        ledger.acquire(0)
        ledger.retire(0)
        assert ledger.acquire(0) is None  # barred
        assert ledger.n_forfeited == 1
        assert ledger.acquire(1) is not None  # others unaffected

    def test_duplicate_completion_dropped(self):
        ledger = LeaseLedger((0, 5, 10), ttl_s=1.0)
        lease = ledger.acquire(0, now=100.0)
        ledger.expire(now=102.0)
        ledger.acquire(1, now=102.0)  # the steal
        assert ledger.complete(lease.lease_id, 1, result="thief")
        # The original holder resurfaces with the same range's answer.
        assert not ledger.complete(lease.lease_id, 0, result="straggler")
        assert ledger.n_duplicates == 1
        assert lease.result == "thief" and lease.completed_by == 1

    def test_straggler_completion_accepted_before_thief(self):
        """A resurfaced holder may beat the thief; the range answer wins."""
        ledger = LeaseLedger((0, 5, 10), ttl_s=1.0)
        lease = ledger.acquire(0, now=100.0)
        ledger.expire(now=102.0)
        ledger.acquire(1, now=102.0)
        assert ledger.complete(lease.lease_id, 0, result="straggler")
        assert not ledger.complete(lease.lease_id, 1, result="thief")
        assert lease.completed_by == 0 and ledger.n_duplicates == 1

    def test_holders_and_counts(self):
        ledger = LeaseLedger((0, 5, 10, 15))
        ledger.acquire(3)
        ledger.acquire(7)
        rows = ledger.assignment_rows()
        assert {r["holder"] for r in rows if r["state"] == "granted"} == {3, 7}
        assert (ledger.n_available, n_granted(ledger), ledger.n_completed) == (
            1, 2, 0,
        )

    def test_describe_and_assignment_rows(self, ledger):
        ledger.acquire(0)
        text = ledger.describe()
        assert "granted" in text and "steals=0" in text
        rows = ledger.assignment_rows(call=2)
        assert len(rows) == ledger.n_leases
        assert rows[0]["holder"] == 0 and rows[0]["call"] == 2

    def test_take_up_moves_the_grant_to_the_holders_span(self):
        # A lease the driver acquired on a rank's behalf is causally the
        # rank's once it starts on it; a revoked grant is left alone.
        with telemetry_session() as tel:
            ledger = LeaseLedger((0, 10, 20))
            with tel.span("driver"):
                lease = ledger.acquire(0)
                driver_ctx = lease.grant_ctx
            with tel.span("rank") as rank_span:
                ledger.take_up(lease, 0)
                assert lease.grant_ctx == tel.context() != driver_ctx
            assert lease.grant_ctx["id"] == rank_span.span_id
            ledger.forfeit(0)
            with tel.span("late"):
                ledger.take_up(lease, 0)
            assert lease.grant_ctx is None
            assert lease.stolen_from_ctx["id"] == rank_span.span_id


class TestPinnedLeases:
    """A static schedule on the ledger: lease i is reserved for owners[i]."""

    def test_pinned_lease_goes_only_to_its_live_owner(self):
        ledger = LeaseLedger((0, 5, 10, 15, 20), owners=[0, 0, 1, 1])
        assert ledger.acquire(1).lease_id == 2  # skips rank 0's leases
        assert ledger.acquire(7) is None  # a stranger owns nothing
        assert ledger.acquire(0).lease_id == 0
        assert ledger.n_steals == 0

    def test_retire_unpins_for_survivors_to_steal(self):
        ledger = LeaseLedger((0, 5, 10, 15, 20), owners=[0, 0, 1, 1])
        held = ledger.acquire(0)
        ledger.retire(0)
        # Both of rank 0's leases — the forfeited grant and the one it
        # never reached — are now anyone's, lowest id first.
        assert [ledger.acquire(1).lease_id for _ in range(4)] == [0, 1, 2, 3]
        assert ledger.n_steals == 2 and ledger.n_forfeited == 1
        assert held.previous_holders == [0] and held.owner == 0

    def test_expired_pinned_lease_is_anyones(self):
        """A silent owner keeps no reservation: its expired lease and the
        ones it never reached all go to the shared pool."""
        ledger = LeaseLedger((0, 5, 10), owners=[1, 1], ttl_s=1.0)
        held = ledger.acquire(1, now=0.0)
        assert ledger.acquire(0, now=0.0) is None  # all reserved for rank 1
        assert ledger.expire(now=2.0) == [held]
        assert ledger.acquire(0, now=2.0) is held and ledger.n_steals == 1
        assert ledger.acquire(0, now=2.0).lease_id == 1
        assert ledger.n_steals == 2

    def test_forfeited_pinned_lease_stays_reserved(self):
        ledger = LeaseLedger((0, 5, 10), owners=[1, 1])
        held = ledger.acquire(1)
        assert ledger.forfeit(1) == [held]
        assert not ledger.has_work_for(0) and ledger.acquire(0) is None
        assert ledger.has_work_for(1) and ledger.acquire(1) is held

    def test_from_schedule_pins_rank_major(self):
        from repro.scheduling.equiarea import equiarea_schedule

        schedule = equiarea_schedule(SCHEME_3X1, 20, 6)
        ledger = LeaseLedger.from_schedule(schedule, gpus_per_rank=2, ttl_s=3.0)
        assert ledger.boundaries == schedule.boundaries and ledger.ttl_s == 3.0
        assert [lease.owner for lease in ledger.leases] == [0, 0, 1, 1, 2, 2]

    def test_moved_names_origin_of_leases_finished_elsewhere(self):
        ledger = LeaseLedger((0, 5, 10, 15), owners=[0, 1, 1])
        ledger.complete(ledger.acquire(0).lease_id, 0, "own")
        ledger.acquire(1)
        ledger.retire(1)
        for _ in range(2):
            ledger.complete(ledger.acquire(0).lease_id, 0, "stolen")
        assert ledger.moved() == [(1, 0, 5, 10), (1, 0, 10, 15)]

    def test_owners_drop_with_empty_ranges(self):
        ledger = LeaseLedger((0, 5, 5, 9), owners=[0, 1, 2])
        assert [(l.lease_id, l.owner) for l in ledger.leases] == [(0, 0), (1, 2)]
        with pytest.raises(ValueError):
            LeaseLedger((0, 5, 9), owners=[0])

    def test_assignment_rows_name_the_owner(self):
        pinned = LeaseLedger((0, 5, 10), owners=[0, 1]).assignment_rows()
        assert [row["owner"] for row in pinned] == [0, 1]
        assert "owner" not in LeaseLedger((0, 5, 10)).assignment_rows()[0]

    def test_counts_stay_consistent_through_churn(self):
        ledger = LeaseLedger(tuple(range(0, 41, 5)), ttl_s=1.0)
        a, b = ledger.acquire(0, now=0.0), ledger.acquire(1, now=0.0)
        ledger.expire(now=5.0)  # both back in the pool
        ledger.complete(a.lease_id, 0, "late")  # completed while pooled
        assert ledger.acquire(2, now=5.0) is b  # the stale id is skipped
        assert (ledger.n_available, n_granted(ledger), ledger.n_completed) == (
            6, 1, 1,
        )
        assert ledger.completed_fraction() == 1 / 8 and not ledger.done


class TestConcurrentBookkeeping:
    def test_counts_and_pools_survive_contended_churn(self):
        """More holders than cores grant / forfeit / complete at once; a
        lost update to the per-state counts or the id pools would leave
        them disagreeing with the leases themselves."""
        n_leases, n_threads = 200, 8
        ledger = LeaseLedger(
            tuple(range(n_leases + 1)),
            owners=[i % n_threads for i in range(n_leases)],
        )
        completions = []

        def holder(rank):
            rng = random.Random(rank)
            while not ledger.done:
                lease = ledger.acquire(rank)
                if lease is None:
                    if rank % 2:
                        return  # retired, or nothing it may take is left
                    continue
                if rng.random() < 0.3:
                    # Odd ranks die for good (unpinning their leases for
                    # the even ones), even ranks merely drop the grant.
                    (ledger.retire if rank % 2 else ledger.forfeit)(rank)
                elif ledger.complete(lease.lease_id, rank, rank):
                    completions.append(lease.lease_id)

        threads = [
            threading.Thread(target=holder, args=(r,), daemon=True)
            for r in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ledger.done and sorted(completions) == list(range(n_leases))
        assert (ledger.n_available, n_granted(ledger), ledger.n_completed) == (
            0, 0, n_leases,
        )
        assert ledger.n_grants == n_leases + ledger.n_forfeited


class TestDeterministicMerge:
    def test_merge_requires_all_completed(self):
        ledger = LeaseLedger((0, 5, 10))
        lease = ledger.acquire(0)
        ledger.complete(lease.lease_id, 0, result=None)
        with pytest.raises(RuntimeError, match="not completed"):
            ledger.merge()

    def test_merge_is_order_and_holder_independent(self, small_bitmatrices):
        """Completing leases in shuffled order by arbitrary holders gives
        the same winner as the single-GPU reference — the determinism
        guarantee the whole elastic path rests on."""
        tumor, normal, params = small_bitmatrices
        scheme, g = scheme_for(3, 2), tumor.n_genes
        ref = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)

        def solve(order_seed):
            ledger = LeaseLedger.build(scheme, g, n_leases=7)
            order = list(range(ledger.n_leases))
            random.Random(order_seed).shuffle(order)
            for i in order:
                lease = ledger.leases[i]
                counters = KernelCounters()
                winner = best_in_thread_range(
                    scheme, g, tumor, normal, params,
                    lease.lam_start, lease.lam_end, counters=counters,
                )
                ledger.complete(i, holder=order_seed % 3, result=winner,
                                counters=counters)
            merged = ledger.merge()
            total = KernelCounters()
            ledger.merge_counters(total)
            return merged, total.combos_scored

        winners = [solve(seed) for seed in (0, 1, 2)]
        assert all(w == winners[0] for w in winners)
        assert winners[0][0] == ref
        # Counter closure: every combination scored exactly once.
        assert all(n == winners[0][1] for _, n in winners)

    def test_merge_counters_skips_missing(self):
        ledger = LeaseLedger((0, 5, 10))
        for i in range(2):
            lease = ledger.acquire(9)
            ledger.complete(lease.lease_id, 9, result=None,
                            counters=KernelCounters() if i == 0 else None)
        total = KernelCounters()
        ledger.merge_counters(total)  # one None counter: no crash
        assert total.combos_scored == 0
