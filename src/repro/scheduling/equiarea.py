"""Equi-area (EA) scheduling: equal *work* per GPU (Section III-C).

The objective is to cut the thread range so the cumulative workload of
every partition approximately equals ``total_work / n_parts``.  Walking
the ``C(G, 3)`` individual threads to find the cut points takes hours and
exhausts memory at paper scale; the paper's O(G) formulation exploits the
fact that threads come in ``G`` contiguous *levels* of identical work
(``C(m, f-1)`` threads of work ``C(G-1-m, d)`` at level ``m``), so the
number of threads to take from the current level is a single division.

Both the O(G) level walk (:func:`equiarea_schedule`) and the naive
per-thread prefix scan (:func:`equiarea_schedule_naive`, for the ablation
benchmark) are provided; they produce identical boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import (
    cumulative_work_before,
    level_range,
    level_work,
    total_threads,
    total_work,
    work_prefix_by_level,
)

__all__ = [
    "LEASES_PER_PULLER",
    "equiarea_schedule",
    "equiarea_schedule_naive",
    "equiarea_range_boundaries",
    "lambda_cut_for_work",
]

#: The elastic lease grain: equi-area ranges cut per puller (a rank of
#: either backend) when work is pulled rather than pre-assigned.  Finer than
#: one-per-puller so stealing has grain — a lost or straggling puller
#: re-pools a quarter of its share, not all of it.
LEASES_PER_PULLER = 4


def lambda_cut_for_work(
    scheme: Scheme, g: int, target_work: int, prefix: "list[int] | None" = None
) -> int:
    """Smallest thread id whose preceding cumulative work reaches ``target_work``.

    One step of the level walk, exposed for schedulers that compute their
    own targets (e.g. the latency-aware rebalancer).  ``prefix`` is the
    :func:`work_prefix_by_level` table, recomputed if not supplied.
    """
    if prefix is None:
        prefix = work_prefix_by_level(scheme, g)
    t_total = total_threads(scheme, g)
    if target_work <= 0:
        return 0
    if target_work >= prefix[g]:
        return t_total
    # Smallest level m with prefix[m+1] >= target (prefix is sorted).
    lo_m, hi_m = 0, g
    while lo_m < hi_m:
        mid = (lo_m + hi_m) // 2
        if prefix[mid + 1] < target_work:
            lo_m = mid + 1
        else:
            hi_m = mid
    m = lo_m
    w = level_work(scheme, g, m)
    lo, hi = level_range(scheme, m)
    if w == 0:
        return lo
    need = target_work - prefix[m]
    return min(lo + (need + w - 1) // w, hi)


def equiarea_schedule(scheme: Scheme, g: int, n_parts: int) -> Schedule:
    """O(G) level-walk equi-area partitioner.

    Cut ``p`` is placed at the first thread at which the cumulative work
    reaches ``ceil(total * p / n_parts)``; within a level (where all
    threads have equal work ``w``) that thread index is found by one
    integer division.  All arithmetic is exact Python ints, which matters
    at ``C(20000, 4) ~ 6.6e15`` where float64 would misplace cuts.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    t_total = total_threads(scheme, g)
    w_total = total_work(scheme, g)
    prefix = work_prefix_by_level(scheme, g)  # cumulative work before level m

    boundaries = [0]
    m = 0  # current level
    for p in range(1, n_parts):
        target = (w_total * p + n_parts - 1) // n_parts  # ceil
        # Advance to the level containing the target (prefix is sorted).
        while m < g and prefix[m + 1] < target:
            m += 1
        if m >= g:
            boundaries.append(t_total)
            continue
        w = level_work(scheme, g, m)
        lo, hi = level_range(scheme, m)
        if w == 0:
            # Zero-work tail levels: every remaining thread is free; cut at
            # the level start so free threads spread over later partitions.
            cut = max(boundaries[-1], lo)
        else:
            need = target - prefix[m]
            n_threads = (need + w - 1) // w  # ceil: threads needed from level m
            cut = min(lo + n_threads, hi)
        cut = max(cut, boundaries[-1])
        boundaries.append(min(cut, t_total))
    boundaries.append(t_total)
    return Schedule(scheme=scheme, g=g, boundaries=tuple(boundaries), policy="equiarea")


def equiarea_range_boundaries(
    scheme: Scheme, g: int, lam_start: int, lam_end: int, n_parts: int
) -> tuple[int, ...]:
    """Equi-area cut points of the sub-range ``[lam_start, lam_end)``.

    The same level walk as :func:`equiarea_schedule`, restricted to an
    arbitrary thread sub-range so a single GPU partition (or the whole
    grid) can itself be fanned out — :meth:`repro.cluster.leases.
    LeaseLedger.build` cuts equal-*work* leases with this.  For the full grid the cuts are
    identical to ``equiarea_schedule(scheme, g, n_parts).boundaries``.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    t_total = total_threads(scheme, g)
    lam_start = max(0, min(lam_start, t_total))
    lam_end = max(lam_start, min(lam_end, t_total))
    prefix = work_prefix_by_level(scheme, g)
    w_lo = cumulative_work_before(scheme, g, lam_start, prefix)
    span = cumulative_work_before(scheme, g, lam_end, prefix) - w_lo
    bounds = [lam_start]
    for p in range(1, n_parts):
        target = w_lo + (span * p + n_parts - 1) // n_parts  # ceil
        cut = lambda_cut_for_work(scheme, g, target, prefix)
        bounds.append(min(max(cut, bounds[-1]), lam_end))
    bounds.append(lam_end)
    return tuple(bounds)


def equiarea_schedule_naive(scheme: Scheme, g: int, n_parts: int) -> Schedule:
    """O(T) per-thread prefix-scan equi-area partitioner (ablation baseline).

    Materializes the full per-thread workload array — the approach the
    paper reports as taking tens of hours and running out of memory at
    ``C(G, 3)`` scale.  Only usable at small ``g``.

    The prefix scan accumulates exact Python integers (object dtype), not
    float64: cumulative work passes 2**53 well before paper scale (e.g.
    ``C(200, 10)`` for a depth-10 inner loop), at which point a float64
    ``cumsum`` can no longer represent the running total exactly and the
    ``searchsorted`` cut may land on the wrong thread — breaking the
    "identical boundaries" guarantee against the O(G) level walk.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    t_total = total_threads(scheme, g)
    w_total = total_work(scheme, g)
    # Per-thread work, materialized level by level with exact integers.
    works = np.empty(t_total, dtype=object)
    for m in range(g):
        lo, hi = level_range(scheme, m)
        if hi > lo:
            works[lo:hi] = level_work(scheme, g, m)
    cumulative = np.empty(t_total + 1, dtype=object)
    cumulative[0] = 0
    np.cumsum(works, out=cumulative[1:])  # object dtype: exact int adds
    boundaries = [0]
    for p in range(1, n_parts):
        target = (w_total * p + n_parts - 1) // n_parts  # exact int, no float()
        cut = int(np.searchsorted(cumulative, target, side="left"))
        cut = max(min(cut, t_total), boundaries[-1])
        boundaries.append(cut)
    boundaries.append(t_total)
    return Schedule(scheme=scheme, g=g, boundaries=tuple(boundaries), policy="equiarea-naive")
