"""Cost-aware scheduling — §V strategy (4): latency-aware partitioning.

The equi-area scheduler balances *combination counts*, but a combination
is not a fixed amount of time: threads with short inner loops amortize
their per-thread setup (index decode + prefetch loads) over fewer
combinations, so high-λ partitions cost more time per combination.  The
paper's discussion proposes incorporating memory latency into the
scheduler; this module implements that extension.

The cost model mirrors :class:`repro.gpusim.TimingTuning`: a thread at
level ``m`` (inner extent ``w``) costs

    cost(m) = setup + w * per_combo

in abstract cycles, where ``setup`` covers decode + prefetch and
``per_combo`` covers the AND/popcount/load work per inner combination.
The level walk then balances *cost* instead of combinations — the same
O(G) structure, different per-level weight.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import level_range, level_work, total_threads

__all__ = [
    "ThreadCostModel",
    "costaware_schedule",
    "latency_aware_schedule",
    "total_schedule_cost",
]


def total_schedule_cost(
    scheme: Scheme, g: int, cost: "ThreadCostModel | None" = None
) -> float:
    """Modeled cost (abstract cycles) of one full ``C(g, hits)`` scan.

    The same per-level sum :func:`costaware_schedule` balances across
    partitions, summed instead of cut — the gateway's dispatch rule
    (:func:`repro.service.dispatch.decide`) sizes every job from it.
    """
    cost = cost or ThreadCostModel()
    total = 0.0
    for m in range(g):
        lo, hi = level_range(scheme, m)
        total += (hi - lo) * cost.level_cost(scheme, g, m)
    return total


@dataclass(frozen=True)
class ThreadCostModel:
    """Abstract per-thread cost: ``setup + inner_combos * per_combo``.

    Defaults reflect a 31-word BRCA-scale combination: ~308 cycles of
    setup (decode + two prefetched rows) and ~132 cycles per inner
    combination.  Only the *ratio* matters for scheduling.
    """

    setup: float = 308.0
    per_combo: float = 132.0

    def level_cost(self, scheme: Scheme, g: int, m: int) -> float:
        """Cost of one thread at level ``m``."""
        return self.setup + level_work(scheme, g, m) * self.per_combo


def costaware_schedule(
    scheme: Scheme,
    g: int,
    n_parts: int,
    cost: "ThreadCostModel | None" = None,
) -> Schedule:
    """O(G) level walk balancing modeled *time* instead of combinations.

    Identical to :func:`repro.scheduling.equiarea.equiarea_schedule`
    when ``cost.setup == 0``.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    cost = cost or ThreadCostModel()
    t_total = total_threads(scheme, g)

    # Cumulative cost before each level (float64 is fine: scheduling only
    # needs relative precision, and cut repair stays within one thread).
    prefix = [0.0] * (g + 1)
    acc = 0.0
    for m in range(g):
        lo, hi = level_range(scheme, m)
        acc += (hi - lo) * cost.level_cost(scheme, g, m)
        prefix[m + 1] = acc
    total_cost = acc

    boundaries = [0]
    m = 0
    for p in range(1, n_parts):
        target = total_cost * p / n_parts
        while m < g and prefix[m + 1] < target:
            m += 1
        if m >= g:
            boundaries.append(t_total)
            continue
        lo, hi = level_range(scheme, m)
        c = cost.level_cost(scheme, g, m)
        need = target - prefix[m]
        n_threads = int(need / c) + (1 if need % c else 0) if c > 0 else 0
        cut = min(lo + max(n_threads, 0), hi)
        cut = max(cut, boundaries[-1])
        boundaries.append(min(cut, t_total))
    boundaries.append(t_total)
    return Schedule(scheme=scheme, g=g, boundaries=tuple(boundaries), policy="costaware")


def latency_aware_schedule(
    scheme: Scheme,
    g: int,
    n_parts: int,
    times_fn,
    iterations: int = 8,
) -> Schedule:
    """Iteratively rebalance boundaries against a *measured* time model.

    ``times_fn(schedule) -> array of per-partition seconds`` is any time
    oracle — typically :func:`repro.perfmodel.runtime.gpu_busy_times`
    with a device model, which captures the occupancy/latency effects a
    static per-thread cost cannot (the low-index straggler of Fig. 6).

    Each iteration re-cuts the thread axis so that, assuming each
    partition's current time-per-combination rate, the predicted times
    equalize; the best makespan seen is kept (the fixed point need not be
    monotone because partition rates change with their thread counts).
    """
    import numpy as np

    from repro.scheduling.equiarea import equiarea_schedule, lambda_cut_for_work
    from repro.scheduling.workload import total_threads, work_prefix_by_level

    if iterations < 1:
        raise ValueError("need at least one iteration")
    prefix = work_prefix_by_level(scheme, g)
    t_total = total_threads(scheme, g)

    sched = equiarea_schedule(scheme, g, n_parts)
    best = sched
    best_makespan = float(np.max(times_fn(sched)))

    for _ in range(iterations):
        times = np.asarray(times_fn(sched), dtype=np.float64)
        total_t = float(times.sum())
        if total_t <= 0:
            break
        work = np.asarray(sched.work_per_part(), dtype=np.float64)
        cum_t = np.concatenate([[0.0], np.cumsum(times)])
        cum_w = np.concatenate([[0.0], np.cumsum(work)])
        bounds = [0]
        for p in range(1, n_parts):
            target_t = total_t * p / n_parts
            q = int(np.searchsorted(cum_t, target_t, side="right")) - 1
            q = min(max(q, 0), n_parts - 1)
            frac = (target_t - cum_t[q]) / times[q] if times[q] > 0 else 0.0
            target_work = int(round(cum_w[q] + frac * work[q]))
            cut = lambda_cut_for_work(scheme, g, target_work, prefix)
            bounds.append(max(cut, bounds[-1]))
        bounds.append(t_total)
        candidate = Schedule(
            scheme=scheme, g=g, boundaries=tuple(bounds), policy="latency-aware"
        )
        if candidate.boundaries == sched.boundaries:
            break
        sched = candidate
        makespan = float(np.max(times_fn(sched)))
        if makespan < best_makespan:
            best, best_makespan = sched, makespan
    return best
