"""Strong- and weak-scaling sweeps (Fig. 4).

Strong scaling: fixed workload (BRCA, 4-hit), node counts 100..1000;
efficiency of N nodes relative to the 100-node baseline is
``T(100) * 100 / (T(N) * N)``.

Weak scaling: fixed work *per GPU*, limited to the first greedy
iteration (as in the paper, to remove iteration-count variability).  We
hold per-GPU work constant by scaling the gene count so that
``C(G_N, h) = C(G_100, h) * N / 100``; efficiency is ``T(100) / T(N)``.

Elastic scaling under churn: the lease-based work-stealing runtime is
modelled by a deterministic list-scheduling simulation
(:func:`simulate_elastic_makespan`): per-lease kernel durations are
pulled greedily by an executor fleet that loses and gains members at
configured completed-lease fractions — the same progress-fraction
trigger the live :class:`repro.faults.plan.FaultPlan` membership specs
use.  Efficiency is measured against the *static* baseline runtime, so
the sweep answers "what does ±20% mid-solve churn cost vs the paper's
fixed fleet?".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.perfmodel.runtime import JobModel, JobResult
from repro.perfmodel.workloads import WorkloadSpec
from repro.scheduling.equiarea import equiarea_schedule

__all__ = [
    "ScalingPoint",
    "elastic_job",
    "elastic_strong_scaling_sweep",
    "scaling_efficiency",
    "simulate_elastic_makespan",
    "strong_scaling_sweep",
    "weak_scaling_sweep",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One node-count measurement of a scaling sweep."""

    n_nodes: int
    runtime_s: float
    efficiency: float


def scaling_efficiency(
    baseline_nodes: int, baseline_s: float, n_nodes: int, runtime_s: float
) -> float:
    """Strong-scaling efficiency vs an arbitrary baseline node count."""
    ideal = baseline_s * baseline_nodes / n_nodes
    return ideal / runtime_s


def strong_scaling_sweep(
    model: JobModel,
    workload: WorkloadSpec,
    node_counts: "list[int] | None" = None,
    baseline_nodes: int = 100,
) -> list[ScalingPoint]:
    """Fixed-workload sweep; efficiency relative to ``baseline_nodes``."""
    node_counts = node_counts or [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
    if baseline_nodes not in node_counts:
        node_counts = sorted(set(node_counts) | {baseline_nodes})
    runtimes = {n: model.run(workload, n).total_s for n in node_counts}
    base = runtimes[baseline_nodes]
    return [
        ScalingPoint(
            n_nodes=n,
            runtime_s=runtimes[n],
            efficiency=scaling_efficiency(baseline_nodes, base, n, runtimes[n]),
        )
        for n in node_counts
    ]


def _gene_count_for_work(h: int, target_work: int, g_hint: int) -> int:
    """Smallest G with ``C(G, h) >= target_work`` (monotone search)."""
    g = max(h, int(g_hint))
    while math.comb(g, h) < target_work:
        g += max(1, g // 50)
    while g > h and math.comb(g - 1, h) >= target_work:
        g -= 1
    return g


def weak_scaling_sweep(
    model: JobModel,
    workload: WorkloadSpec,
    node_counts: "list[int] | None" = None,
    baseline_nodes: int = 100,
) -> list[ScalingPoint]:
    """Fixed work-per-GPU sweep (first iteration only)."""
    node_counts = node_counts or [100, 200, 300, 400, 500]
    if baseline_nodes not in node_counts:
        node_counts = sorted(set(node_counts) | {baseline_nodes})
    h = model.scheme.hits
    base_work = math.comb(workload.g, h)
    points = []
    runtimes = {}
    for n in node_counts:
        target = base_work * n // baseline_nodes
        g_n = _gene_count_for_work(h, target, workload.g)
        scaled = WorkloadSpec(
            name=f"{workload.name}@{n}",
            g=g_n,
            n_tumor=workload.n_tumor,
            n_normal=workload.n_normal,
        )
        runtimes[n] = model.run(scaled, n, max_iterations=1).total_s
    base = runtimes[baseline_nodes]
    for n in node_counts:
        points.append(
            ScalingPoint(n_nodes=n, runtime_s=runtimes[n], efficiency=base / runtimes[n])
        )
    return points


# -- elastic scaling under churn -----------------------------------------


def simulate_elastic_makespan(
    durations,
    n_ranks: int,
    leaves: "tuple[tuple[float, int], ...]" = (),
    joins: "tuple[tuple[float, int], ...]" = (),
) -> float:
    """Makespan of list-scheduling ``durations`` on an elastic fleet.

    ``durations`` are per-lease compute seconds, consumed in lease-id
    order by whichever executor frees up first — exactly the
    :class:`repro.cluster.leases.LeaseLedger` grant discipline.
    ``leaves`` / ``joins`` are ``(fraction, count)`` membership events
    fired once the assigned-lease fraction reaches the threshold (the
    progress-fraction trigger of ``membership``-site fault specs): a
    leaving executor *drains* — it finishes the lease in flight but
    pulls no more — and a joiner becomes available at the moment the
    churn fires.  Leaves never drain the last executor.

    Deterministic by construction (a heap of ``(free_at, rank)`` with
    total-order tie-breaks), so the sweep is exactly reproducible.
    """
    if n_ranks < 1:
        raise ValueError("need at least one executor")
    n = len(durations)
    if n == 0:
        return 0.0
    heap = [(0.0, r) for r in range(n_ranks)]
    heapq.heapify(heap)
    alive = set(range(n_ranks))
    next_rank = n_ranks
    leave_q = sorted(leaves)
    join_q = sorted(joins)
    li = ji = 0
    makespan = 0.0
    for i, d in enumerate(durations):
        frac = i / n
        while li < len(leave_q) and frac >= leave_q[li][0]:
            count = min(leave_q[li][1], len(alive) - 1)
            for r in sorted(alive, reverse=True)[:count]:
                alive.discard(r)
            li += 1
        while True:
            free_at, r = heapq.heappop(heap)
            if r in alive:
                break
        while ji < len(join_q) and frac >= join_q[ji][0]:
            for _ in range(join_q[ji][1]):
                alive.add(next_rank)
                heapq.heappush(heap, (free_at, next_rank))
                next_rank += 1
            ji += 1
            # A joiner may now be the earliest-free executor: re-draw.
            heapq.heappush(heap, (free_at, r))
            while True:
                free_at, r = heapq.heappop(heap)
                if r in alive:
                    break
        finish = free_at + float(d)
        makespan = max(makespan, finish)
        heapq.heappush(heap, (finish, r))
    return makespan


def elastic_strong_scaling_sweep(
    model: JobModel,
    workload: WorkloadSpec,
    node_counts: "list[int] | None" = None,
    baseline_nodes: int = 100,
    churn_fraction: float = 0.2,
    leave_at: float = 0.25,
    join_at: float = 0.5,
    leases_per_gpu: int = 4,
) -> list[ScalingPoint]:
    """Strong scaling of the lease-stealing runtime under fleet churn.

    Every iteration's λ-grid is cut into ``leases_per_gpu`` equi-area
    leases per GPU; executors pull them via
    :func:`simulate_elastic_makespan` while ``churn_fraction`` of the
    fleet leaves at ``leave_at`` completed-lease fraction and the same
    number joins back at ``join_at`` — the ±20% mid-solve swap of the
    elastic benchmark (one :func:`elastic_job` per node count).

    Efficiency is relative to the **static** sweep's baseline runtime
    (``T_static(baseline) * baseline / (T_elastic(N) * N)``), so the
    numbers are directly comparable with :func:`strong_scaling_sweep`:
    the gap between the two curves is the price of churn plus stealing
    granularity.
    """
    node_counts = node_counts or [100, 400, 700, 1000]
    if baseline_nodes not in node_counts:
        node_counts = sorted(set(node_counts) | {baseline_nodes})
    base_static = model.run(workload, baseline_nodes).total_s
    points = []
    for n in node_counts:
        runtime = elastic_job(
            model, workload, n, churn_fraction, leave_at, join_at,
            leases_per_gpu,
        ).total_s
        points.append(
            ScalingPoint(
                n_nodes=n,
                runtime_s=runtime,
                efficiency=scaling_efficiency(
                    baseline_nodes, base_static, n, runtime
                ),
            )
        )
    return points


def elastic_job(
    model: JobModel,
    workload: WorkloadSpec,
    n_nodes: int,
    churn_fraction: float = 0.2,
    leave_at: float = 0.25,
    join_at: float = 0.5,
    leases_per_gpu: int = 4,
    trace: bool = False,
) -> JobResult:
    """One elastic job prediction: stolen leases + churned collectives.

    The job loop is :meth:`JobModel.run`; what is elastic is the
    schedule (``leases_per_gpu`` equi-area leases per GPU) and the fold:
    work stealing keeps every surviving executor busy until the pool
    drains, so each rank's compute time is the list-scheduling makespan,
    and the mid-solve ±``churn_fraction`` swap hits the first iteration
    (the cluster's membership churns with it).
    """
    n_exec = n_nodes * model.gpus_per_node
    schedule = equiarea_schedule(
        model.scheme, workload.g, n_exec * max(1, leases_per_gpu)
    )
    k_exec = max(1, round(n_exec * churn_fraction))
    k_nodes = max(1, round(n_nodes * churn_fraction))

    def fold(cluster, lease_times):
        if cluster.iteration:
            makespan = simulate_elastic_makespan(lease_times, n_exec)
        else:
            makespan = simulate_elastic_makespan(
                lease_times, n_exec,
                leaves=((leave_at, k_exec),), joins=((join_at, k_exec),),
            )
            if n_nodes > k_nodes:
                cluster.leave(list(range(n_nodes - k_nodes, n_nodes)))
                cluster.join(k_nodes)
        return np.full(cluster.n_ranks, makespan)

    return model.run(workload, n_nodes, trace=trace, schedule=schedule, fold=fold)
