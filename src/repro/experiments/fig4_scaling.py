"""Fig. 4 — strong and weak scaling of the 3x1 scheme on BRCA.

Paper results: strong scaling 100 -> 1000 nodes, efficiency 80.96-97.96%
(average 90.14% over 200-1000, 84.18% at 1000); weak scaling 100 -> 500
nodes, 94.6% average, ~90% at 500.  Reproduced with the job model driven
by the real equi-area schedule at G = 19411.

The elastic extra (``elastic_nodes=...``) repeats the strong sweep on
the lease-stealing runtime with a ±``churn_fraction`` mid-solve fleet
swap; its efficiencies are measured against the *static* 100-node
baseline, so the gap between the curves is the cost (or gain — fine
leases absorb node jitter) of elasticity.

Where the efficiency goes is read off the job's own timeline: the
largest allocation is re-run traced and :func:`loss_table` buckets every
simulated rank-second with the trace analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.runtime import JobModel, JobResult
from repro.perfmodel.scaling import (
    ScalingPoint,
    elastic_job,
    elastic_strong_scaling_sweep,
    strong_scaling_sweep,
    weak_scaling_sweep,
)
from repro.perfmodel.workloads import BRCA, WorkloadSpec
from repro.scheduling.schemes import SCHEME_3X1
from repro.telemetry.critpath import attribute_time

__all__ = ["Fig4Result", "loss_table", "run", "report"]


def loss_table(job: JobResult) -> "dict[str, float]":
    """Rank-seconds of a traced job by where they went: the analyzer's
    buckets over ``job.spans`` plus set-up (outside the cluster clock) on
    every node.  The four sum to ``n_nodes * total_s``."""
    buckets = attribute_time(job.spans)["buckets"]
    return {
        "compute": buckets["compute"],
        "host_serial": buckets["idle"],
        "comm_wait": buckets["comm_wait"],
        "setup": job.setup_s * job.n_nodes,
    }


@dataclass(frozen=True)
class Fig4Result:
    workload: WorkloadSpec
    strong: list[ScalingPoint]
    weak: list[ScalingPoint]
    elastic: "list[ScalingPoint] | None" = None
    #: :func:`loss_table` of the static / elastic job at its largest node count.
    static_loss: "dict[str, float] | None" = None
    elastic_loss: "dict[str, float] | None" = None

    @property
    def strong_avg_efficiency(self) -> float:
        """Average over the non-baseline node counts (paper: 90.14%)."""
        return float(np.mean([p.efficiency for p in self.strong[1:]]))

    @property
    def strong_at_max_nodes(self) -> float:
        return self.strong[-1].efficiency

    @property
    def weak_avg_efficiency(self) -> float:
        return float(np.mean([p.efficiency for p in self.weak[1:]]))

    @property
    def elastic_at_max_nodes(self) -> "float | None":
        """Churned-fleet efficiency at the largest allocation."""
        return self.elastic[-1].efficiency if self.elastic else None

    @property
    def elastic_overhead_at_max(self) -> "float | None":
        """Fractional runtime cost of churn vs the static fleet at the
        shared max node count (negative = elasticity was free or won)."""
        if not self.elastic:
            return None
        static = {p.n_nodes: p.runtime_s for p in self.strong}
        top = self.elastic[-1]
        if top.n_nodes not in static:
            return None
        return top.runtime_s / static[top.n_nodes] - 1.0


def run(
    workload: WorkloadSpec = BRCA,
    strong_nodes: "list[int] | None" = None,
    weak_nodes: "list[int] | None" = None,
    elastic_nodes: "list[int] | None" = None,
    churn_fraction: float = 0.2,
) -> Fig4Result:
    model = JobModel(scheme=SCHEME_3X1)
    # Baseline is the smallest node count of each sweep (the paper uses
    # 100 nodes, the smallest runnable allocation, as its baseline).
    strong = strong_scaling_sweep(
        model,
        workload,
        strong_nodes,
        baseline_nodes=min(strong_nodes) if strong_nodes else 100,
    )
    weak = weak_scaling_sweep(
        model,
        workload,
        weak_nodes,
        baseline_nodes=min(weak_nodes) if weak_nodes else 100,
    )
    static_loss = loss_table(model.run(workload, strong[-1].n_nodes, trace=True))
    elastic = elastic_loss = None
    if elastic_nodes:
        elastic = elastic_strong_scaling_sweep(
            model,
            workload,
            elastic_nodes,
            baseline_nodes=min(min(elastic_nodes), strong[0].n_nodes),
            churn_fraction=churn_fraction,
        )
        elastic_loss = loss_table(
            elastic_job(
                model, workload, elastic[-1].n_nodes, churn_fraction, trace=True
            )
        )
    return Fig4Result(
        workload=workload,
        strong=strong,
        weak=weak,
        elastic=elastic,
        static_loss=static_loss,
        elastic_loss=elastic_loss,
    )


def _loss_lines(label: str, n_nodes: int, loss: "dict[str, float]") -> list[str]:
    total = sum(loss.values())
    lines = [f"      where the rank-seconds go, {label} fleet at {n_nodes} nodes:"]
    for name, seconds in loss.items():
        lines.append(
            f"        {name:<11} {seconds:12.1f} rank-s  {seconds / total:7.2%}"
        )
    return lines


def report(result: Fig4Result) -> str:
    lines = [f"Fig 4: scaling of the 3x1 scheme, {result.workload.name}"]
    lines.append("  (a) strong scaling (fixed workload):")
    lines.append("      nodes |  runtime (s) | efficiency")
    for p in result.strong:
        lines.append(f"      {p.n_nodes:5d} | {p.runtime_s:12.1f} | {p.efficiency:9.4f}")
    lines.append(
        f"      average efficiency (excl. baseline): "
        f"{result.strong_avg_efficiency:.4f} (paper 0.9014)"
    )
    lines.append(
        f"      efficiency at {result.strong[-1].n_nodes} nodes: "
        f"{result.strong_at_max_nodes:.4f} (paper 0.8418 at 1000)"
    )
    if result.static_loss:
        lines += _loss_lines("static", result.strong[-1].n_nodes, result.static_loss)
    lines.append("  (b) weak scaling (fixed work per GPU, first iteration):")
    lines.append("      nodes |  runtime (s) | efficiency")
    for p in result.weak:
        lines.append(f"      {p.n_nodes:5d} | {p.runtime_s:12.1f} | {p.efficiency:9.4f}")
    lines.append(
        f"      average efficiency (excl. baseline): "
        f"{result.weak_avg_efficiency:.4f} (paper 0.946)"
    )
    if result.elastic:
        lines.append(
            "  (c) elastic strong scaling (lease stealing, ±20% mid-solve churn):"
        )
        lines.append("      nodes |  runtime (s) | efficiency (vs static baseline)")
        for p in result.elastic:
            lines.append(
                f"      {p.n_nodes:5d} | {p.runtime_s:12.1f} | {p.efficiency:9.4f}"
            )
        overhead = result.elastic_overhead_at_max
        if overhead is not None:
            lines.append(
                f"      churn overhead at {result.elastic[-1].n_nodes} nodes "
                f"vs static: {overhead:+.2%}"
            )
        lines += _loss_lines("elastic", result.elastic[-1].n_nodes, result.elastic_loss)
    return "\n".join(lines)
