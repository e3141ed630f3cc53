"""Fig. 8 — computation vs communication time across MPI processes.

Paper: for a 1000-node run, per-rank message-passing overhead is hidden
under the largest computation time — the reduce/broadcast wire time is
microseconds while the per-rank compute skew (straggler wait, which shows
up as communication/idle time) is seconds.

The job runs traced; the report's last line is the trace analyzer on
the first iteration's compute + reduce spans: the critical path's
compute segment names the straggler, ``comm_wait`` is the fleet's wait.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.runtime import JobModel, JobResult
from repro.perfmodel.workloads import BRCA, WorkloadSpec
from repro.scheduling.schemes import SCHEME_3X1
from repro.telemetry.critpath import analyze_trace

__all__ = ["Fig8Result", "run", "report"]


@dataclass(frozen=True)
class Fig8Result:
    workload: WorkloadSpec
    n_nodes: int
    job: JobResult

    @property
    def compute_s(self) -> np.ndarray:
        return self.job.rank_compute_s

    @property
    def comm_s(self) -> np.ndarray:
        return self.job.rank_comm_s

    @property
    def comm_fraction(self) -> float:
        total = self.compute_s + self.comm_s
        return float(self.comm_s.sum() / total.sum())

    @property
    def comm_hidden(self) -> bool:
        """Communication never exceeds the largest rank compute time."""
        return float(self.comm_s.max()) <= float(self.compute_s.max())


def run(workload: WorkloadSpec = BRCA, n_nodes: int = 1000) -> Fig8Result:
    job = JobModel(scheme=SCHEME_3X1).run(workload, n_nodes, trace=True)
    return Fig8Result(workload=workload, n_nodes=n_nodes, job=job)


def report(result: Fig8Result) -> str:
    comp, comm = result.compute_s, result.comm_s
    idxs = np.linspace(0, result.n_nodes - 1, 11).astype(int)
    lines = [
        f"Fig 8: compute/comm split, {result.workload.name}, {result.n_nodes} nodes",
        "  rank | compute (s) | comm+wait (s)",
    ]
    for i in idxs:
        lines.append(f"  {i:4d} | {comp[i]:11.1f} | {comm[i]:13.2f}")
    lines.append(
        f"  mean compute {comp.mean():.1f}s, mean comm+wait {comm.mean():.2f}s "
        f"({result.comm_fraction * 100:.2f}% of total)"
    )
    lines.append(
        "  communication hidden by largest computation time: "
        f"{result.comm_hidden} (paper: yes)"
    )
    first = [
        s
        for s in result.job.spans
        if s["attrs"]["iteration"] == 0 and s["name"] in ("compute", "reduce")
    ]
    analysis = analyze_trace(first)
    crit = next(
        seg["rank"]
        for seg in analysis["critical_path"]["segments"]
        if seg["bucket"] == "compute"
    )
    waited = analysis["attribution"]["buckets"]["comm_wait"]
    lines.append(
        f"  critical path (iteration 1): rank {crit} computes last; "
        f"the fleet waits {waited:.1f} rank-seconds in the reduce"
    )
    return "\n".join(lines)
