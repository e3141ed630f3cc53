"""Distributed greedy search on the rank fleet over simulated nodes.

Demonstrates the paper's execution structure end-to-end: an equi-area
schedule partitions the 3x1 thread grid over 4 simulated Summit nodes
(x6 GPUs).  The thread fleet runs that schedule as pinned leases — each
rank on its own thread searches its own partitions, and one candidate
per rank is reduced at the root — first healthy, then with rank 2 dead
(its partitions are stolen by the survivors, and the winner must not
change); finally the full greedy loop runs distributed and is checked
against the single-engine result.

Run:  python examples/distributed_spmd_demo.py
"""

from repro import (
    CohortConfig,
    FScoreParams,
    MultiHitSolver,
    SCHEME_3X1,
    equiarea_schedule,
    generate_cohort,
)
from repro.cluster import LeaseLedger, spmd_best_combo
from repro.faults import FaultPlan, FaultReport, FaultSpec

N_NODES = 4
GPUS_PER_NODE = 6


def main() -> None:
    cohort = generate_cohort(
        CohortConfig(n_genes=36, n_tumor=120, n_normal=120, hits=4, seed=3)
    )
    tumor = cohort.tumor.to_bitmatrix()
    normal = cohort.normal.to_bitmatrix()
    params = FScoreParams(n_tumor=tumor.n_samples, n_normal=normal.n_samples)

    schedule = equiarea_schedule(SCHEME_3X1, tumor.n_genes, N_NODES * GPUS_PER_NODE)
    print(schedule.describe())
    work = schedule.work_per_part()
    for rank in range(N_NODES):
        parts = work[rank * GPUS_PER_NODE : (rank + 1) * GPUS_PER_NODE]
        print(f"  rank {rank}: per-GPU work {parts}")

    print(f"\nrunning one greedy iteration on the fleet over {N_NODES} ranks...")
    winner = spmd_best_combo(
        LeaseLedger.from_schedule(schedule, GPUS_PER_NODE),
        SCHEME_3X1, tumor, normal, params, N_NODES,
    )
    names = ",".join(cohort.tumor.gene_names[g] for g in winner.genes)
    print(f"  global winner: {names}  F={winner.f:.4f} TP={winner.tp} TN={winner.tn}")
    assert winner.genes in cohort.planted, "first pick should be a planted driver"

    print("\nsame schedule with rank 2 dead...")
    report = FaultReport()
    survived = spmd_best_combo(
        LeaseLedger.from_schedule(schedule, GPUS_PER_NODE),
        SCHEME_3X1, tumor, normal, params, N_NODES,
        fault_plan=FaultPlan(
            (FaultSpec(kind="crash", site="rank", target=2, count=-1),)
        ),
        report=report,
    )
    assert survived == winner, "recovery must not change the winner"
    print(f"  same winner; {report.n_rescheduled} partitions of rank "
          f"{report.dead_ranks[0]} stolen by ranks "
          f"{sorted({r.survivor for r in report.rescheduled})}")

    print("\nrunning the full greedy loop with the distributed backend...")
    dist = MultiHitSolver(
        hits=4, backend="distributed", n_nodes=N_NODES, gpus_per_node=GPUS_PER_NODE
    ).solve(cohort.tumor.values, cohort.normal.values)
    single = MultiHitSolver(hits=4).solve(cohort.tumor.values, cohort.normal.values)
    assert [c.genes for c in dist.combinations] == [c.genes for c in single.combinations]
    print(f"  distributed == single-engine: {len(dist.combinations)} combinations, "
          f"coverage {dist.coverage:.1%}")


if __name__ == "__main__":
    main()
