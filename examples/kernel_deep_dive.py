"""Kernel deep dive: the maxF launch, roofline, occupancy.

Follows one greedy iteration at the hardware-structure level:

1. find the iteration's winner with the vectorized engine, then look at
   the same launch through the V100 timing model (its compute, memory
   and tail bounds) and the in-kernel stage-1 reduction that shrinks
   the candidate list 512x;
2. place the kernel on the V100 roofline to see why the optimized
   configuration is compute-bound;
3. compute its occupancy and connect the numbers to the timing model's
   latency-hiding thresholds.

Run:  python examples/kernel_deep_dive.py
"""

from repro import FScoreParams
from repro.core.engine import SingleGpuEngine
from repro.core.memopt import MemoryConfig
from repro.core.reduction import DEFAULT_BLOCK_SIZE, reduction_plan
from repro.data.registry import dataset
from repro.gpusim import KernelResources, kernel_time, occupancy
from repro.perfmodel import operating_point, ridge_intensity
from repro.perfmodel.runtime import partition_kernel_stats
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.schemes import scheme_for


def main() -> None:
    cohort = dataset("acc-mini")
    tumor = cohort.tumor.to_bitmatrix()
    normal = cohort.normal.to_bitmatrix()
    params = FScoreParams(n_tumor=tumor.n_samples, n_normal=normal.n_samples)
    g = tumor.n_genes

    scheme = scheme_for(cohort.config.hits, cohort.config.hits - 1)

    print("=== 1. one launch of the maxF kernel ===")
    winner = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
    names = ",".join(cohort.tumor.gene_names[i] for i in winner.genes)
    print(f"  winner (vectorized engine): {names}  F={winner.f:.4f}")

    schedule = equiarea_schedule(scheme, g, 1)
    stats = partition_kernel_stats(
        schedule, 0, schedule.work_per_part()[0],
        tumor.n_words, normal.n_words, MemoryConfig(),
    )
    t = kernel_time(stats)
    print(f"  timing model on one V100: {stats.n_threads} threads, "
          f"{stats.n_combos} combinations")
    print(f"    compute {t.t_compute_s + t.t_setup_s:.2e} s, "
          f"memory {t.t_memory_s:.2e} s, tail {t.t_tail_s:.2e} s "
          f"-> {t.bound}-bound (issue_hide {t.issue_hide:.2f}: "
          "too few threads to hide load latency)")

    plan = reduction_plan(scheme, g)
    print(f"  stage-1 (in-kernel) reduction: {plan['threads']} thread records "
          f"-> {plan['blocks']} block records (one per {DEFAULT_BLOCK_SIZE}-thread "
          "block) -> 1 winner after parallelReduceMax")

    print("\n=== 2. roofline placement (V100) ===")
    print(f"  ridge: {ridge_intensity():.2f} ops/byte")
    for mem, label in [
        (MemoryConfig(False, False, False), "no optimizations"),
        (MemoryConfig(), "MemOpt1+2 + BitSplicing"),
    ]:
        p = operating_point(scheme, words=tumor.n_words + normal.n_words, memory=mem)
        side = "compute-bound" if p.compute_bound else "memory-bound"
        print(f"  {label:24s}: {p.intensity:6.1f} ops/byte -> {side}")

    print("\n=== 3. occupancy of the scoring kernel ===")
    occ = occupancy(KernelResources(words=tumor.n_words + normal.n_words))
    print(f"  {occ.blocks_per_sm} blocks/SM, {occ.threads_per_sm} threads/SM "
          f"({occ.fraction:.0%} occupancy, limited by {occ.limiter})")
    print(f"  device-wide resident threads: {occ.device_threads} "
          "(the timing model's latency-hiding budget)")
    print("  a 2x2 partition with only thousands of threads cannot reach this "
          "-> the Fig. 6 stragglers")


if __name__ == "__main__":
    main()
