"""Multi-stage, multi-kernel parallel max-reduction (Section III-E).

Storing one 20-byte candidate per thread at 3x1 scale (``C(G, 3)`` ~
1.22e12 threads for BRCA) would need ~24 TB.  The paper's pipeline:

* **stage 1** — inside the ``maxF`` kernel each CUDA block (512 threads)
  reduces to a single candidate: list shrinks 512x (~47.5 GB, fits in
  node memory);
* **stage 2** — the ``parallelReduceMax`` kernel tree-reduces all block
  candidates on each GPU to one;
* **stage 3** — each MPI rank sends its single 20-byte record to rank 0,
  which reduces across ranks.

The functional reduction here applies the same staging to real candidate
lists (with the library-wide tie rule), and :func:`reduction_plan`
computes the stage sizes / bytes that reproduce the paper's 24 TB -> 47.5
GB -> 20 B accounting.
"""

from __future__ import annotations

from repro.core.combination import COMBO_RECORD_BYTES, MultiHitCombination, better
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import total_threads

__all__ = ["DEFAULT_BLOCK_SIZE", "block_reduce", "multi_stage_reduce", "reduction_plan"]

DEFAULT_BLOCK_SIZE = 512


def block_reduce(
    candidates: list["MultiHitCombination | None"], block_size: int = DEFAULT_BLOCK_SIZE
) -> list["MultiHitCombination | None"]:
    """Stage-1 reduction: one winner per ``block_size`` consecutive candidates."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    out: list["MultiHitCombination | None"] = []
    for start in range(0, len(candidates), block_size):
        blk = candidates[start : start + block_size]
        winner: "MultiHitCombination | None" = None
        for c in blk:
            winner = better(winner, c)
        out.append(winner)
    return out


def multi_stage_reduce(
    candidates: list["MultiHitCombination | None"],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> "MultiHitCombination | None":
    """Repeated block reduction until one candidate remains.

    ``block_size`` must be at least 2: a 1-wide block maps every
    candidate to itself, so the list would never shrink.
    """
    if block_size < 2:
        raise ValueError("multi-stage reduction needs block_size >= 2")
    level = list(candidates)
    while len(level) > 1:
        level = block_reduce(level, block_size)
    return level[0] if level else None


def reduction_plan(
    scheme: Scheme,
    g: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    n_gpus: int = 1,
) -> dict:
    """Stage sizes for the paper's memory accounting.

    Returns entries/bytes for: the naive per-thread candidate list, the
    post-stage-1 (per-block) list, the per-GPU result set, and the bytes
    each MPI rank returns to root.
    """
    threads = total_threads(scheme, g)
    blocks = (threads + block_size - 1) // block_size
    return {
        "threads": threads,
        "naive_list_bytes": threads * COMBO_RECORD_BYTES,
        "blocks": blocks,
        "block_list_bytes": blocks * COMBO_RECORD_BYTES,
        "per_gpu_entries": 1,
        "per_rank_bytes_to_root": COMBO_RECORD_BYTES,
        "root_reduce_entries": n_gpus,
    }
