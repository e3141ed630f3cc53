"""Functional block-level execution of the paper's two CUDA kernels.

The vectorized engine (:mod:`repro.core.engine`) computes the same
*result* as the CUDA code but does not follow its block structure.  This
executor does: it walks the grid block by block exactly as a launch of
``maxF`` would —

* each block owns ``block_size`` consecutive linear thread ids;
* every thread decodes its tuple, loops its inner combinations against
  the packed matrices, and keeps a running best;
* the block reduces its threads' bests to **one 20-byte record**
  (stage 1 of Section III-E, the 512x list shrink);

then runs ``parallelReduceMax`` (stage 2): a tree reduction over the
per-block records on-device.  Alongside the records it accounts cycles
and global word reads per block using the same constants as the timing
model, giving a per-block busy profile the analytic model can be checked
against at small scale.

This is the slowest engine in the library (it mirrors hardware
structure, not NumPy efficiency) and is meant for validation and
teaching, not production solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.combinatorics.enumeration import combinations_array
from repro.core.combination import MultiHitCombination, better
from repro.core.fscore import FScoreParams
from repro.core.memopt import MemoryConfig
from repro.core.reduction import DEFAULT_BLOCK_SIZE, multi_stage_reduce
from repro.faults.plan import FaultInjected
from repro.gpusim.timing import TimingTuning
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import total_threads
from repro.telemetry.session import get_telemetry

__all__ = ["BlockResult", "KernelLaunchResult", "BlockKernelExecutor"]


@dataclass(frozen=True)
class BlockResult:
    """One CUDA block's outcome: its winner record plus its cost account."""

    block_id: int
    first_thread: int
    n_threads: int
    winner: "MultiHitCombination | None"
    cycles: float
    word_reads: int


@dataclass(frozen=True)
class KernelLaunchResult:
    """A full maxF + parallelReduceMax launch over a thread range."""

    blocks: list[BlockResult]
    winner: "MultiHitCombination | None"

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_cycles(self) -> float:
        return sum(b.cycles for b in self.blocks)

    @property
    def total_word_reads(self) -> int:
        return sum(b.word_reads for b in self.blocks)

    @property
    def stage1_records(self) -> int:
        """Candidates surviving the in-kernel block reduction."""
        return sum(1 for b in self.blocks if b.winner is not None)

    def busy_profile(self) -> np.ndarray:
        """Per-block cycle counts (the intra-GPU balance picture)."""
        return np.array([b.cycles for b in self.blocks])


@dataclass
class BlockKernelExecutor:
    """Executes the scoring kernel block by block on the simulated device.

    ``fault_plan`` (site ``"gpu"``, target = block id, call = launch
    number) injects deterministic device faults: a ``straggler`` scales
    the block's cycle account by ``spec.slowdown`` (a slow GPU changes
    the busy profile, never the winner); a ``crash`` raises
    :class:`FaultInjected` mid-launch (a dead device — the caller's
    recovery layer reschedules the range)."""

    scheme: Scheme
    block_size: int = DEFAULT_BLOCK_SIZE
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    tuning: TimingTuning = field(default_factory=TimingTuning)
    fault_plan: "object | None" = None
    report: "object | None" = None  # repro.faults.FaultReport

    _launches: int = field(default=0, init=False, repr=False, compare=False)

    def launch(
        self,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        lam_start: int = 0,
        lam_end: "int | None" = None,
    ) -> KernelLaunchResult:
        """Run maxF over ``[lam_start, lam_end)`` and reduce to one winner."""
        g = tumor.n_genes
        if normal.n_genes != g:
            raise ValueError("tumor and normal matrices must share the gene axis")
        total = total_threads(self.scheme, g)
        lam_end = total if lam_end is None else min(lam_end, total)
        if lam_end <= lam_start:
            return KernelLaunchResult(blocks=[], winner=None)

        call = self._launches
        self._launches += 1
        telemetry = get_telemetry()
        blocks: list[BlockResult] = []
        block_id = 0
        with telemetry.span(
            "gpusim.launch", cat="gpusim",
            call=call, lam_start=lam_start, lam_end=lam_end,
        ):
            for first in range(lam_start, lam_end, self.block_size):
                last = min(first + self.block_size, lam_end)
                result = self._run_block(
                    block_id, first, last, tumor, normal, params, g
                )
                spec = (
                    self.fault_plan.take("gpu", block_id, call)
                    if self.fault_plan is not None
                    else None
                )
                if spec is not None:
                    if spec.kind == "crash":
                        exc = FaultInjected(
                            f"injected device crash in block {block_id}"
                        )
                        # Dead device: dump before unwinding, while the
                        # ring still holds this launch's block spans.
                        if telemetry.flight is not None:
                            telemetry.flight.record_fault(
                                "crash", "gpu", block_id, call, "raised",
                                detail=str(exc),
                            )
                            telemetry.flight.dump(
                                "gpu-crash", exc=exc, telemetry=telemetry,
                                fault_report=self.report,
                            )
                        raise exc
                    if spec.kind == "straggler":
                        result = replace(
                            result, cycles=result.cycles * spec.slowdown
                        )
                        if self.report is not None:
                            self.report.record(
                                "straggler", "gpu", block_id, call, "observed",
                                detail=f"x{spec.slowdown:g} cycles",
                            )
                blocks.append(result)
                block_id += 1

            # Stage 2: parallelReduceMax over the per-block records.
            with telemetry.span("reduce", cat="gpusim", candidates=len(blocks)):
                winner = multi_stage_reduce(
                    [b.winner for b in blocks], block_size=32
                )
        return KernelLaunchResult(blocks=blocks, winner=winner)

    # -- one block ------------------------------------------------------

    def _run_block(
        self,
        block_id: int,
        first: int,
        last: int,
        tumor: BitMatrix,
        normal: BitMatrix,
        params: FScoreParams,
        g: int,
    ) -> BlockResult:
        f_ord, d = self.scheme.flattened, self.scheme.inner
        words = tumor.n_words + normal.n_words
        pre, rows_loaded = self.memory.combo_rows(self.scheme)
        ops_combo = self.tuning.ops_per_combo(words, rows_loaded)
        setup_ops = self.tuning.setup_ops_per_thread(words, pre)

        tuples = combinations_array(f_ord, first, last)
        winner: "MultiHitCombination | None" = None
        cycles = 0.0
        word_reads = 0

        for row in tuples:
            top = int(row[-1])
            cycles += setup_ops
            word_reads += pre * words
            n_inner = g - 1 - top
            if d == 0:
                candidates = row[None, :]
            elif n_inner < d:
                continue
            else:
                inner = combinations_array(d, 0, math.comb(n_inner, d))
                inner += top + 1
                candidates = np.concatenate(
                    [np.broadcast_to(row, (inner.shape[0], f_ord)), inner], axis=1
                )
            # Thread-serial scoring of this thread's combinations.
            t_and = tumor.words[candidates[:, 0]].copy()
            n_and = normal.words[candidates[:, 0]].copy()
            for c in range(1, candidates.shape[1]):
                np.bitwise_and(t_and, tumor.words[candidates[:, c]], out=t_and)
                np.bitwise_and(n_and, normal.words[candidates[:, c]], out=n_and)
            tp = np.bitwise_count(t_and).sum(axis=1).astype(np.int64)
            tn = params.n_normal - np.bitwise_count(n_and).sum(axis=1).astype(np.int64)
            f = (params.alpha * tp + tn) / params.denominator
            cycles += candidates.shape[0] * ops_combo
            word_reads += candidates.shape[0] * rows_loaded * words

            fmax = float(f.max())
            tied = np.flatnonzero(f == fmax)
            idx = min(tied, key=lambda i: tuple(candidates[i]))
            winner = better(
                winner,
                MultiHitCombination(
                    genes=tuple(int(x) for x in candidates[idx]),
                    f=fmax,
                    tp=int(tp[idx]),
                    tn=int(tn[idx]),
                ),
            )
        return BlockResult(
            block_id=block_id,
            first_thread=first,
            n_threads=last - first,
            winner=winner,
            cycles=cycles,
            word_reads=word_reads,
        )
