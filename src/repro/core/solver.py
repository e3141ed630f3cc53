"""Top-level greedy multi-hit solver (the public entry point).

Wraps the per-iteration arg-max (single-GPU engine, distributed engine
— also behind ``"pool"`` — or the sequential oracle) in the
weighted-set-cover greedy loop: score -> pick best -> exclude covered
tumor samples -> repeat.  Covered samples
are either *spliced* out of the packed matrix (BitSplicing, the paper's
approach) or masked in place (the ablation baseline) — results are
identical; the packed width, and hence the work per subsequent iteration,
is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.bitmatrix.splicing import splice_columns
from repro.core import tile
from repro.core.combination import MultiHitCombination
from repro.core.distributed import DistributedEngine
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import DEFAULT_ALPHA, FScoreParams
from repro.core.kernels import KernelCounters
from repro.core.memopt import MemoryConfig
from repro.core.sequential import sequential_best_combo
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.faults.report import FaultReport
from repro.scheduling.schemes import Scheme, scheme_for
from repro.telemetry.session import get_telemetry

__all__ = ["IterationRecord", "MultiHitResult", "MultiHitSolver"]


@dataclass(frozen=True)
class IterationRecord:
    """What one greedy iteration saw and chose.

    ``combos_scored`` / ``word_reads`` are this iteration's deltas of
    the run counters; ``combos_pruned`` is always 0 (every combination
    is scored), kept because result files carry it.

    Only an arg-max that picks a combination gets a record.  A solve
    that ends by exhaustion (the last arg-max returns ``None`` or a
    winner with TP 0) ran that closing scan too: it is metered into
    :attr:`MultiHitResult.counters` but recorded here nowhere, so on
    such a run the records sum to the run counters minus one full scan
    (``C(G, h)`` combinations scored).
    """

    iteration: int
    combination: MultiHitCombination
    newly_covered: int
    remaining_before: int
    remaining_after: int
    tumor_words: int
    wall_seconds: float
    combos_scored: int = 0
    combos_pruned: int = 0
    word_reads: int = 0


@dataclass
class MultiHitResult:
    """Output of a full greedy run.

    ``counters`` meters every arg-max the run made, including the
    closing scan of a run that ends by exhaustion, which has no
    :class:`IterationRecord`; a run stopped by ``max_iterations`` or by
    covering every tumor sample makes no closing scan.
    """

    combinations: list[MultiHitCombination]
    iterations: list[IterationRecord]
    params: FScoreParams
    uncovered: int
    counters: KernelCounters = field(default_factory=KernelCounters)
    fault_report: "FaultReport | None" = None

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def coverage(self) -> float:
        """Fraction of tumor samples covered by the returned combinations.

        An empty tumor set is vacuously covered: coverage is 1.0, not a
        ``ZeroDivisionError``.
        """
        if self.params.n_tumor == 0:
            return 1.0
        return 1.0 - self.uncovered / self.params.n_tumor

    def gene_sets(self) -> list[tuple[int, ...]]:
        return [c.genes for c in self.combinations]


class _LocalEngine:
    """Engine surface of a backend that scans the whole grid in this
    process: no recovery to report, nothing to release, and one range
    per call for the live ``progress.*`` feed (the fleets feed it per
    completed lease, in :func:`repro.core.distributed.run_lease`)."""

    report = None

    def __init__(self, best_combo) -> None:
        self._best_combo = best_combo

    def best_combo(self, tumor, normal, params, counters):
        scored = counters.combos_scored
        best = self._best_combo(tumor, normal, params, counters=counters)
        get_telemetry().count(
            "progress.combos_scored", counters.combos_scored - scored
        )
        return best

    def close(self) -> None:
        pass


def _single_engine(solver: "MultiHitSolver"):
    return _LocalEngine(SingleGpuEngine(scheme=solver.scheme).best_combo)


def _sequential_engine(solver: "MultiHitSolver"):
    def best_combo(tumor, normal, params, **_):
        return sequential_best_combo(
            tumor.to_dense(), normal.to_dense(), solver.hits, params
        )

    return _LocalEngine(best_combo)


def _distributed_engine(solver: "MultiHitSolver") -> DistributedEngine:
    # One engine for the run on the fleet: its normal-hit store serves
    # every iteration's scans, its arg-max call counter lines up with
    # greedy iterations ("rank 1 crashes at iteration k") and its fault
    # report spans the whole solve.  ``pool`` is the same engine with
    # one partition per rank.
    pool = solver.backend == "pool"
    return DistributedEngine(
        scheme=solver.scheme,
        n_nodes=solver.n_workers if pool else solver.n_nodes,
        gpus_per_node=1 if pool else solver.gpus_per_node,
        fault_plan=solver.fault_plan,
        retry_policy=solver.retry_policy or RetryPolicy(),
        elastic=solver.elastic,
    )


#: Backend name -> factory of the run's engine.  Every engine answers
#: ``best_combo(tumor, normal, params, counters=)`` and exposes
#: ``report`` and ``close()``.
_ENGINES = {
    "single": _single_engine,
    "pool": _distributed_engine,
    "distributed": _distributed_engine,
    "sequential": _sequential_engine,
}


@dataclass
class MultiHitSolver:
    """Greedy multi-hit weighted-set-cover solver.

    Parameters
    ----------
    hits:
        Combination order ``h`` (2, 3 or 4 in the paper).
    alpha:
        TP penalty weight of Equation 1.
    backend:
        ``"single"`` (vectorized single-GPU engine), ``"distributed"``
        (scheduled multi-node engine, :class:`DistributedEngine`),
        ``"pool"`` (that engine with one partition per rank, on
        ``n_workers`` rank threads) or ``"sequential"`` (dense oracle).
    scheme:
        Loop-flattening scheme; defaults to ``(h-1)x1`` (the paper's 3x1
        for ``h = 4``).  Every :class:`Scheme` is nested
        (``inner >= 1``): a flat one cannot be built.
    memory:
        The paper's memory optimizations.  ``memory.bitsplice`` selects
        splice-vs-mask handling of covered samples; the
        register-prefetch flags change nothing the native kernel does,
        which gathers each thread's fixed rows once regardless — they
        parameterise the models (:func:`repro.core.memopt.
        global_word_reads`, :class:`repro.perfmodel.runtime.JobModel`).
    n_nodes / gpus_per_node:
        Simulated Summit shape for the distributed backend.
    n_workers:
        Ranks of the pool backend, one partition each (ignored
        otherwise).
    fault_plan / retry_policy:
        Fault-tolerance knobs forwarded to the fleet engine; detected faults and recovery actions come back on
        ``result.fault_report``.
    prune:
        Read by nothing; pinned by the harness until ROADMAP 1(d).  Every
        arg-max is the one native scan, which bounds each thread by its
        tumor-prefix ceiling ``fscore(TP_prefix, Nn)`` (and, once its
        normal hits are stored, by its normal-hit floor) before its
        tumor product, so there is no separate pruned path to switch
        on.  The benchmark harness passes ``prune=True`` and the gateway
        still accepts the key, so stored jobs and existing clients load.
    elastic:
        Lease-based work stealing instead of fixed partitions
        (``"distributed"`` and ``"pool"`` backends).  The λ-space is cut
        into :data:`repro.scheduling.equiarea.LEASES_PER_PULLER`
        equi-area leases per rank; ranks pull leases, a dead
        rank's leases are stolen by survivors, and ``membership``-site
        :class:`FaultSpec` churn (join/leave) resizes the fleet
        mid-solve.  Winners are bit-identical to the static run.
    sparse:
        Read by nothing: every scan runs the one native body, which
        skips zero words on its own.  The field stays declared only
        because the benchmark harness passes ``sparse=False``; ROADMAP
        item 1(d) drops that and deletes the field.

    These fields are the one declaration of the solve-path options (the
    CLI and the gateway build a ``MultiHitSolver`` from what they are
    given) and ``__post_init__`` is the one value check.
    """

    hits: int = 4
    alpha: float = DEFAULT_ALPHA
    backend: str = "single"
    scheme: "Scheme | None" = None
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    n_nodes: int = 1
    gpus_per_node: int = 6
    n_workers: int = 2
    max_iterations: "int | None" = None
    fault_plan: "FaultPlan | None" = None
    retry_policy: "RetryPolicy | None" = None
    prune: bool = False
    elastic: bool = False
    sparse: bool = True

    def __post_init__(self) -> None:
        if self.hits < 2:
            raise ValueError("hits must be >= 2")
        if self.scheme is None:
            self.scheme = scheme_for(self.hits, self.hits - 1)
        if self.scheme.hits != self.hits:
            raise ValueError(
                f"scheme searches {self.scheme.hits}-hit combos, expected {self.hits}"
            )
        if self.backend not in _ENGINES:
            raise ValueError(f"unknown backend {self.backend!r}")
        if min(self.n_workers, self.n_nodes, self.gpus_per_node) < 1:
            raise ValueError("n_workers, n_nodes and gpus_per_node must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1 or None, got {self.max_iterations}"
            )
        if self.elastic and self.backend not in ("pool", "distributed"):
            raise ValueError(
                "elastic work stealing needs backend 'pool' or 'distributed' "
                f"set explicitly, got {self.backend!r}"
            )

    # -- greedy loop ---------------------------------------------------

    def solve(
        self,
        tumor: "BitMatrix | np.ndarray",
        normal: "BitMatrix | np.ndarray",
        resume: "object | None" = None,
        on_iteration: "object | None" = None,
        should_stop: "object | None" = None,
    ) -> MultiHitResult:
        """Run the greedy cover loop to completion.

        ``resume`` is a :class:`repro.core.checkpoint.SolverState` from an
        interrupted run (the operational answer to Summit's queue-time
        limits: persist between greedy iterations, resume in the next
        allocation).  ``on_iteration(state)`` is called after every
        iteration with the current resumable state.

        ``should_stop()`` is polled between iterations (before each
        arg-max): when it returns truthy, the loop exits cooperatively
        and the result carries whatever was found so far.  Combined with
        checkpoints this is how a run is cancelled (the gateway's
        ``DELETE /v1/jobs/<id>``) or bounded by a wall-clock budget —
        cancellation lands within one solver iteration.
        """
        if not isinstance(tumor, BitMatrix):
            tumor = BitMatrix.from_dense(np.asarray(tumor))
        if not isinstance(normal, BitMatrix):
            normal = BitMatrix.from_dense(np.asarray(normal))
        if tumor.n_genes != normal.n_genes:
            raise ValueError("tumor and normal matrices must share the gene axis")
        if tumor.n_genes < self.hits:
            raise ValueError(
                f"need at least {self.hits} genes, got {tumor.n_genes}"
            )
        params = FScoreParams(
            n_tumor=tumor.n_samples, n_normal=normal.n_samples, alpha=self.alpha
        )
        counters = KernelCounters()
        combos: list[MultiHitCombination] = []
        records: list[IterationRecord] = []

        work = tumor  # spliced matrix (or masked view) of uncovered samples
        active = np.ones(tumor.n_samples, dtype=bool)  # vs original columns

        if resume is not None:
            combos, active = resume.restore(tumor, self.hits, params)
            work = self._compact(tumor, active)

        if self.backend != "sequential":
            tile.kernel()  # cannot build: one error here, before any fan-out
        engine = _ENGINES[self.backend](self)
        tel = get_telemetry()
        try:
            try:
                with tel.span(
                    "solve", cat="solver", backend=self.backend, hits=self.hits,
                ):
                    result = self._greedy_loop(
                        tumor, normal, params, counters, combos, records, work,
                        active, on_iteration, engine, should_stop,
                    )
            except Exception as exc:
                # Post-mortem black box for a run that dies mid-solve:
                # the recent span timeline, the registry snapshot, the
                # fault report so far, and the active λ assignments.
                if tel.flight is not None:
                    tel.flight.dump(
                        "solver-exception", exc=exc, telemetry=tel,
                        fault_report=engine.report,
                    )
                raise
            result.fault_report = engine.report
            if tel.enabled:
                tel.metrics.absorb_kernel_counters(counters)
                tel.count("solver.solves")
            return result
        finally:
            engine.close()

    def _compact(self, tumor: BitMatrix, active: np.ndarray) -> BitMatrix:
        """The scoring matrix for the current ``active`` set.

        Splicing repacks the uncovered columns into a narrower matrix
        (less word traffic, narrower popcounts); the ablation masks them
        in place — the one place ``memory`` is read on the solve path.
        """
        if self.memory.bitsplice:
            return splice_columns(tumor, active)
        # Mask covered columns in place: same width, zeroed bits.
        mask = tumor.sample_mask_to_words(active)
        return BitMatrix(tumor.words & mask[None, :], tumor.n_samples)

    # -- greedy loop ---------------------------------------------------

    def _greedy_loop(
        self, tumor, normal, params, counters, combos, records, work, active,
        on_iteration, engine, should_stop=None,
    ) -> MultiHitResult:
        tel = get_telemetry()
        if tel.enabled:
            # Live-progress plumbing: every iteration scores the same
            # C(g, hits) grid, so the scheduled gauge plus the running
            # scored counter give the monitor an in-iteration completion
            # fraction.
            tel.set_gauge(
                "progress.combos_scheduled", math.comb(tumor.n_genes, self.hits)
            )
        while active.any():
            if self.max_iterations is not None and len(combos) >= self.max_iterations:
                break
            if should_stop is not None and should_stop():
                break
            remaining_before = int(active.sum())
            scored_0 = counters.combos_scored
            reads_0 = counters.word_reads
            if tel.enabled:
                tel.set_gauge("progress.iteration", len(combos) + 1)
                tel.set_gauge(
                    "progress.iteration_base",
                    tel.metrics.counters.get("progress.combos_scored", 0),
                )
            # The span is the timing source: `timed_span` measures wall
            # time even with telemetry disabled, so `wall_seconds` keeps
            # its meaning (the arg-max wall clock) on every run.
            with tel.timed_span(
                "iteration",
                cat="solver",
                iteration=len(combos) + 1,
                remaining=remaining_before,
            ) as span:
                best = engine.best_combo(work, normal, params, counters=counters)
            dt = span.duration_s
            iter_scored = counters.combos_scored - scored_0
            if best is None or best.tp == 0:
                break
            combos.append(best)
            covered_now = tumor.samples_with_all(best.genes) & active
            active &= ~covered_now
            with tel.span("compact", cat="solver", width_before=work.n_words):
                work = self._compact(tumor, active)
            records.append(
                IterationRecord(
                    iteration=len(combos),
                    combination=best,
                    newly_covered=int(covered_now.sum()),
                    remaining_before=remaining_before,
                    remaining_after=int(active.sum()),
                    tumor_words=work.n_words,
                    wall_seconds=dt,
                    combos_scored=iter_scored,
                    word_reads=counters.word_reads - reads_0,
                )
            )
            if on_iteration is not None:
                from repro.core.checkpoint import SolverState

                on_iteration(
                    SolverState.capture(self.hits, self.alpha, combos, active)
                )
        return MultiHitResult(
            combinations=combos,
            iterations=records,
            params=params,
            uncovered=int(active.sum()),
            counters=counters,
        )
