"""Job runtime model: schedule -> per-GPU kernels -> ranks -> greedy loop.

``JobModel.run`` predicts a full multi-iteration greedy solve on an
``n_nodes``-node Summit allocation: it builds the real schedule, derives
each GPU partition's :class:`KernelStats` (exact thread / combination /
byte counts), evaluates the V100 timing model per GPU, folds GPUs into
per-rank times, and advances a :class:`VirtualCluster` through each
iteration's compute + reduce + broadcast + host-serial sequence.
BitSplicing shrinks the packed tumor width between iterations according
to the iteration model's cover schedule.

That loop is written once: the elastic prediction
(:func:`repro.perfmodel.scaling.elastic_job`) differs only in the
schedule it cuts and in how kernel times fold into per-rank seconds.
With ``trace=True`` the job comes back as ordinary :mod:`repro.telemetry`
spans (``JobResult.spans``) for ``analyze_trace`` / ``multihit trace
analyze``.

Since only the packed word width changes between greedy iterations, the
per-partition thread/combination/access structure is computed once per
schedule and re-scaled per iteration — this is what makes 1000-node,
12-iteration sweeps run in milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bitmatrix.packing import words_for
from repro.cluster.network import SUMMIT_NETWORK, NetworkModel
from repro.cluster.virtual import HOST_SERIAL, VirtualCluster
from repro.combinatorics.decode import top_index
from repro.core.combination import COMBO_RECORD_BYTES
from repro.core.memopt import MemoryConfig, global_word_reads
from repro.gpusim.device import V100, DeviceSpec
from repro.gpusim.kernel import KernelStats
from repro.gpusim.timing import TimingTuning, kernel_times
from repro.perfmodel.workloads import WorkloadSpec
from repro.scheduling.equiarea import equiarea_schedule
from repro.scheduling.equidistance import equidistance_schedule
from repro.scheduling.schedule import Schedule
from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import level_work

__all__ = [
    "IterationModel",
    "JobModel",
    "JobResult",
    "PartitionProfile",
    "partition_kernel_stats",
    "partition_profiles",
    "gpu_busy_times",
    "single_gpu_scan_seconds",
]


@dataclass(frozen=True)
class IterationModel:
    """Greedy-loop shape: how many iterations, how fast samples are covered.

    BRCA-like cohorts need on the order of a dozen combinations to cover
    all tumor samples, with early combinations covering large fractions
    (the geometric ``cover_fraction`` here).  Only the *width schedule*
    matters to the performance model, not which combinations are found.
    """

    n_iterations: int = 12
    cover_fraction: float = 0.35

    def tumor_samples_remaining(self, n_tumor: int) -> list[int]:
        """Uncovered tumor samples entering each iteration."""
        remaining = float(n_tumor)
        out = []
        for _ in range(self.n_iterations):
            out.append(max(1, int(round(remaining))))
            remaining *= 1.0 - self.cover_fraction
        return out


@dataclass(frozen=True)
class PartitionProfile:
    """Width-independent structure of one GPU partition.

    ``word_read_units`` is the word-read count per unit of packed width:
    multiply by the iteration's total word width to get actual reads.
    """

    n_threads: int
    n_combos: int
    max_thread_combos: int
    word_read_units: int


def partition_kernel_stats(
    schedule: Schedule,
    part: int,
    part_work: int,
    tumor_words: int,
    normal_words: int,
    memory: MemoryConfig,
) -> KernelStats:
    """Exact kernel statistics for one GPU partition (uncached path)."""
    prof = _profile_one(schedule, part, part_work, memory)
    words = tumor_words + normal_words
    pre, rows = memory.combo_rows(schedule.scheme)
    return KernelStats(
        n_threads=prof.n_threads,
        n_combos=prof.n_combos,
        words_per_combo=words,
        rows_per_combo=rows,
        prefetched_rows=pre,
        bytes_read=prof.word_read_units * words * 8,
        max_thread_combos=prof.max_thread_combos,
    )


def _profile_one(
    schedule: Schedule, part: int, part_work: int, memory: MemoryConfig
) -> PartitionProfile:
    lo, hi = schedule.thread_range(part)
    if hi <= lo:
        return PartitionProfile(0, 0, 0, 0)
    scheme, g = schedule.scheme, schedule.g
    units = global_word_reads(scheme, g, 1, lo, hi, memory)
    top_lo = top_index(lo, scheme.flattened)
    max_combos = level_work(scheme, g, top_lo)
    return PartitionProfile(
        n_threads=hi - lo,
        n_combos=part_work,
        max_thread_combos=max(max_combos, 1 if part_work else 0),
        word_read_units=units,
    )


def partition_profiles(schedule: Schedule, memory: MemoryConfig) -> list[PartitionProfile]:
    """Width-independent structure for every partition of a schedule."""
    work = schedule.work_per_part()
    return [_profile_one(schedule, p, work[p], memory) for p in range(schedule.n_parts)]


def gpu_busy_times(
    schedule: Schedule,
    tumor_words: int,
    normal_words: int,
    memory: MemoryConfig,
    device: DeviceSpec = V100,
    tuning: TimingTuning = TimingTuning(),
    profiles: "list[PartitionProfile] | None" = None,
) -> np.ndarray:
    """Per-partition kernel total times for one greedy iteration, in one
    :func:`kernel_times` call over the statistics
    :func:`partition_kernel_stats` builds one partition at a time."""
    if profiles is None:
        profiles = partition_profiles(schedule, memory)
    words = tumor_words + normal_words
    pre, rows = memory.combo_rows(schedule.scheme)
    counts = np.array(
        [
            (p.n_threads, p.n_combos, p.max_thread_combos, p.word_read_units * words * 8)
            for p in profiles
        ],
        dtype=np.float64,
    ).reshape(-1, 4)
    return kernel_times(*counts.T, words, rows, pre, device, tuning).total_s


@dataclass
class JobResult:
    """Predicted job timing."""

    total_s: float
    iteration_s: list[float]
    rank_compute_s: np.ndarray
    rank_comm_s: np.ndarray
    setup_s: float
    #: ``Tracer.export()``-shaped spans (virtual ns; set-up, being outside
    #: the cluster clock, is not in them) when run with ``trace=True``.
    spans: "list[dict] | None" = None

    @property
    def n_nodes(self) -> int:
        return len(self.rank_compute_s)


@dataclass
class JobModel:
    """End-to-end Summit job predictor.

    ``node_jitter_sigma`` models per-node performance variability (OS
    noise, clock/thermal differences): each rank's compute time is scaled
    by a deterministic, rank-seeded factor ``~ N(1, sigma)``; the job
    follows the straggler, which costs a few percent of efficiency even
    with perfectly balanced work.

    Fixed costs: ``setup_base_s`` covers schedule computation (under a
    minute, Section III-C) and data staging; ``setup_per_node_s`` models
    job launch / MPI_Init scaling with allocation size (jsrun startup is
    minutes at 1000 nodes); ``host_iteration_s`` is per-iteration serial
    host work (result collection, splice, relaunch, synchronization).
    These non-scaling terms are what pull strong-scaling efficiency below
    100% as node count grows.
    """

    scheme: Scheme
    scheduler: str = "equiarea"
    gpus_per_node: int = 6
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    device: DeviceSpec = V100
    tuning: TimingTuning = field(default_factory=TimingTuning)
    network: NetworkModel = field(default_factory=lambda: SUMMIT_NETWORK)
    iteration_model: IterationModel = field(default_factory=IterationModel)
    setup_base_s: float = 30.0
    setup_per_node_s: float = 0.05
    host_iteration_s: float = 10.0
    node_jitter_sigma: float = 0.04
    jitter_seed: int = 2021

    def build_schedule(self, g: int, n_nodes: int) -> Schedule:
        n_parts = n_nodes * self.gpus_per_node
        if self.scheduler == "equiarea":
            return equiarea_schedule(self.scheme, g, n_parts)
        if self.scheduler == "equidistance":
            return equidistance_schedule(self.scheme, g, n_parts)
        raise ValueError(f"unknown scheduler {self.scheduler!r}")

    def setup_seconds(self, n_nodes: int) -> float:
        return self.setup_base_s + self.setup_per_node_s * n_nodes

    def _rank_times(self, cluster: VirtualCluster, gpu_times: np.ndarray) -> np.ndarray:
        """Fold per-GPU times into per-rank times (6 concurrent GPUs/rank)."""
        n_nodes = cluster.n_ranks
        padded = np.zeros(n_nodes * self.gpus_per_node)
        padded[: len(gpu_times)] = gpu_times
        per_rank = padded.reshape(n_nodes, self.gpus_per_node).max(axis=1)
        rng = np.random.default_rng(self.jitter_seed)
        jitter = 1.0 + self.node_jitter_sigma * rng.standard_normal(n_nodes)
        return per_rank * np.clip(jitter, 0.85, 1.25)

    def run(
        self,
        workload: WorkloadSpec,
        n_nodes: int,
        max_iterations: "int | None" = None,
        trace: bool = False,
        schedule: "Schedule | None" = None,
        fold=None,
    ) -> JobResult:
        """Predict the full greedy job on ``n_nodes`` nodes.

        Every iteration is kernel times → compute → reduce → broadcast →
        serial host work on one :class:`VirtualCluster`; with
        ``trace=True`` the result carries its spans.  ``schedule`` and
        ``fold(cluster, part_times) -> per-rank compute seconds`` default
        to the static fleet (one partition per GPU, a rank as slow as its
        slowest GPU times its node jitter); the elastic prediction passes
        its own, and its fold may churn ``cluster`` first.
        """
        if schedule is None:
            schedule = self.build_schedule(workload.g, n_nodes)
        fold = fold or self._rank_times
        profiles = partition_profiles(schedule, self.memory)
        cluster = VirtualCluster(n_ranks=n_nodes, network=self.network, trace=trace)
        iteration_s: list[float] = []
        remaining = self.iteration_model.tumor_samples_remaining(workload.n_tumor)
        if max_iterations is not None:
            remaining = remaining[:max_iterations]
        for it, n_t in enumerate(remaining):
            cluster.iteration = it
            t_words = (
                words_for(n_t) if self.memory.bitsplice else workload.tumor_words
            )
            before = cluster.elapsed_s
            part_times = gpu_busy_times(
                schedule,
                t_words,
                workload.normal_words,
                self.memory,
                self.device,
                self.tuning,
                profiles=profiles,
            )
            cluster.compute(fold(cluster, part_times))
            cluster.reduce_to_root(COMBO_RECORD_BYTES)
            # Broadcast winner + covered-sample mask, then serial host work.
            cluster.bcast_from_root(COMBO_RECORD_BYTES + t_words * 8)
            cluster.compute(
                np.full(cluster.n_ranks, self.host_iteration_s), name=HOST_SERIAL
            )
            iteration_s.append(cluster.elapsed_s - before)
        return JobResult(
            total_s=cluster.elapsed_s + self.setup_seconds(n_nodes),
            iteration_s=iteration_s,
            rank_compute_s=cluster.compute_times(),
            rank_comm_s=cluster.comm_times(),
            setup_s=self.setup_seconds(n_nodes),
            spans=cluster.spans,
        )

    # -- single-processor reference estimates ---------------------------

    def single_gpu_seconds(self, workload: WorkloadSpec, hits: "int | None" = None) -> float:
        """One-V100 estimate for the whole greedy job (no MPI terms)."""
        scheme = self.scheme if hits is None else Scheme(hits - 1, 1)
        total = 0.0
        for n_t in self.iteration_model.tumor_samples_remaining(workload.n_tumor):
            t_words = (
                words_for(n_t) if self.memory.bitsplice else workload.tumor_words
            )
            total += single_gpu_scan_seconds(
                scheme,
                workload.g,
                t_words + workload.normal_words,
                self.memory,
                self.device,
                self.tuning,
            )
        return total

    def single_cpu_seconds(
        self,
        workload: WorkloadSpec,
        hits: "int | None" = None,
        cpu_ops_per_s: float = 2.2e9,
    ) -> float:
        """Single-CPU-core estimate (same op counts, scalar throughput).

        The default throughput (~2.2e9 simple int ops/s) reflects a
        single Power9 core running the scalar reference code; it places
        the 3-hit BRCA estimate near the paper's measured 13860 minutes.
        """
        gpu = self.single_gpu_seconds(workload, hits)
        return gpu * (
            self.device.peak_int_ops_per_s * self.tuning.issue_efficiency
        ) / cpu_ops_per_s


def interleaved_gpu_busy_times(
    schedule,
    tumor_words: int,
    normal_words: int,
    memory: MemoryConfig,
    device: DeviceSpec = V100,
    tuning: TimingTuning = TimingTuning(),
) -> np.ndarray:
    """Per-partition kernel times for a block-cyclic (interleaved) schedule.

    Same timing model as :func:`gpu_busy_times`; the statistics are summed
    over each partition's disjoint blocks.
    """
    work = schedule.work_per_part()
    profiles = []
    for p in range(schedule.n_parts):
        blocks = schedule.ranges(p)
        profiles.append(PartitionProfile(
            n_threads=sum(hi - lo for lo, hi in blocks),
            n_combos=work[p],
            max_thread_combos=max(schedule.max_thread_work(p), 1 if work[p] else 0),
            word_read_units=sum(
                global_word_reads(schedule.scheme, schedule.g, 1, lo, hi, memory)
                for lo, hi in blocks
            ),
        ))
    return gpu_busy_times(
        schedule, tumor_words, normal_words, memory, device, tuning, profiles
    )


def single_gpu_scan_seconds(
    scheme: Scheme,
    g: int,
    words: int,
    memory: MemoryConfig,
    device: DeviceSpec = V100,
    tuning: TimingTuning = TimingTuning(),
) -> float:
    """One-device seconds to score all ``C(g, hits)`` combinations once."""
    _, rows = memory.combo_rows(scheme)
    ops = math.comb(g, scheme.hits) * tuning.ops_per_combo(words, rows)
    return ops / (device.peak_int_ops_per_s * tuning.issue_efficiency)
