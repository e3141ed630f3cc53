"""Schedule container: contiguous thread-range assignments per GPU."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scheduling.schemes import Scheme
from repro.scheduling.workload import total_threads, total_work

__all__ = ["Schedule"]


@dataclass(frozen=True)
class Schedule:
    """Partition of the flat thread grid ``[0, C(g, f))`` into GPU ranges.

    ``boundaries`` has ``n_parts + 1`` entries; partition ``p`` owns linear
    thread ids ``[boundaries[p], boundaries[p+1])``.  Partitions map to
    GPUs in rank-major order: partition ``p`` runs on node ``p // gpn``,
    local GPU ``p % gpn`` (``gpn`` = GPUs per node, 6 on Summit).
    """

    scheme: Scheme
    g: int
    boundaries: tuple[int, ...]
    policy: str = "unspecified"
    _work_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        b = tuple(int(x) for x in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if len(b) < 2:
            raise ValueError("need at least one partition")
        if b[0] != 0 or b[-1] != total_threads(self.scheme, self.g):
            raise ValueError(
                f"boundaries must span [0, {total_threads(self.scheme, self.g)}], "
                f"got [{b[0]}, {b[-1]}]"
            )
        if any(b[p] > b[p + 1] for p in range(len(b) - 1)):
            raise ValueError("boundaries must be non-decreasing")

    @property
    def n_parts(self) -> int:
        return len(self.boundaries) - 1

    def thread_range(self, part: int) -> tuple[int, int]:
        return self.boundaries[part], self.boundaries[part + 1]

    def thread_counts(self) -> np.ndarray:
        b = np.asarray(self.boundaries, dtype=np.float64)
        return np.diff(b)

    # -- exact per-partition work -------------------------------------

    def _work_before(self, lam: int) -> int:
        """Exact total work of threads with linear id < ``lam`` (O(f) per call)."""
        from repro.scheduling.workload import cumulative_work_before, work_prefix_by_level

        key = "prefix"
        if key not in self._work_cache:
            self._work_cache[key] = work_prefix_by_level(self.scheme, self.g)
        return cumulative_work_before(self.scheme, self.g, lam, self._work_cache[key])

    def work_per_part(self) -> list[int]:
        """Exact combinations assigned to each partition."""
        cuts = [self._work_before(b) for b in self.boundaries]
        return [cuts[p + 1] - cuts[p] for p in range(self.n_parts)]

    # -- balance diagnostics -------------------------------------------

    def imbalance(self) -> float:
        """Max/mean work ratio (1.0 is perfect balance)."""
        work = self.work_per_part()
        mean = sum(work) / len(work)
        if mean == 0:
            return 1.0
        return max(work) / mean

    def validate(self) -> None:
        """Assert the partition covers all work exactly once."""
        assert sum(self.work_per_part()) == total_work(self.scheme, self.g)

    def describe(self) -> str:
        work = self.work_per_part()
        return (
            f"Schedule[{self.policy}] scheme={self.scheme.name} G={self.g} "
            f"parts={self.n_parts} total_work={sum(work)} "
            f"imbalance={self.imbalance():.4f}"
        )
