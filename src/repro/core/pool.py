"""Names the benchmark harness resolves, and nothing else.

``backend="pool"`` is :class:`repro.core.distributed.DistributedEngine`
with one partition per rank (``n_nodes=n_workers, gpus_per_node=1``):
the same equi-area cuts, runner, recovery rule and merge as
``backend="distributed"``.  ``benchmarks/perf/trace.py`` and ``run.py``
still resolve ``PoolStats``, ``PoolEngine.best_combo`` / ``.close`` and
this module's three bindings below by these names; nothing calls them,
so a traced run reads every ``pool.*`` layer as 0.  No module under
``src/`` imports this one; ROADMAP item 1(f) re-points the harness and
deletes it.
"""

from dataclasses import dataclass, field

# Bound but never called here: the benchmark harness patches them by name.
from repro.core.engine import best_in_thread_range  # noqa: F401
from repro.core.reduction import multi_stage_reduce  # noqa: F401
from repro.scheduling.equiarea import equiarea_range_boundaries  # noqa: F401


@dataclass
class PoolStats:
    """Harness-only: what ``benchmarks/perf/layers.py`` reads, always empty."""

    chunks: list = field(default_factory=list)
    publish_seconds: float = 0.0
    shipped_bytes: int = 0
    n_publishes: int = 0


class PoolEngine:
    """Harness-only: the two attribute names ``trace.py`` patches."""

    def best_combo(self) -> None:
        pass

    close = best_combo
