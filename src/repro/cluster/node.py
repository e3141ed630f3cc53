"""Summit node description (Fig. 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SummitNodeSpec", "SUMMIT_NODE"]


@dataclass(frozen=True)
class SummitNodeSpec:
    """Hardware shape of one Summit node, as abstracted by the paper.

    The paper treats each node as "one CPU core that uses six V100 GPU
    devices" — one MPI process per node driving all six GPUs.
    """

    n_cpus: int = 2
    n_gpus: int = 6
    cpu_memory_bytes: int = 512 * 1024**3
    gpu_memory_bytes: int = 16 * 1024**3
    mpi_processes: int = 1


SUMMIT_NODE = SummitNodeSpec()
