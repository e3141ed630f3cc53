"""Tests for the Summit node description."""

from repro.cluster.node import SUMMIT_NODE, SummitNodeSpec


class TestSummitNode:
    def test_paper_shape(self):
        # Fig. 1: 2 Power9 CPUs + 6 V100s, one MPI process per node.
        assert SUMMIT_NODE.n_cpus == 2
        assert SUMMIT_NODE.n_gpus == 6
        assert SUMMIT_NODE.mpi_processes == 1

    def test_memory_sizes(self):
        # Section III-E: 512 GB CPU memory, 16 GB per GPU.
        assert SUMMIT_NODE.cpu_memory_bytes == 512 * 1024**3
        assert SUMMIT_NODE.gpu_memory_bytes == 16 * 1024**3
        assert SUMMIT_NODE.n_gpus * SUMMIT_NODE.gpu_memory_bytes == 96 * 1024**3

    def test_custom_spec(self):
        node = SummitNodeSpec(n_gpus=4)
        assert node.n_gpus * node.gpu_memory_bytes == 4 * 16 * 1024**3
