"""Tests for the alpha-beta network model."""


import pytest

from repro.cluster.network import SUMMIT_NETWORK, NetworkModel


class TestP2P:
    def test_latency_plus_bandwidth(self):
        net = NetworkModel(latency_s=1e-6, bandwidth_bps=1e9)
        assert net.p2p_time(0) == pytest.approx(1e-6)
        assert net.p2p_time(10**9) == pytest.approx(1.000001)

    def test_monotone_in_bytes(self):
        net = SUMMIT_NETWORK
        assert net.p2p_time(100) < net.p2p_time(10_000)


class TestTreeReduce:
    def test_single_rank_free(self):
        assert SUMMIT_NETWORK.tree_reduce_time(1, 1000) == 0.0

    def test_log_depth(self):
        net = NetworkModel(latency_s=1e-6, bandwidth_bps=1e12, per_rank_software_overhead_s=0.0)
        t2 = net.tree_reduce_time(2, 0)
        for n, depth in [(4, 2), (8, 3), (1000, 10), (1024, 10)]:
            assert net.tree_reduce_time(n, 0) == pytest.approx(depth * t2 / 1)

    def test_paper_scale_reduce_is_microseconds(self):
        # 20-byte candidate reduce across 1000 ranks costs ~tens of
        # microseconds — why Fig. 8 shows communication hidden by compute.
        t = SUMMIT_NETWORK.tree_reduce_time(1000, 20)
        assert t < 1e-3

    def test_bcast_symmetry(self):
        assert SUMMIT_NETWORK.bcast_time(64, 100) == SUMMIT_NETWORK.tree_reduce_time(64, 100)
