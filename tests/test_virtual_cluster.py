"""Tests for the virtual-time cluster."""

import numpy as np
import pytest

from repro.cluster.network import NetworkModel
from repro.cluster.virtual import VirtualCluster


def make(n=4):
    return VirtualCluster(
        n_ranks=n,
        network=NetworkModel(
            latency_s=1e-6, bandwidth_bps=1e9, per_rank_software_overhead_s=0.0
        ),
    )


class TestCompute:
    def test_clocks_advance_independently(self):
        vc = make(3)
        vc.compute(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(vc.clock, [1.0, 2.0, 3.0])
        assert vc.elapsed_s == 3.0

    def test_shape_checked(self):
        vc = make(3)
        with pytest.raises(ValueError):
            vc.compute(np.array([1.0, 2.0]))

    def test_negative_rejected(self):
        vc = make(2)
        with pytest.raises(ValueError):
            vc.compute(np.array([1.0, -1.0]))

    def test_compute_rank(self):
        vc = make(2)
        vc.compute(np.array([0.0, 5.0]))  # one rank computes, alone
        assert vc.clock[1] == 5.0 and vc.clock[0] == 0.0


class TestReduce:
    def test_synchronizes_to_straggler(self):
        vc = make(3)
        vc.compute(np.array([1.0, 5.0, 2.0]))
        finish = vc.reduce_to_root(20)
        wire = vc.network.tree_reduce_time(3, 20)
        assert finish == pytest.approx(5.0 + wire)
        np.testing.assert_allclose(vc.clock, finish)

    def test_wait_charged_as_comm(self):
        vc = make(2)
        vc.compute(np.array([1.0, 4.0]))
        vc.reduce_to_root(20)
        comm = vc.comm_times()
        assert comm[0] > comm[1]  # fast rank waits longer
        assert comm[0] == pytest.approx(3.0 + vc.network.tree_reduce_time(2, 20))

    def test_timeline_accounting_conserves_time(self):
        vc = make(4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            vc.compute(rng.random(4))
            vc.reduce_to_root(20)
            vc.bcast_from_root(100)
        total = vc.compute_times() + vc.comm_times()
        np.testing.assert_allclose(total, vc.elapsed_s)

    def test_single_rank_no_comm_cost(self):
        vc = VirtualCluster(n_ranks=1)
        vc.compute(np.array([2.0]))
        vc.reduce_to_root(20)
        assert vc.comm_times()[0] == 0.0


class TestValidation:
    def test_needs_ranks(self):
        with pytest.raises(ValueError):
            VirtualCluster(n_ranks=0)
