"""Simulated Summit substrate: nodes, the rank fleet, virtual time.

The paper runs one MPI process per Summit node (2 Power9 CPUs + 6 V100
GPUs).  This package substitutes:

* :class:`LeaseLedger` / :class:`ElasticSPMDRunner` /
  :func:`spmd_best_combo` — λ-range leases and the one thread fleet,
  which runs ``backend="distributed"`` and ``backend="pool"`` (the same
  engine with one partition per rank): ranks pull leases, lowest id
  first (one per partition for the paper's static schedule, finer cuts
  for an elastic run), and join/leave mid-solve while survivors steal
  ranges whose TTL ran out or whose holder forfeited them (winners stay
  bit-identical).  The paper's Section III-E reduce of the ranks'
  20-byte candidates is :meth:`LeaseLedger.merge`.  A run's fleet size
  is fixed at launch, as on an allocation; only the fault plan's
  membership specs change it;
* :class:`VirtualCluster` — a deterministic virtual-time engine with a
  latency/bandwidth network model, used to reproduce the paper's timing
  figures at full 1000-node scale without hardware; built with
  ``trace=True`` it records its timeline as ordinary
  :mod:`repro.telemetry` spans + causal links (virtual nanoseconds), so
  ``multihit trace analyze`` explains a simulated job like a real one.
"""

from repro.cluster.node import SummitNodeSpec, SUMMIT_NODE
from repro.cluster.network import NetworkModel, SUMMIT_NETWORK
from repro.cluster.virtual import RankTimeline, VirtualCluster
from repro.cluster.leases import Lease, LeaseLedger
from repro.cluster.elastic import ElasticSPMDRunner, spmd_best_combo

__all__ = [
    "spmd_best_combo",
    "Lease",
    "LeaseLedger",
    "ElasticSPMDRunner",
    "SummitNodeSpec",
    "SUMMIT_NODE",
    "NetworkModel",
    "SUMMIT_NETWORK",
    "VirtualCluster",
    "RankTimeline",
]
