"""Simulated Summit substrate: nodes, MPI-like communication, virtual time.

The paper runs one MPI process per Summit node (2 Power9 CPUs + 6 V100
GPUs).  This package substitutes:

* :class:`SimCommWorld` / :class:`SimComm` — a thread-backed, in-process
  MPI-like communicator (send/recv/bcast/gather/reduce/allreduce/barrier)
  with deterministic collective semantics; :func:`rank_program` under
  :class:`SPMDRunner` is the paper's Section III-E rank body on it, the
  failure-free reference (a dead rank fails the world fast);
* :class:`VirtualCluster` — a deterministic virtual-time engine with a
  latency/bandwidth network model, used to reproduce the paper's timing
  figures at full 1000-node scale without hardware; built with
  ``trace=True`` it records its timeline as ordinary
  :mod:`repro.telemetry` spans + causal links (virtual nanoseconds), so
  ``multihit trace analyze`` explains a simulated job like a real one;
* :class:`LeaseLedger` / :class:`ElasticSPMDRunner` /
  :func:`spmd_best_combo` — λ-range leases and the one fault-tolerant
  thread fleet, which runs ``backend="distributed"``: ranks pull leases
  (pinned one-per-partition for the static schedule, unpinned for an
  elastic run), renew them with heartbeats, and join/leave mid-solve
  while survivors steal expired or forfeited ranges (winners stay
  bit-identical).  A run's fleet size is fixed at launch, as on an
  allocation; only the fault plan's membership specs change it.
"""

from repro.cluster.node import SummitNodeSpec, SUMMIT_NODE
from repro.cluster.comm import CommAbortedError, SimComm, SimCommWorld
from repro.cluster.runtime import RankFailedError, SPMDRunner
from repro.cluster.network import NetworkModel, SUMMIT_NETWORK
from repro.cluster.virtual import RankTimeline, VirtualCluster
from repro.cluster.mpi_program import rank_program
from repro.cluster.leases import Lease, LeaseLedger
from repro.cluster.elastic import ElasticSPMDRunner, spmd_best_combo

__all__ = [
    "rank_program",
    "spmd_best_combo",
    "Lease",
    "LeaseLedger",
    "ElasticSPMDRunner",
    "SummitNodeSpec",
    "SUMMIT_NODE",
    "CommAbortedError",
    "SimComm",
    "SimCommWorld",
    "RankFailedError",
    "SPMDRunner",
    "NetworkModel",
    "SUMMIT_NETWORK",
    "VirtualCluster",
    "RankTimeline",
]
