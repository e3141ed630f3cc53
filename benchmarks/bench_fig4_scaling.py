"""Fig. 4 bench: strong (100-1000 nodes) and weak (100-500) scaling, BRCA.

Paper: strong-scaling efficiency 80.96-97.96% (avg 90.14% over 200-1000
nodes, 84.18% at 1000); weak scaling ~90% at 500 nodes (avg 94.6%).
"""

import numpy as np

from repro.experiments import fig4_scaling


def test_fig4_scaling_full_sweep(benchmark, show):
    result = benchmark.pedantic(
        lambda: fig4_scaling.run(elastic_nodes=[100, 400, 700, 1000]),
        rounds=1,
        iterations=1,
    )
    effs = [p.efficiency for p in result.strong]
    nodes = [p.n_nodes for p in result.strong]
    assert nodes[0] == 100 and nodes[-1] == 1000

    # Baseline is exact; efficiency decays with node count overall.
    assert effs[0] == 1.0
    assert all(0.75 <= e <= 1.0 for e in effs)
    assert effs[-1] < effs[1]

    # Headline bands (paper values +/- a few points).
    assert 0.78 <= result.strong_at_max_nodes <= 0.90  # paper 0.8418
    assert 0.85 <= result.strong_avg_efficiency <= 0.95  # paper 0.9014

    # Runtime itself must scale down ~linearly.
    runtimes = [p.runtime_s for p in result.strong]
    assert runtimes[-1] < runtimes[0] / 7

    # Weak scaling: high and flat-ish (paper avg 0.946).
    weak_effs = [p.efficiency for p in result.weak]
    assert all(0.85 <= e <= 1.001 for e in weak_effs)
    assert weak_effs == sorted(weak_effs, reverse=True)

    # Elastic strong scaling under ±20% mid-solve churn: the lease-
    # stealing fleet must hold efficiency at 1000 nodes — fine leases
    # absorb node jitter, so churn costs at most a modest overhead vs
    # the static fleet (and typically wins).
    assert result.elastic[-1].n_nodes == 1000
    assert 0.80 <= result.elastic_at_max_nodes <= 1.05
    assert result.elastic_overhead_at_max < 0.15

    # Where the rank-seconds go at 1000 nodes (analyzer buckets of the
    # traced jobs + set-up): the tables account for every rank-second of
    # the two headline runtimes, and what the elastic fleet wins is the
    # straggler wait.
    for loss, runtime in (
        (result.static_loss, runtimes[-1]),
        (result.elastic_loss, result.elastic[-1].runtime_s),
    ):
        assert abs(sum(loss.values()) / (1000 * runtime) - 1.0) < 1e-6
    assert result.elastic_loss["comm_wait"] < 0.01 * result.static_loss["comm_wait"]

    show(fig4_scaling.report(result))


def test_fig4_pool_backend_four_workers(benchmark, show):
    """Measured 4-rank pool arg-max: bit-exact vs single, leases shown.

    The host-level analogue of Fig. 4's per-device partitioning:
    ``backend="pool"`` is the distributed engine with one equi-area
    partition per rank, so each rank's lease holds a near-equal share of
    the C(g, h) combination workload, and the run's lease ledger makes
    the measured partition balance visible.
    """
    from repro.bitmatrix.matrix import BitMatrix
    from repro.core import DistributedEngine, FScoreParams, SingleGpuEngine
    from repro.scheduling.schemes import scheme_for
    from repro.scheduling.workload import total_work

    rng = np.random.default_rng(42)
    tumor = BitMatrix.from_dense(rng.random((60, 120)) < 0.35)
    normal = BitMatrix.from_dense(rng.random((60, 100)) < 0.1)
    params = FScoreParams(n_tumor=120, n_normal=100)
    scheme = scheme_for(3, 2)

    eng = DistributedEngine(scheme=scheme, n_nodes=4, gpus_per_node=1)
    eng.best_combo(tumor, normal, params)  # fill the normal-hit store
    got = benchmark.pedantic(
        lambda: eng.best_combo(tumor, normal, params), rounds=3, iterations=1
    )

    ref = SingleGpuEngine(scheme=scheme).best_combo(tumor, normal, params)
    assert got == ref
    leases = eng.ledger.leases
    # One lease per rank: the launch round grants lease r to rank r.
    assert [lease.completed_by for lease in leases] == [0, 1, 2, 3]
    scored = [lease.counters.combos_scored for lease in leases]
    assert sum(scored) == total_work(scheme, tumor.n_genes)
    # Equi-area cuts: every lease's work within one thread of the mean.
    mean = sum(scored) / len(scored)
    assert max(scored) <= mean + (tumor.n_genes - scheme.flattened)
    show(
        "\n".join(
            ["  lease | holder | wall (s) | combos scored"]
            + [
                f"  {lease.lease_id:5d} | {lease.completed_by:6d} | "
                f"{lease.wall_seconds:8.4f} | {lease.counters.combos_scored:13d}"
                for lease in leases
            ]
        )
    )
