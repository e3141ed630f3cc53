"""Per-layer metrics of one traced operation.

``_s`` metrics are busy seconds inside the named call summed over the
operation; ``self`` is a span's duration minus what its child spans
cover; ``share.<layer>`` is that layer's self time as a fraction of the
operation's wall time, so the shares of one operation sum to
``bench.closure`` (1 when the spans nest cleanly).  The root span of a
solve belongs to the ``bench`` layer; a gateway job's root belongs to
``service``, because whatever the job waits for outside the solver *is*
the service.
Counts come from the objects the program itself returns at the same
boundaries (``KernelCounters``, ``PoolStats``, ``LeaseLedger``).
"""

from __future__ import annotations

import statistics

from trace import self_times

__all__ = ["LAYERS", "operation_metrics", "p50", "p90", "per_input", "ratio"]

LAYERS = (
    "combinatorics", "kernels", "fscore", "engine", "bitmatrix", "bounds",
    "checkpoint", "solver", "scheduling", "reduction", "pool", "distributed",
    "leases", "service", "bench",
)


def p50(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_input(outcomes, value=lambda o: o.seconds) -> float:
    """Median of ``value`` per input, averaged over the run's inputs.

    A run rotates its operations over its inputs, so each input gets the
    same weight whatever the operation count; with one input this is the
    plain median.
    """
    by_key: dict = {}
    for o in outcomes:
        by_key.setdefault(o.key, []).append(value(o))
    return statistics.fmean(p50(v) for v in by_key.values()) if by_key else 0.0


def p90(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    return float(values[min(len(values) - 1, int(0.9 * len(values)))])


def ratio(a: float, b: float) -> float:
    """``a / b``, or 0 when the layer behind ``b`` never ran."""
    return a / b if b else 0.0


def operation_metrics(spans: list, root, wall: float, result, pool_stats,
                      ledgers: list) -> dict:
    """Metrics of one traced operation.

    ``spans`` are the operation's spans (every thread) and ``root`` the
    one that encloses it; ``wall`` is the operation's own stopwatch.
    ``result`` is the solver result (``None`` for a gateway job, whose
    counters are not per-layer material); ``pool_stats`` and ``ledgers``
    are what the program filled during this operation.
    """
    m: dict = {}
    selfs = self_times(spans, root)
    pool_chunks = pool_stats.chunks

    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list:
        return by_name.get(name, [])

    def busy(name: str) -> float:
        return sum(s.duration for s in named(name))

    def layer_self(layer: str) -> float:
        return sum(selfs[s.span_id] for s in spans if s.layer == layer)

    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(layer_self(layer), wall)
    m["bench.closure"] = ratio(sum(selfs.values()), wall)

    decode = named("combinatorics.decode")
    m["combinatorics.decode_s"] = busy("combinatorics.decode")
    m["combinatorics.decode_calls"] = len(decode)
    m["combinatorics.decode_tuples"] = sum(s.n for s in decode)
    m["combinatorics.decode_ns_per_tuple"] = ratio(
        1e9 * m["combinatorics.decode_s"], m["combinatorics.decode_tuples"]
    )
    m["combinatorics.top_index_s"] = busy("combinatorics.top_index")

    m["kernels.fused_pair_popcount_s"] = busy("kernels.fused_pair_popcount")
    m["kernels.fused_pair_popcount_calls"] = len(named("kernels.fused_pair_popcount"))
    m["kernels.score_combos_s"] = busy("kernels.score_combos")
    m["kernels.best_of_s"] = busy("kernels.best_of")
    kernel_s = m["kernels.fused_pair_popcount_s"] + m["kernels.score_combos_s"]
    if result is not None:
        c = result.counters
        m["kernels.combos_scored"] = c.combos_scored
        m["kernels.word_reads"] = c.word_reads
        m["kernels.word_reads_skipped"] = c.word_reads_skipped
        m["kernels.strides_skipped_sparse"] = c.strides_skipped_sparse
        m["kernels.prefix_and_hits"] = c.prefix_and_hits
        m["kernels.zero_prefix_runs_skipped"] = c.zero_prefix_runs_skipped
        m["kernels.ns_per_combo"] = ratio(1e9 * kernel_s, c.combos_scored)
        # Computed, not measured: 8-byte words the counters say were
        # gathered, over the time spent in the kernel calls.
        m["kernels.computed_gbytes_per_s"] = ratio(8e-9 * c.word_reads, kernel_s)
        m["bounds.combos_pruned"] = c.combos_pruned
        m["bounds.pruned_fraction"] = ratio(
            c.combos_pruned, c.combos_pruned + c.combos_scored
        )
        m["bounds.supers_skipped"] = c.supers_skipped
        walls = [r.wall_seconds for r in result.iterations]
        m["solver.iterations"] = len(walls)
        m["solver.iter_s_p50"] = p50(walls)
        m["solver.iter_s_max"] = max(walls, default=0.0)
        m["solver.coverage"] = result.coverage

    engine = named("engine.best_in_thread_range")
    m["engine.best_combo_s"] = sum(s.duration for s in engine)
    m["engine.best_combo_calls"] = len(engine)
    m["engine.self_s"] = layer_self("engine")
    m["engine.self_fraction"] = ratio(m["engine.self_s"], m["engine.best_combo_s"])
    m["fscore.fscore_s"] = busy("fscore.fscore")
    m["fscore.calls"] = len(named("fscore.fscore"))

    m["bitmatrix.splice_s"] = busy("bitmatrix.splice")
    m["bitmatrix.splice_calls"] = len(named("bitmatrix.splice"))
    m["bitmatrix.sparsity_build_s"] = busy("bitmatrix.sparsity_build")
    m["bitmatrix.sparsity_build_calls"] = len(named("bitmatrix.sparsity_build"))
    m["bitmatrix.stride_mask_s"] = busy("bitmatrix.stride_mask")

    m["bounds.build_s"] = busy("bounds.build")
    m["bounds.visit_s"] = busy("bounds.visit")
    m["bounds.refresh_s"] = busy("bounds.refresh")
    m["bounds.payload_s"] = busy("bounds.payload")
    m["bounds.calls"] = sum(1 for s in spans if s.layer == "bounds")

    saves = named("checkpoint.save")
    m["checkpoint.save_s"] = busy("checkpoint.save")
    m["checkpoint.save_calls"] = len(saves)
    m["checkpoint.bytes"] = sum(s.n for s in saves)

    m["solver.self_s"] = layer_self("solver")
    m["scheduling.equiarea_s"] = layer_self("scheduling")
    m["scheduling.equiarea_calls"] = len(named("scheduling.equiarea"))
    reduces = named("reduction.reduce")
    m["reduction.reduce_s"] = busy("reduction.reduce")
    m["reduction.reduce_calls"] = len(reduces)
    m["reduction.entries"] = sum(s.n for s in reduces)

    calls = named("pool.best_combo")
    m["pool.best_combo_s"] = busy("pool.best_combo")
    m["pool.first_call_s"] = calls[0].duration if calls else 0.0
    m["pool.parent_overhead_s"] = sum(
        s.duration - s.attrs.get("slowest_chunk_s", 0.0) for s in calls
    )
    m["pool.close_s"] = busy("pool.close")
    if calls:
        m["pool.publish_s"] = pool_stats.publish_seconds
        m["pool.publishes"] = pool_stats.n_publishes
        m["pool.shipped_bytes"] = pool_stats.shipped_bytes
        m["pool.chunk_busy_s"] = sum(c.wall_seconds for c in pool_chunks)
        m["pool.inline_retries"] = sum(c.inline_retry for c in pool_chunks)
        per_worker: dict = {}
        for c in pool_chunks:
            per_worker[c.worker_pid] = per_worker.get(c.worker_pid, 0.0) + c.wall_seconds
        busiest = list(per_worker.values())
        m["pool.worker_imbalance"] = ratio(max(busiest), statistics.fmean(busiest))

    m["distributed.best_combo_s"] = busy("distributed.best_combo")
    m["distributed.self_s"] = layer_self("distributed")
    m["leases.build_s"] = busy("leases.build")
    m["leases.acquire_s"] = busy("leases.acquire")
    m["leases.complete_s"] = busy("leases.complete")
    m["leases.merge_s"] = busy("leases.merge")
    m["leases.granted"] = sum(ledger.n_grants for ledger in ledgers)
    m["leases.steals"] = sum(ledger.n_steals for ledger in ledgers)

    m["service.submit_s_p50"] = busy("service.submit")
    m["service.run_s_p50"] = busy("checkpoint.solve_with_checkpoints")
    m["service.cohort_s_p50"] = busy("service.cohort")
    return m
