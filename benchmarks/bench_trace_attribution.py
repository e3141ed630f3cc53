"""Causal-trace analysis bench: straggler attribution on an elastic solve.

Runs the acceptance scenario for the causal layer — a traced 4-rank
elastic solve with an injected straggler (0.4 s stall on rank 0) and a
rank crash whose lease is stolen — and writes ``BENCH_trace.json``.
The gates are the layer's core promises: the winner is bit-identical
with tracing on vs off, the extracted critical path tiles the trace
window (coverage >= 0.95), per-bucket attribution closes against total
rank-seconds within 1%, and the analyzer names the straggler's
comm-wait as the dominant loss bucket.  Analyzer wall time over the
trace lands in the summary so the regression gate can see analysis
throughput drift separately from solve time.
"""

import time

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.cluster import LeaseLedger, spmd_best_combo
from repro.core.engine import SingleGpuEngine
from repro.core.fscore import FScoreParams
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import FaultReport
from repro.scheduling.schemes import SCHEME_3X1
from repro.telemetry import analyze_trace, telemetry_session

N_RANKS = 4
N_LEASES = 8
STRAGGLER_DELAY_S = 0.4


def _instance():
    rng = np.random.default_rng(12345)
    t = rng.random((14, 30)) < 0.4
    n = rng.random((14, 24)) < 0.2
    return (
        BitMatrix.from_dense(t),
        BitMatrix.from_dense(n),
        FScoreParams(n_tumor=30, n_normal=24),
    )


def _plan():
    return FaultPlan(
        (
            FaultSpec(
                kind="straggler", site="rank", target=0,
                delay_s=STRAGGLER_DELAY_S,
            ),
            FaultSpec(kind="crash", site="rank", target=1),
        )
    )


def _solve(tumor, normal, params):
    return spmd_best_combo(
        LeaseLedger.build(SCHEME_3X1, tumor.n_genes, N_LEASES, ttl_s=5.0),
        SCHEME_3X1, tumor, normal, params, N_RANKS,
        fault_plan=_plan(), report=FaultReport(), max_wall_s=120.0,
    )


def test_traced_straggler_attribution(benchmark, show, bench_summary):
    tumor, normal, params = _instance()
    ref = SingleGpuEngine(scheme=SCHEME_3X1).best_combo(tumor, normal, params)

    got_off = _solve(tumor, normal, params)
    with telemetry_session() as telemetry:
        t0 = time.perf_counter()
        got_on = benchmark.pedantic(
            _solve, args=(tumor, normal, params), rounds=1, iterations=1
        )
        wall_traced = time.perf_counter() - t0

    # The gate: tracing observes the solve, never changes it.
    bit_identical = float(got_on == got_off == ref)
    assert bit_identical == 1.0

    spans = telemetry.tracer.export()
    steal_edges = sum(
        1
        for s in spans
        for link in s.get("links") or ()
        if link["kind"] == "steal"
    )
    assert steal_edges > 0, "crash produced no steal edge"

    # Analyzer throughput: best-of-5 over the real trace.
    analyze_walls = []
    for _ in range(5):
        a0 = time.perf_counter()
        report = analyze_trace(spans)
        analyze_walls.append(time.perf_counter() - a0)
    analyze_wall = min(analyze_walls)

    coverage = report["critical_path"]["coverage"]
    closure = report["attribution"]["closure"]
    comm_wait = report["attribution"]["buckets"]["comm_wait"]
    assert coverage >= 0.95
    assert abs(closure - 1.0) <= 0.01
    assert report["dominant_loss"] == "comm_wait"
    assert comm_wait >= STRAGGLER_DELAY_S * 0.8
    stall_on_path = any(
        seg["name"] == "comm.stall"
        for seg in report["critical_path"]["segments"]
    )
    assert stall_on_path, "straggler stall missing from the critical path"

    bench_summary(
        "trace",
        values={
            "n_ranks": N_RANKS,
            "n_leases": N_LEASES,
            "bit_identical": bit_identical,
            "span_count": len(spans),
            "steal_edges": steal_edges,
            "coverage": coverage,
            "closure": closure,
            "comm_wait_s": comm_wait,
            "comm_wait_dominant": float(
                report["dominant_loss"] == "comm_wait"
            ),
            "critical_path_s": report["critical_path"]["length_s"],
            "analyze_wall_s": analyze_wall,
            "spans_per_second": (
                len(spans) / analyze_wall if analyze_wall > 0 else 0.0
            ),
            "wall_seconds_traced": wall_traced,
        },
        telemetry=telemetry,
    )
    show(
        f"traced elastic solve: bit_identical={bit_identical:.0f}, "
        f"spans={len(spans)}, coverage={coverage:.3f}, "
        f"closure={closure:.4f}, dominant={report['dominant_loss']}, "
        f"comm_wait={comm_wait:.3f}s, analyze={analyze_wall * 1e3:.1f}ms"
    )
