#!/usr/bin/env python3
"""The repo benchmark: wall-clock end-to-end metrics, per-layer traced run.

One workload, as the driver runs it (see ``BENCHMARK.json`` at the root)::

    python3 benchmarks/perf/run.py --workload dense3_single --seed 0 \\
        --seconds 8 --trace 0

prints every end-to-end metric by name with its unit and, as the last
line of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` runs the traced pass instead and reports the
per-layer metrics.  Without ``--workload`` every workload runs in a fresh
subprocess each and one ``results.json`` lands in ``--out`` (``--trace``
adds the traced pass); the exit code is non-zero on any correctness
failure.  ``--smoke`` shrinks the inputs to test the harness itself.

A workload never runs in the process the caller started: that process
only supervises (``supervise``).  It runs the workload in a child and
returns once every process the child started has ended and been reaped
-- pool workers and ``multiprocessing``'s resource tracker outlive the
interpreter that started them by a moment, and would otherwise still be
there when the caller looks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
DEFAULT_OUT = PERF_DIR / "out"

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 5  # timed operations per run, at least
TRACE_ROUNDS = 2  # rounds of the traced run's variants, at least
GATEWAY_BATCH = 10  # jobs per variant step of the traced gateway run
CALIBRATE_EVERY_S = 0.25  # a calibration slice at least this often between operations
LINGER_S = 10.0  # how long a workload's orphans may take to end by themselves


def declared() -> dict:
    """``BENCHMARK.json``: the one place metric and workload names live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bootstrap() -> None:
    """Pin BLAS threads, then make the checkout's own ``repro`` importable."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError:
        sys.exit(f"no importable repro package under {ROOT / 'src'}")
    if ROOT not in Path(repro.__file__).resolve().parents:
        sys.exit(f"refusing to measure a repro outside this checkout: {repro.__file__}")


def _peak_rss_mb() -> float:
    import resource

    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


# -- the untraced run: end-to-end metrics ----------------------------------


def timed_run(session, workload, seconds: float) -> tuple:
    """Set up ``SETUPS`` times, then time operations for ``seconds``.

    Calibration slices (``calibrate.py``) run before and after every
    set-up and at least every ``CALIBRATE_EVERY_S`` between operations, inside the
    measuring time; a timing is divided by the mean speed factor of the two
    slices around it.  Returns the metric values, the per-operation samples
    behind them (for ``compare.py``'s quartiles) and the outcomes to check.
    """
    from calibrate import Calibrator
    from layers import p50, per_input

    cal = Calibrator()
    cal.slice()  # warm-up
    setups, setup_speeds = [], []
    speed = cal.slice()
    for _ in range(SETUPS):
        session.close()
        gc.collect()
        t0 = perf_counter()
        session.setup()
        setups.append(perf_counter() - t0)
        before, speed = speed, cal.slice()
        setup_speeds.append((before + speed) / 2)
    outcomes, speeds = [], []
    start = since = perf_counter()
    while True:
        gc.collect()
        outcomes.append(session.op())
        now = perf_counter()
        typical = p50(o.seconds for o in outcomes)
        done = len(outcomes) >= MIN_OPS and now - start + typical > seconds
        if done or now - since >= CALIBRATE_EVERY_S:
            before, speed = speed, cal.slice()
            speeds += [(before + speed) / 2] * (len(outcomes) - len(speeds))
            since = perf_counter()
        if done:
            break
    corrected = {id(o): o.seconds / f for o, f in zip(outcomes, speeds)}
    good = [o for o in outcomes if o.signature is not None] or outcomes

    def solve_s(o) -> float:
        return corrected[id(o)]

    def rate(o) -> float:
        return max(o.iterations, 1) * workload.grid / corrected[id(o)]

    samples = {
        "solve_s": [solve_s(o) for o in good],
        "grid_combos_per_s": [rate(o) for o in good],
        "setup_s": [s / f for s, f in zip(setups, setup_speeds)],
        "peak_rss_mb": [_peak_rss_mb()],
        "wall_solve_s": [o.seconds for o in good],
        "wall_setup_s": setups,
        "speed_factor": setup_speeds + speeds,
    }
    values = {
        "solve_s": per_input(good, solve_s),
        "grid_combos_per_s": per_input(good, rate),
        "setup_s": p50(samples["setup_s"]),
        "peak_rss_mb": samples["peak_rss_mb"][0],
    }
    print(
        f"uncorrected wall: solve_s {per_input(good):.6g} s, setup_s "
        f"{p50(setups):.6g} s; speed factor median {p50(samples['speed_factor']):.3f} "
        f"(min {min(samples['speed_factor']):.3f}, max {max(samples['speed_factor']):.3f}, "
        f"{len(cal.slices)} slices)"
    )
    return values, samples, outcomes


# -- the traced run: per-layer metrics --------------------------------------

EXTRA_VARIANTS = {"pool3_2w": ("single",), "dist3_elastic": ("single", "static")}


def traced_run(session, workload, seconds: float, out: "Path | None") -> tuple:
    """Interleave untraced, traced and telemetry-on operations for ``seconds``.

    Returns the per-layer metrics (medians over the traced operations,
    ratios over the interleaved variants) and the outcomes to check.
    """
    import trace
    from calibrate import Calibrator
    from layers import operation_metrics, p50
    from repro.core.pool import PoolStats
    from repro.telemetry.session import telemetry_session

    gateway = workload.kind == "gateway"
    session.setup()
    rec = trace.install()
    if gateway:
        variants = ["plain", "traced", "direct", "direct_telemetry"]
        batch = GATEWAY_BATCH
        root_span = ("service.job", "service")
    else:
        variants = ["plain", "traced", "telemetry", *EXTRA_VARIANTS.get(workload.name, ())]
        batch = 1
        root_span = ("bench.operation", "bench")
    runs: dict = {v: [] for v in variants}
    per_op: list = []
    spans_recorded: list = []
    cal = Calibrator()
    cal.slice()  # warm-up
    speeds: list = []

    def step(variant: str) -> None:
        for _ in range(batch):
            gc.collect()
            if variant == "traced":
                rec.pool_stats = PoolStats()
                rec.ledgers = []
                first = len(rec.spans)
                with rec.operation(len(per_op), *root_span) as root:
                    outcome = session.op(lane=variant)
                per_op.append(
                    operation_metrics(
                        rec.spans[first:], root, outcome.seconds,
                        None if gateway else outcome.result,
                        rec.pool_stats, rec.ledgers,
                    )
                )
            elif variant.endswith("telemetry"):
                with telemetry_session(enabled=True) as tel:
                    outcome = session.op("direct" if gateway else "plain", lane=variant)
                spans_recorded.append(len(tel.tracer.spans))
            else:
                outcome = session.op(variant, lane=variant)
            runs[variant].append(outcome)

    try:
        start = perf_counter()
        rounds = 0
        while True:
            t0 = perf_counter()
            # Alternate which variant goes first, so no one of them always
            # runs on the warmer cache.
            for variant in variants if rounds % 2 == 0 else reversed(variants):
                step(variant)
            # Per-layer seconds are left as measured; this says how slow
            # the box was while they were.
            speeds.append(cal.slice())
            rounds += 1
            now = perf_counter()
            if rounds >= TRACE_ROUNDS and (now - start) + (now - t0) > seconds:
                break
    finally:
        rec.uninstall()
    if out is not None:
        rec.write_jsonl(out / f"trace-{workload.name}.jsonl")

    m = {key: p50(d.get(key, 0.0) for d in per_op) for key in set().union(*per_op)}
    m["telemetry.spans_recorded"] = p50(spans_recorded)
    m["bench.speed_factor"] = p50(speeds)
    m.update(_run_level_metrics(session, workload, runs))
    checked = [o for v in ("plain", "traced", "telemetry") for o in runs.get(v, ())]
    return m, checked


def _run_level_metrics(session, workload, runs: dict) -> dict:
    """Per-layer metrics that compare variants or describe the inputs."""
    import numpy as np

    from layers import p50, p90, per_input, ratio

    def med(variant: str) -> float:
        return per_input(o for o in runs[variant] if o.signature is not None)

    for variant, outcomes in runs.items():
        print(f"variant {variant:<17} n={len(outcomes):<3} median {med(variant):.4f} s")
    gateway = workload.kind == "gateway"
    m = {"bitmatrix.pack_s": session.pack_s}
    m["bench.trace_overhead_ratio"] = ratio(med("traced"), med("plain"))
    if gateway:
        m["telemetry.on_over_off"] = ratio(med("direct_telemetry"), med("direct"))
        latencies = [o.seconds for o in runs["plain"] if o.signature is not None]
        m["service.job_latency_s_p50"] = p50(latencies)
        m["service.job_latency_s_p90"] = p90(latencies)
        m["service.jobs_per_s"] = ratio(len(latencies), sum(latencies))
        m["service.rejected"] = len(runs["plain"]) - len(latencies)
        m["service.overhead_s_p50"] = med("plain") - med("direct")
        m["service.overhead_ratio"] = ratio(med("plain"), med("direct"))
        return m
    m["telemetry.on_over_off"] = ratio(med("telemetry"), med("plain"))
    m["bitmatrix.nonzero_stride_fraction"] = float(
        np.mean([
            matrix.sparsity(64).nonzero_fraction
            for pair in session.matrices for matrix in pair
        ])
    )
    m["bitmatrix.density"] = float(np.mean([i.density for i in session.instances]))
    if session.checkpoint.exists():
        from repro.core.checkpoint import load_state

        t0 = perf_counter()
        load_state(session.checkpoint)
        m["checkpoint.load_s"] = perf_counter() - t0
    if workload.name == "pool3_2w":
        m["pool.speedup_over_single"] = ratio(med("single"), med("plain"))
    if workload.name == "dist3_elastic":
        m["distributed.over_single"] = ratio(med("plain"), med("single"))
        m["distributed.static_solve_s"] = med("static")
        m["leases.elastic_over_static"] = ratio(med("plain"), med("static"))
    return m


# -- one workload, in this process ------------------------------------------


def run_workload(args) -> int:
    _exit_on_sigterm()
    _bootstrap()
    from ops import open_session
    from workloads import WORKLOADS

    spec = declared()
    by_name = {w.name: w for w in WORKLOADS}
    if args.workload not in by_name:
        sys.exit(f"unknown workload {args.workload!r}; known: {sorted(by_name)}")
    workload = by_name[args.workload]
    if args.smoke:
        workload = workload.smoke()
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    DEFAULT_OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=DEFAULT_OUT))
    session = open_session(workload, args.seed, scratch)
    samples = None
    try:
        if args.trace:
            values, outcomes = traced_run(session, workload, args.seconds, out)
            wanted = spec["per_layer"]
        else:
            values, samples, outcomes = timed_run(session, workload, args.seconds)
            wanted = spec["end_to_end"]
        attempted, failed = session.check(outcomes)
        inputs = session.header()
    finally:
        session.close()
        shutil.rmtree(scratch, ignore_errors=True)

    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        sys.exit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        # A layer this workload never enters reports 0 (zero calls, zero
        # seconds); an end-to-end metric must always be measured.
        value = values[m["name"]] if not args.trace else values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<36} {value:>16.6g} {m['unit']}")
    print(
        f"workload={workload.name} seed={args.seed} operations={len(outcomes)} "
        f"attempted={attempted} failed={failed} "
        f"error_rate={failed / attempted:.4f}"
    )
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if out is not None:
        detail = dict(line, workload=workload.name, seed=args.seed,
                      smoke=args.smoke, samples=samples, inputs=inputs)
        kind = "layers" if args.trace else "e2e"
        (out / f"{workload.name}.{kind}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


# -- one workload, supervised -------------------------------------------------


def _adopt_orphans() -> None:
    """Make this process the one that orphaned descendants are handed to.

    Linux ``prctl(PR_SET_CHILD_SUBREAPER, 1)``: a process whose parent has
    exited becomes our child instead of init's, so ``waitpid`` sees it.
    """
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    try:
        failed = ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        failed = True
    if failed:
        print("warning: cannot adopt orphaned processes on this platform; "
              "a workload's helpers may outlive this run briefly", file=sys.stderr)


def _reap_all(group: int) -> None:
    """Wait until no child of this process is left, adopted ones included.

    What is still there after ``LINGER_S`` is killed; ``group`` is the
    workload's process group.
    """
    deadline = time.monotonic() + LINGER_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.005)


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks clean up."""

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)


def supervise(argv: list) -> int:
    """Run one workload in a child; return when all it started has ended."""
    _exit_on_sigterm()
    _adopt_orphans()
    child = subprocess.Popen(
        [sys.executable, str(PERF_DIR / "run.py"), *argv, "--supervised"],
        start_new_session=True,  # one process group to kill, if it comes to that
    )
    try:
        return child.wait()
    finally:
        if child.returncode is None:  # interrupted: ask the workload to clean up
            child.terminate()
        _reap_all(child.pid)


# -- every workload, a fresh subprocess each ---------------------------------


def _host() -> dict:
    import platform

    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def run_all(args) -> int:
    spec = declared()
    out = Path(args.out) if args.out else DEFAULT_OUT
    out.mkdir(parents=True, exist_ok=True)
    results = {
        "schema": "repro-perf/v1", "smoke": args.smoke, "seed": args.seed,
        "seconds": args.seconds, "host": _host(), "workloads": {},
    }
    status = 0
    for w in spec["workloads"]:
        entry = results["workloads"][w["name"]] = {}
        for traced in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, str(PERF_DIR / "run.py"), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(traced), "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            print(f"== {w['name']} (trace {traced})", flush=True)
            code = subprocess.run(cmd).returncode
            kind = "layers" if traced else "e2e"
            partial = out / f"{w['name']}.{kind}.json"
            if partial.exists():
                entry[kind] = json.loads(partial.read_text())
                partial.unlink()
            if code != 0:
                status = 1
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(f"wrote {out / 'results.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--out", help="directory for results and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; results are refused by compare.py")
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else declared()["run_seconds"]
    if not args.workload:
        return run_all(args)
    return run_workload(args) if args.supervised else supervise(argv)


if __name__ == "__main__":
    sys.exit(main())
