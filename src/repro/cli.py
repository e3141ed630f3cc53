"""Command-line interface.

Subcommands::

    multihit solve       # run the greedy solver on a synthetic cohort
    multihit serve       # multi-tenant async job gateway (HTTP API)
    multihit experiment  # regenerate a paper table/figure (fig2..fig10, ...)
    multihit catalog     # list the cancer-type catalog
    multihit schedule    # inspect ED/EA schedules for a configuration
    multihit trace       # causal-trace analysis (critical path, attribution)

Run ``multihit <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multihit",
        description="Multi-hit carcinogenic gene-combination discovery (IPDPS'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a synthetic cohort")
    p_solve.add_argument("--dataset", type=str, default=None,
                         help="named dataset from the registry (overrides --genes/...)")
    p_solve.add_argument("--genes", type=int, default=40)
    p_solve.add_argument("--tumor", type=int, default=120)
    p_solve.add_argument("--normal", type=int, default=120)
    p_solve.add_argument("--hits", type=int, default=3)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--backend",
        choices=["single", "pool", "distributed", "sequential"],
        default="single",
    )
    p_solve.add_argument("--nodes", type=int, default=2, help="distributed backend only")
    p_solve.add_argument(
        "--workers", type=int, default=2, help="pool backend: ranks, one partition each"
    )
    p_solve.add_argument(
        "--elastic", action="store_true",
        help="lease-based work stealing instead of fixed partitions "
             "(pool/distributed backends, four leases per rank/worker; "
             "winners stay bit-identical, and membership churn — joins, "
             "leaves, dead ranks — is absorbed by survivors stealing the "
             "affected λ-leases)",
    )
    p_solve.add_argument("--output", type=str, default=None, help="save result JSON")
    p_solve.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="checkpoint file; if it already exists the run resumes from it",
    )
    p_solve.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="persist the checkpoint every N greedy iterations (default 1)",
    )
    p_solve.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a Chrome trace_event JSON (open in Perfetto); "
             "'.jsonl' suffix writes the JSONL event log instead",
    )
    p_solve.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the run's metrics summary JSON",
    )
    p_solve.add_argument(
        "--no-telemetry", action="store_true",
        help="disable tracing/metrics collection entirely",
    )
    p_solve.add_argument(
        "--flight-recorder", type=str, default=None, metavar="DIR",
        help="attach the flight recorder; post-mortem black-box JSON dumps "
             "land in DIR on rank/worker failure or solver crash",
    )
    p_solve.add_argument(
        "--prom-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus /metrics and /healthz on 127.0.0.1:PORT "
             "for the duration of the solve (0 picks a free port)",
    )
    p_solve.add_argument(
        "--progress", action="store_true",
        help="live single-line progress/ETA status on stderr",
    )
    p_solve.add_argument(
        "--quiet", action="store_true",
        help="suppress informational messages; the machine-readable result "
             "listing on stdout is unchanged",
    )

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant async job gateway"
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8757,
        help="HTTP port for /v1 + /metrics + /healthz (0 picks a free port)",
    )
    p_serve.add_argument(
        "--state-dir", type=str, default="gateway-state", metavar="DIR",
        help="job store + per-job checkpoints + flight dumps live here; "
             "restarting against the same DIR resumes interrupted jobs",
    )
    p_serve.add_argument(
        "--max-concurrent", type=int, default=2, metavar="N",
        help="supervisor threads = jobs solving at once (default 2)",
    )
    p_serve.add_argument(
        "--max-workers", type=int, default=8, metavar="N",
        help="fleet-wide worker budget: the most workers any job gets "
             "(the sizing rule also caps its own picks at the core count)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=32, metavar="N",
        help="fleet-wide in-flight job bound; submissions past it get 429",
    )
    p_serve.add_argument(
        "--tenant-quota", type=int, default=8, metavar="N",
        help="per-tenant in-flight job bound (0 disables)",
    )
    p_serve.add_argument(
        "--ready-file", type=str, default=None, metavar="PATH",
        help="write {url, port} JSON once listening (CI / scripts find "
             "the ephemeral port here)",
    )
    p_serve.add_argument(
        "--quiet", action="store_true",
        help="suppress informational messages on stderr",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", help="experiment id ('list' to enumerate, 'all' to run every one)")
    p_exp.add_argument("--output", type=str, default=None, help="write the report to a file")

    sub.add_parser("catalog", help="list the 31-cancer catalog")

    p_sched = sub.add_parser("schedule", help="inspect a schedule")
    p_sched.add_argument("--genes", type=int, default=100)
    p_sched.add_argument("--gpus", type=int, default=12)
    p_sched.add_argument("--scheme", choices=["2x2", "3x1"], default="3x1")
    p_sched.add_argument(
        "--policy",
        choices=["equiarea", "equidistance", "costaware", "interleaved"],
        default="equiarea",
    )

    p_ds = sub.add_parser("dataset", help="generate / inspect cohort archives")
    ds_sub = p_ds.add_subparsers(dest="dataset_command", required=True)
    p_gen = ds_sub.add_parser("generate", help="generate a cohort .npz")
    p_gen.add_argument("path")
    p_gen.add_argument("--cancer", type=str, default=None, help="catalog abbreviation")
    p_gen.add_argument("--genes", type=int, default=48)
    p_gen.add_argument("--tumor", type=int, default=120)
    p_gen.add_argument("--normal", type=int, default=120)
    p_gen.add_argument("--hits", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_info = ds_sub.add_parser("info", help="describe a cohort .npz")
    p_info.add_argument("path")

    p_roof = sub.add_parser("roofline", help="roofline placement of kernel configs")
    p_roof.add_argument("--words", type=int, default=31, help="packed width (tumor+normal)")

    p_trace = sub.add_parser("trace", help="analyze exported causal traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_analyze = trace_sub.add_parser(
        "analyze",
        help="critical path + per-bucket time attribution of a trace",
    )
    p_analyze.add_argument("path", help="trace file (JSONL export or Chrome-trace-adjacent JSON)")
    p_analyze.add_argument(
        "--top", type=int, default=10,
        help="critical-path segments to show (default 10)",
    )
    p_analyze.add_argument(
        "--json", action="store_true",
        help="emit the full machine-readable report instead of the summary",
    )
    return parser


def _note(args: argparse.Namespace, message: str) -> None:
    """Informational output: stderr, silenced by ``--quiet``.

    The machine-readable result listing stays on stdout so piping
    ``multihit solve`` into a parser keeps working regardless of these.
    """
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _cmd_solve(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.telemetry import (
        FlightRecorder,
        ProgressMonitor,
        telemetry_session,
    )

    with ExitStack() as stack:
        telemetry = stack.enter_context(
            telemetry_session(enabled=not args.no_telemetry)
        )
        if args.flight_recorder:
            telemetry.attach_flight(FlightRecorder(out_dir=args.flight_recorder))
            _note(args, f"flight recorder armed: {args.flight_recorder}")
        if args.prom_port is not None:
            from repro.service import MetricsServer

            server = stack.enter_context(
                MetricsServer(telemetry=telemetry, port=args.prom_port)
            )
            _note(args, f"metrics: {server.url}/metrics")
        if args.progress and not args.no_telemetry:
            stack.enter_context(
                ProgressMonitor(
                    telemetry=telemetry,
                    stream=None if args.quiet else sys.stderr,
                )
            )
        code = _run_solve(args, telemetry)
        if not args.no_telemetry:
            _export_telemetry(args, telemetry)
    return code


def _run_solve(args: argparse.Namespace, telemetry) -> int:
    from repro.core.solver import MultiHitSolver
    from repro.data.synthesis import CohortConfig, generate_cohort

    if args.dataset:
        from repro.data.registry import dataset

        cohort = dataset(args.dataset)
        hits = cohort.config.hits
    else:
        cohort = generate_cohort(
            CohortConfig(
                n_genes=args.genes,
                n_tumor=args.tumor,
                n_normal=args.normal,
                hits=args.hits,
                seed=args.seed,
            )
        )
        hits = args.hits
    solver = MultiHitSolver(
        hits=hits, backend=args.backend, n_nodes=args.nodes, n_workers=args.workers,
        elastic=args.elastic,
    )
    if args.checkpoint:
        from pathlib import Path

        from repro.core.checkpoint import solve_with_checkpoints

        if Path(args.checkpoint).exists():
            _note(args, f"resuming from checkpoint {args.checkpoint}")
        result = solve_with_checkpoints(
            solver,
            cohort.tumor.values,
            cohort.normal.values,
            args.checkpoint,
            every=args.checkpoint_every,
        )
    else:
        result = solver.solve(cohort.tumor.values, cohort.normal.values)
    print(
        f"solved {cohort.tumor.n_genes} genes / "
        f"{cohort.tumor.n_samples}+{cohort.normal.n_samples} samples: "
        f"{len(result.combinations)} combinations, coverage {result.coverage:.1%}"
    )
    planted = set(cohort.planted)
    for c in result.combinations:
        names = ",".join(cohort.tumor.gene_names[g] for g in c.genes)
        mark = " [planted]" if c.genes in planted else ""
        print(f"  F={c.f:.4f} TP={c.tp:4d} TN={c.tn:4d}  {names}{mark}")
    if args.output:
        from repro.io.results import save_result

        save_result(result, args.output)
        _note(args, f"result written to {args.output}")
    return 0


def _export_telemetry(args: argparse.Namespace, telemetry) -> None:
    from repro.telemetry import write_chrome_trace, write_jsonl, write_summary

    if args.trace_out:
        if args.trace_out.endswith(".jsonl"):
            write_jsonl(args.trace_out, telemetry)
        else:
            write_chrome_trace(args.trace_out, telemetry)
        _note(args, f"trace written to {args.trace_out}")
    if args.metrics_out:
        write_summary(
            args.metrics_out,
            name=f"solve-{args.backend}",
            telemetry=telemetry,
            extra={"backend": args.backend, "seed": args.seed},
        )
        _note(args, f"metrics summary written to {args.metrics_out}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import Gateway

    gateway = Gateway(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        max_workers=args.max_workers,
        queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
    )
    if gateway._recovered:
        _note(args, f"recovered {gateway._recovered} interrupted job(s)")
    stop = False

    def _handle(signum, frame) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGINT, _handle)
    signal.signal(signal.SIGTERM, _handle)
    with gateway:
        _note(args, f"gateway listening on {gateway.url} "
                    f"(state={args.state_dir})")
        if args.ready_file:
            import json as _json
            from pathlib import Path

            Path(args.ready_file).write_text(
                _json.dumps({"url": gateway.url, "port": gateway.port}) + "\n"
            )
        import time as _time

        while not stop:
            _time.sleep(0.2)
    _note(args, "gateway stopped (interrupted jobs resume on next start)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    if args.name == "list":
        for name, mod in EXPERIMENTS.items():
            doc = (mod.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:18s} {doc}")
        return 0
    if args.name == "all":
        from repro.experiments.runner import compose_report, run_all

        outcomes = run_all()
        text = compose_report(outcomes)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(text + "\n")
            print(f"report written to {args.output} "
                  f"({sum(o.ok for o in outcomes)}/{len(outcomes)} ok)")
        else:
            print(text)
        return 0 if all(o.ok for o in outcomes) else 1
    if args.name not in EXPERIMENTS:
        print(
            f"unknown experiment {args.name!r}; run 'multihit experiment list'",
            file=sys.stderr,
        )
        return 2
    mod = EXPERIMENTS[args.name]
    text = mod.report(mod.run())
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_catalog(_: argparse.Namespace) -> int:
    from repro.data.cancers import CANCER_CATALOG

    print("abbrev | tumor | normal |  genes | est. hits")
    for c in CANCER_CATALOG.values():
        print(
            f"{c.abbrev:6s} | {c.n_tumor:5d} | {c.n_normal:6d} | {c.n_genes:6d} | "
            f"{c.estimated_hits}{' (4+)' if c.four_hit else ''}"
        )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.scheduling import (
        SCHEME_2X2,
        SCHEME_3X1,
        costaware_schedule,
        equiarea_schedule,
        equidistance_schedule,
        interleaved_schedule,
    )

    scheme = SCHEME_3X1 if args.scheme == "3x1" else SCHEME_2X2
    if args.policy == "interleaved":
        il = interleaved_schedule(scheme, args.genes, args.gpus)
        work = il.work_per_part()
        print(
            f"Schedule[interleaved] scheme={scheme.name} G={args.genes} "
            f"parts={il.n_parts} blocks={il.n_blocks} "
            f"imbalance={il.imbalance():.4f}"
        )
        for p in range(il.n_parts):
            ranges = il.ranges(p)
            print(f"  gpu {p:3d}: {len(ranges)} blocks  work {work[p]}")
        return 0
    build = {
        "equiarea": equiarea_schedule,
        "equidistance": equidistance_schedule,
        "costaware": costaware_schedule,
    }[args.policy]
    schedule = build(scheme, args.genes, args.gpus)
    print(schedule.describe())
    work = schedule.work_per_part()
    for p in range(schedule.n_parts):
        lo, hi = schedule.thread_range(p)
        print(f"  gpu {p:3d}: threads [{lo}, {hi})  work {work[p]}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.data import (
        CohortConfig,
        cancer,
        generate_cohort,
        load_cohort,
        save_cohort,
    )

    if args.dataset_command == "generate":
        if args.cancer:
            cohort = generate_cohort(
                cancer=cancer(args.cancer),
                n_genes=args.genes,
                hits=args.hits,
                seed=args.seed,
            )
        else:
            cohort = generate_cohort(
                CohortConfig(
                    n_genes=args.genes,
                    n_tumor=args.tumor,
                    n_normal=args.normal,
                    hits=args.hits,
                    seed=args.seed,
                )
            )
        save_cohort(cohort, args.path)
        print(
            f"wrote {args.path}: {cohort.tumor.n_genes} genes, "
            f"{cohort.tumor.n_samples}+{cohort.normal.n_samples} samples, "
            f"{len(cohort.planted)} planted {cohort.config.hits}-hit combos"
        )
        return 0
    cohort = load_cohort(args.path)
    print(
        f"{args.path}: {cohort.tumor.n_genes} genes, "
        f"{cohort.tumor.n_samples} tumor / {cohort.normal.n_samples} normal samples"
    )
    print(f"  config: {cohort.config}")
    print(f"  planted: {cohort.planted_names}")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.core.memopt import MemoryConfig
    from repro.perfmodel.roofline import operating_point, ridge_intensity
    from repro.scheduling.schemes import SCHEME_2X2, SCHEME_3X1

    print(f"V100 ridge intensity: {ridge_intensity():.2f} ops/byte")
    print("configuration                          | ops/combo | B/combo | intensity | bound")
    for scheme in (SCHEME_3X1, SCHEME_2X2):
        for mem in (MemoryConfig(False, False, False), MemoryConfig()):
            p = operating_point(scheme, args.words, memory=mem)
            bound = "compute" if p.compute_bound else "memory"
            print(
                f"{p.label:38s} | {p.ops_per_combo:9.0f} | "
                f"{p.dram_bytes_per_combo:7.2f} | {p.intensity:9.1f} | {bound}"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry.critpath import analyze_trace, format_report, load_trace

    try:
        spans = load_trace(args.path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load trace {args.path}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"error: no spans in {args.path}", file=sys.stderr)
        return 2
    report = analyze_trace(spans, top=args.top)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report, top=args.top))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
        "catalog": _cmd_catalog,
        "schedule": _cmd_schedule,
        "dataset": _cmd_dataset,
        "roofline": _cmd_roofline,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
