"""Every telemetry series has a reader.

One enabled session per run below — each backend, a checkpointed solve,
a gpusim profile, a gateway job and a traced simulated job —
records every counter, gauge and histogram name and every span name it
emits.  ``CATALOGUE`` maps each metric name (or dynamic family) to the
non-test file that reads it: the progress monitor, a documented
``/metrics`` series in README.md or DESIGN.md, or a CI assertion.  A
generic dump (``render_prometheus``, ``write_jsonl``, the summary's
counter copy) is not a reader.  The tests fail when

* a series is emitted without a catalogue entry, or an entry is never
  emitted;
* an entry's reader does not name it literally (dotted or as its
  Prometheus name);
* the union of every run's registry is not a valid exposition, or two
  series expose the same Prometheus name;
* span names disagree with DESIGN §9's taxonomy, or link kinds with the
  edge vocabulary of :mod:`repro.telemetry.causal` and DESIGN §16.

The same runs close the live progress accounting: scored + pruned is
``iterations × C(G, h)``, the final sample's fraction is 1.0, and no
ETA exists before a combination has been examined.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.solver import MultiHitSolver
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.policy import RetryPolicy
from repro.telemetry import (
    MetricsRegistry,
    ProgressMonitor,
    ProgressSnapshot,
    Telemetry,
    render_prometheus,
    telemetry_session,
    validate_prometheus,
)
from repro.telemetry.prom import prometheus_name

ROOT = Path(__file__).resolve().parents[1]

PROGRESS = "src/repro/telemetry/progress.py"
README = "README.md"
DESIGN = "DESIGN.md"
CI = ".github/workflows/ci.yml"

#: kind -> {name or family: reader}.  A family holds one ``<...>``
#: placeholder or a trailing ``*`` and must appear in its reader as
#: written; ``job.<x>`` copies the gateway merges from a job's session
#: are checked as ``<x>``.
CATALOGUE = {
    "counter": {
        "faults.events": PROGRESS,
        "job.admitted": DESIGN,
        "job.backend.<name>": DESIGN,
        "job.completed": CI,
        "job.submitted": CI,
        "kernel.combos_scored": CI,
        "kernel.decode_strides": README,
        "kernel.inner_tables_built": README,
        "kernel.word_reads": README,
        "lease.completed": README,
        "lease.forfeited": README,
        "lease.grants": DESIGN,
        "lease.steals": DESIGN,
        "progress.combos_pruned": PROGRESS,
        "progress.combos_scored": PROGRESS,
        "prune.*": README,
        "solver.solves": CI,
    },
    "gauge": {
        "job.running": DESIGN,
        "progress.combos_scheduled": PROGRESS,
        "progress.comm_wait_fraction": DESIGN,
        "progress.critical_path_fraction": DESIGN,
        "progress.eta_s": README,
        "progress.fraction": README,
        "progress.iteration": PROGRESS,
        "progress.iteration_base": PROGRESS,
        "progress.rate_combos_per_s": DESIGN,
        "spmd.heartbeat_stale_s.max": PROGRESS,
    },
    "histogram": {
        "job.wall_s": CI,
    },
}

KINDS = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}


def _pattern(key: str) -> "re.Pattern":
    body = re.escape(key)
    body = re.sub(r"<[a-z_]+>", "[a-z_]+", body).replace(r"\*", "[a-z_]+")
    return re.compile(body + "$")


def _entry(kind: str, name: str) -> "str | None":
    """The catalogue key covering ``name``, if any."""
    for key in CATALOGUE[kind]:
        if _pattern(key).match(name):
            return key
    return None


def _canonical(kind: str, name: str) -> str:
    """A gateway's ``job.<x>`` copy of a job-session series is ``<x>``."""
    if name.startswith("job.") and _entry(kind, name) is None:
        return name[len("job."):]
    return name


# -- the runs --------------------------------------------------------------


@dataclass
class Run:
    metrics: dict
    spans: list
    before: "ProgressSnapshot | None" = None  # sampled before the solve
    after: "ProgressSnapshot | None" = None  # sampled after it

    @property
    def links(self) -> "set[str]":
        return {
            link.get("kind", "causal")
            for span in self.spans for link in span.get("links") or ()
        }


_N_GENES, _HITS = 15, 2

SOLVES = {
    "single": {},
    "single-pruned": {"prune": True},
    "pool-elastic": {
        "backend": "pool", "n_workers": 2, "prune": True, "elastic": True,
    },
    # Rank 1 crashes on its first lease and on the retry: the retry span,
    # the forfeit and the survivors' steal all emit.
    "distributed-elastic-fault": {
        "backend": "distributed", "n_nodes": 2, "elastic": True,
        "prune": True,
        "retry_policy": RetryPolicy(resubmits=1),
        "fault_plan": FaultPlan(
            (FaultSpec(kind="crash", site="rank", target=1, count=2),)
        ),
    },
    # A straggling rank is a real silence inside its lease search.
    "distributed-static": {
        "backend": "distributed", "n_nodes": 2, "prune": True,
        "fault_plan": FaultPlan(
            (FaultSpec(kind="straggler", site="rank", target=0,
                       delay_s=0.01),)
        ),
    },
    "sequential": {"backend": "sequential"},
}


def _instance():
    rng = np.random.default_rng(12345)
    return rng.random((_N_GENES, 40)) < 0.3, rng.random((_N_GENES, 35)) < 0.2


def _sampled_solve(tel: Telemetry, solve) -> Run:
    monitor = ProgressMonitor(telemetry=tel)
    before = monitor.sample()
    solve()
    after = monitor.sample()
    return Run(tel.metrics.to_dict(), tel.tracer.export(), before, after)


def _collect(tel: Telemetry) -> Run:
    return Run(tel.metrics.to_dict(), tel.tracer.export())


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> "dict[str, Run]":
    from repro.core.checkpoint import solve_with_checkpoints
    from repro.gpusim.kernel import KernelStats
    from repro.gpusim.profiler import Profiler
    from repro.perfmodel.runtime import JobModel
    from repro.perfmodel.workloads import BRCA
    from repro.scheduling.schemes import SCHEME_3X1
    from repro.service.http import Gateway
    from repro.telemetry.critpath import load_trace

    tumor, normal = _instance()
    tmp = tmp_path_factory.mktemp("catalogue")
    out: dict[str, Run] = {}
    for label, kw in SOLVES.items():
        solver = MultiHitSolver(hits=_HITS, **kw)
        with telemetry_session() as tel, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out[label] = _sampled_solve(tel, lambda: solver.solve(tumor, normal))

    with telemetry_session() as tel:
        out["checkpointed"] = _sampled_solve(
            tel,
            lambda: solve_with_checkpoints(
                MultiHitSolver(hits=_HITS), tumor, normal, tmp / "ckpt.json"
            ),
        )

    with telemetry_session() as tel:
        Profiler().profile([
            KernelStats(
                n_threads=2_000, n_combos=2_000_000, words_per_combo=4,
                rows_per_combo=1, prefetched_rows=2, bytes_read=64_000_000,
                max_thread_combos=1_000,
            )
        ])
    out["gpusim"] = _collect(tel)

    with Gateway(state_dir=tmp / "gateway", max_concurrent=1) as gw:
        job = gw.submit({"cohort": {
            "n_genes": _N_GENES, "n_tumor": 40, "n_normal": 40, "hits": _HITS,
            "n_driver_combos": 2, "seed": 0,
        }})
        (done,) = gw.wait([job.job_id], timeout=120)
    assert done.state == "done"
    job_spans = load_trace(tmp / "gateway" / "traces" / f"{job.job_id}.jsonl")
    out["gateway"] = Run(gw.telemetry.metrics.to_dict(), job_spans)

    tel = Telemetry()
    tel.tracer.absorb(
        JobModel(scheme=SCHEME_3X1).run(BRCA, 4, max_iterations=2, trace=True).spans
    )
    out["virtual"] = _collect(tel)
    return out


def _emitted(runs) -> "dict[str, set[str]]":
    return {
        kind: {
            _canonical(kind, name)
            for run in runs.values() for name in run.metrics[plural]
        }
        for kind, plural in KINDS.items()
    }


# -- the catalogue ---------------------------------------------------------


def test_every_emitted_series_is_catalogued(runs):
    orphans = {
        kind: sorted(n for n in names if _entry(kind, n) is None)
        for kind, names in _emitted(runs).items()
    }
    assert orphans == {kind: [] for kind in KINDS}, (
        "emitted with no reader: delete the series or catalogue its reader"
    )


def test_every_catalogued_series_is_emitted(runs):
    emitted = _emitted(runs)
    silent = {
        kind: sorted(
            key for key in entries
            if not any(_pattern(key).match(n) for n in emitted[kind])
        )
        for kind, entries in CATALOGUE.items()
    }
    assert silent == {kind: [] for kind in KINDS}


def test_every_reader_names_its_series():
    missing = []
    for kind, entries in CATALOGUE.items():
        for key, reader in entries.items():
            text = (ROOT / reader).read_text()
            if key not in text and prometheus_name(key) not in text:
                missing.append((kind, key, reader))
    assert missing == []


def test_union_exposition_is_valid(runs):
    registry = MetricsRegistry()
    for run in runs.values():
        registry.merge_dict(run.metrics)
    validate_prometheus(render_prometheus(registry))
    exposed: dict[str, str] = {}
    clashes = []
    state = registry.to_dict()
    for kind, plural in KINDS.items():
        for name in state[plural]:
            base = prometheus_name(name)
            names = [base]
            if kind == "histogram":
                names += [f"{base}_{s}" for s in ("count", "sum", "min", "max")]
            for prom in names:
                if prom in exposed:
                    clashes.append((prom, exposed[prom], f"{kind} {name}"))
                exposed[prom] = f"{kind} {name}"
    assert clashes == []


# -- spans and links -------------------------------------------------------


def _section(number: int) -> str:
    text = (ROOT / DESIGN).read_text()
    start = text.index(f"\n## {number}. ")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_span_names_match_design_taxonomy(runs):
    documented = {
        name
        for row in re.findall(r"^\| (`.*?) \|", _section(9), re.M)
        for name in re.findall(r"`([^`]+)`", row)
    }
    emitted = {span["name"] for run in runs.values() for span in run.spans}
    assert emitted == documented


def test_link_kinds_match_documented_vocabulary(runs):
    from repro.telemetry import causal

    docstring = set(re.findall(r"^``([a-z]+)``\s{2,}", causal.__doc__, re.M))
    design = set(re.findall(r"^\| `([a-z]+)` +\|", _section(16), re.M))
    emitted = set().union(*(run.links for run in runs.values()))
    assert emitted == docstring == design


# -- progress closure ------------------------------------------------------

#: The sequential oracle keeps no kernel counters, so it has no live
#: progress feed to close.
PROGRESS_RUNS = [label for label in (*SOLVES, "checkpointed") if label != "sequential"]


@pytest.mark.parametrize("label", PROGRESS_RUNS)
def test_progress_closes(runs, label):
    run = runs[label]
    counters = run.metrics["counters"]
    iterations = sum(span["name"] == "iteration" for span in run.spans)
    examined = counters["progress.combos_scored"] + counters.get(
        "progress.combos_pruned", 0
    )
    assert iterations > 0
    assert examined == iterations * math.comb(_N_GENES, _HITS)
    assert run.after.fraction == 1.0
    assert run.after.eta_s == 0.0
    assert run.before.combos_examined == 0
    assert run.before.eta_s is None


def test_gateway_job_progress_closes(runs):
    run = runs["gateway"]
    counters = run.metrics["counters"]
    iterations = sum(span["name"] == "iteration" for span in run.spans)
    examined = counters["job.progress.combos_scored"] + counters.get(
        "job.progress.combos_pruned", 0
    )
    assert examined == iterations * math.comb(_N_GENES, _HITS)
