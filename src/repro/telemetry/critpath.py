"""Critical-path extraction and time attribution over a causal trace.

Input is the span-dict list a :class:`~repro.telemetry.spans.Tracer`
exports (or a ``trace.jsonl`` written by ``write_jsonl``): spans keyed
by ``(pid, id)``, tree edges via ``parent``, causal edges via ``links``
(see :mod:`repro.telemetry.causal`).  Two analyses run on that DAG:

**Critical path** — the longest causal chain through the trace.  The
walk starts from a virtual root covering the whole trace window and
repeatedly descends into the *last-finishing dependency* (child span or
link source) before the current attribution point, emitting the
enclosing span's own time for the gaps between dependencies.  Every
segment is ``(span, t0, t1)``; by construction the segments tile the
trace window, so their sum over wall-clock is the coverage ratio CI
gates at >= 0.95.  Because ``recv`` links to the sender's ``send`` span
and stolen-lease searches link to the victim's context, the path
threads *across ranks and processes* instead of dead-ending at a
blocking wait.

**Time attribution** — every lane's (one ``(pid, tid)`` execution
thread's) wall-clock split into exclusive per-span time and bucketed:

=============  =====================================================
bucket         spans
=============  =====================================================
compute        scan/search/reduce work (the default)
comm_wait      ``cat == "comm"`` — blocking recv, stalls, send
lease_wait     ``lease.wait`` — idle polling for a grantable lease
               (no longer recorded; kept so older traces analyze)
retry          ``fault.retry`` recovery attempts
steal          searches of stolen leases (``attrs.stolen``)
checkpoint     ``cat == "checkpoint"`` — state save I/O
idle           runner scaffolding (``spmd.rank``/``spmd.world``
               exclusive time), a simulated job's per-iteration
               serial host work (``host.serial``) and the virtual root
=============  =====================================================

Timestamps are only ever subtracted and compared, so the same analysis
runs on a :class:`~repro.cluster.virtual.VirtualCluster` trace, whose
``start_ns``/``end_ns`` are model seconds × 1e9 rather than clock reads.

Exclusive time is a span's duration minus its direct children's
(clipped) durations, so per-lane buckets sum to the lane's root span
durations exactly — the closure CI gates at within 1% of total
measured rank-seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "BUCKETS",
    "CRITPATH_SCHEMA",
    "analyze_trace",
    "attribute_time",
    "classify_span",
    "critical_path",
    "dominant_loss",
    "format_report",
    "load_trace",
]

CRITPATH_SCHEMA = "repro.telemetry.critpath/v1"

BUCKETS = (
    "compute",
    "comm_wait",
    "lease_wait",
    "retry",
    "steal",
    "checkpoint",
    "idle",
)

#: Spans whose *exclusive* time is runner scaffolding, not work.
_IDLE_NAMES = frozenset({"spmd.rank", "spmd.world", "host.serial", "__root__"})


def classify_span(span: dict) -> str:
    """Attribution bucket for one span dict."""
    name = span.get("name", "")
    cat = span.get("cat", "")
    attrs = span.get("attrs") or {}
    if cat == "comm":
        return "comm_wait"
    if name == "lease.wait":
        return "lease_wait"
    if name == "fault.retry":
        return "retry"
    if attrs.get("stolen"):
        return "steal"
    if cat == "checkpoint":
        return "checkpoint"
    if name in _IDLE_NAMES:
        return "idle"
    return "compute"


# ---------------------------------------------------------------------------
# graph plumbing


def _index(spans: "list[dict]"):
    by_key: dict = {}
    children: dict = {}
    roots: list = []
    for s in spans:
        by_key[(s["pid"], s["id"])] = s
    for s in spans:
        parent = s.get("parent")
        if parent is not None and (s["pid"], parent) in by_key:
            children.setdefault((s["pid"], parent), []).append(s)
        else:
            roots.append(s)
    return by_key, children, roots


def _deps(span: dict, by_key: dict, children: dict) -> "list[dict]":
    deps = list(children.get((span["pid"], span["id"]), ()))
    for link in span.get("links") or ():
        target = by_key.get((link["pid"], link["id"]))
        if target is not None:
            deps.append(target)
    return deps


# ---------------------------------------------------------------------------
# critical path


def critical_path(spans: "list[dict]", top: int = 10) -> dict:
    """Longest causal chain through the span DAG.

    Returns segments in chronological order plus the top-``top``
    segments by duration; each segment carries the owning span's name,
    ``(pid, id)``, rank, bucket, and its clipped interval.
    """
    spans = [s for s in spans if s.get("end_ns", 0) > s.get("start_ns", 0)]
    if not spans:
        return {
            "length_s": 0.0,
            "wall_s": 0.0,
            "coverage": 0.0,
            "segments": [],
            "top_segments": [],
            "buckets": {b: 0.0 for b in BUCKETS},
        }
    by_key, children, roots = _index(spans)
    t_min = min(s["start_ns"] for s in spans)
    t_max = max(s["end_ns"] for s in spans)
    # Virtual root over the whole window: uniform handling of complete
    # traces (a covering "solve" span becomes its sole dependency) and
    # live partial traces (many parentless spans, nothing covering).
    root = {
        "name": "__root__",
        "cat": "critpath",
        "id": 0,
        "pid": 0,
        "start_ns": t_min,
        "end_ns": t_max,
    }
    root_key = (0, 0)
    children[root_key] = roots
    by_key[root_key] = root

    segments: "list[tuple[dict, int, int]]" = []
    visited = {root_key}

    # Backward scan with one global cursor ``t``: every emitted segment
    # ends where the previous one started, so the segments tile the
    # window by construction.  From the span owning the cursor we
    # descend into its last-finishing unvisited dependency (child or
    # link source) before ``t``; when a span entered through a *link*
    # exhausts its own interval, the scan continues into its enclosing
    # parent — that is what threads a blocked recv into the sender's
    # earlier work on another rank instead of dead-ending at the send.
    # Iterative (no recursion) so comm chains thousands of hops long
    # cannot hit the recursion limit.

    t = t_max

    def advance(span: dict, t0: int) -> None:
        """Lower the cursor to ``t0``, attributing ``[t0, t]``.

        The overlap with ``span``'s own interval is the span's segment;
        anything outside it (a link source that finished before the
        dependent span even started — a reduce draining completions,
        say) books to the virtual root as idle.  Every nanosecond of
        ``[t0, t]`` lands in exactly one segment, so the path tiles the
        window by construction.
        """
        nonlocal t
        t0 = max(t0, t_min)
        if t0 >= t:
            t = min(t, t0)
            return
        a = max(span["start_ns"], t0)
        b = min(span["end_ns"], t)
        if b > a:
            if t > b:
                segments.append((root, b, t))
            segments.append((span, a, b))
            if a > t0:
                segments.append((root, t0, a))
        else:
            segments.append((root, t0, t))
        t = t0

    dep_cache: dict = {}

    def sorted_deps(span: dict) -> list:
        key = (span["pid"], span["id"])
        if key not in dep_cache:
            ds = [
                d
                for d in _deps(span, by_key, children)
                if d["end_ns"] > d["start_ns"]
            ]
            ds.sort(key=lambda d: d["end_ns"], reverse=True)
            dep_cache[key] = ds
        return dep_cache[key]

    cur_span, cur_idx = root, 0
    stack: list = []
    while True:
        deps = sorted_deps(cur_span)
        best = None
        while cur_idx < len(deps):
            d = deps[cur_idx]
            # ``t`` never increases, so deps ending after it (or already
            # claimed by another chain) are skipped permanently.
            if d["end_ns"] > t or (d["pid"], d["id"]) in visited:
                cur_idx += 1
                continue
            best = d
            break
        if best is not None:
            advance(cur_span, best["end_ns"])
            visited.add((best["pid"], best["id"]))
            stack.append((cur_span, cur_idx))
            cur_span, cur_idx = best, 0
            continue
        advance(cur_span, cur_span["start_ns"])
        if t <= t_min:
            break
        parent_id = cur_span.get("parent")
        parent = (
            by_key.get((cur_span["pid"], parent_id))
            if parent_id is not None
            else None
        )
        if parent is not None and (parent["pid"], parent["id"]) not in visited:
            visited.add((parent["pid"], parent["id"]))
            cur_span, cur_idx = parent, 0
            continue
        if not stack:
            break
        cur_span, cur_idx = stack.pop()

    segments.sort(key=lambda seg: seg[1])
    length_ns = sum(t1 - t0 for _, t0, t1 in segments)
    wall_ns = t_max - t_min
    buckets = {b: 0.0 for b in BUCKETS}
    out_segments = []
    for span, t0, t1 in segments:
        bucket = classify_span(span)
        buckets[bucket] += (t1 - t0) / 1e9
        out_segments.append(
            {
                "name": span["name"],
                "pid": span["pid"],
                "id": span["id"],
                "rank": span.get("rank"),
                "bucket": bucket,
                "t0_ns": t0,
                "t1_ns": t1,
                "dur_s": (t1 - t0) / 1e9,
            }
        )
    top_segments = sorted(out_segments, key=lambda s: s["dur_s"], reverse=True)[:top]
    return {
        "length_s": length_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "coverage": (length_ns / wall_ns) if wall_ns else 0.0,
        "segments": out_segments,
        "top_segments": top_segments,
        "buckets": buckets,
    }


# ---------------------------------------------------------------------------
# time attribution


def attribute_time(spans: "list[dict]") -> dict:
    """Bucket every lane's wall-clock by exclusive per-span time.

    A lane is one ``(pid, tid)`` execution thread; its total is the sum
    of its root-span durations (total measured rank-seconds when the
    lanes are rank runners).  Bucket seconds per lane sum to that total
    by construction — ``closure`` reports the ratio CI gates at 1±0.01.
    """
    spans = [s for s in spans if s.get("end_ns", 0) >= s.get("start_ns", 0)]
    by_key, children, roots = _index(spans)
    lanes: dict = {}
    for s in roots:
        lane = lanes.setdefault(
            (s["pid"], s.get("tid", 0)),
            {"roots": [], "rank": None},
        )
        lane["roots"].append(s)
        if lane["rank"] is None and s.get("rank") is not None:
            lane["rank"] = s.get("rank")

    totals = {b: 0.0 for b in BUCKETS}
    lane_rows = []
    grand_total = 0.0
    for (pid, tid), lane in sorted(lanes.items()):
        lane_buckets = {b: 0.0 for b in BUCKETS}
        lane_total_ns = 0
        stack = list(lane["roots"])
        rank = lane["rank"]
        for root in lane["roots"]:
            lane_total_ns += root["end_ns"] - root["start_ns"]
        while stack:
            s = stack.pop()
            if rank is None and s.get("rank") is not None:
                rank = s.get("rank")
            dur = s["end_ns"] - s["start_ns"]
            child_ns = 0
            for child in children.get((s["pid"], s["id"]), ()):
                stack.append(child)
                child_ns += max(
                    0,
                    min(child["end_ns"], s["end_ns"])
                    - max(child["start_ns"], s["start_ns"]),
                )
            exclusive = max(0, dur - child_ns) / 1e9
            lane_buckets[classify_span(s)] += exclusive
        lane_total = lane_total_ns / 1e9
        grand_total += lane_total
        for b in BUCKETS:
            totals[b] += lane_buckets[b]
        lane_rows.append(
            {
                "pid": pid,
                "tid": tid,
                "rank": rank,
                "total_s": lane_total,
                "buckets": lane_buckets,
            }
        )

    bucket_sum = sum(totals.values())
    return {
        "total_s": grand_total,
        "buckets": totals,
        "fractions": {
            b: (totals[b] / grand_total if grand_total else 0.0) for b in BUCKETS
        },
        "efficiency": (totals["compute"] / grand_total) if grand_total else 0.0,
        "closure": (bucket_sum / grand_total) if grand_total else 1.0,
        "lanes": lane_rows,
    }


def dominant_loss(report: dict) -> "str | None":
    """The loss bucket with the most attributed seconds.

    ``compute`` is the goal and ``idle`` is supervisor scaffolding (the
    driver lane polling while ranks work) — neither is an *actionable*
    loss, so the dominant loss is the largest of the wait buckets:
    what an operator should attack first.
    """
    buckets = report["attribution"]["buckets"]
    losses = {
        b: s for b, s in buckets.items()
        if b not in ("compute", "idle") and s > 0
    }
    if not losses:
        return None
    return max(losses, key=losses.get)


# ---------------------------------------------------------------------------
# end-to-end report


def analyze_trace(spans: "list[dict]", top: int = 10) -> dict:
    """Full causal analysis: critical path + attribution + loss table."""
    trace_id = next((s.get("trace") for s in spans if s.get("trace")), None)
    cp = critical_path(spans, top=top)
    attr = attribute_time(spans)
    loss = [
        {
            "bucket": b,
            "seconds": attr["buckets"][b],
            "fraction": attr["fractions"][b],
            "critical_path_s": cp["buckets"][b],
        }
        for b in BUCKETS
        if b != "compute"
    ]
    loss.sort(key=lambda row: row["seconds"], reverse=True)
    report = {
        "schema": CRITPATH_SCHEMA,
        "trace_id": trace_id,
        "span_count": len(spans),
        "wall_s": cp["wall_s"],
        "critical_path": cp,
        "attribution": attr,
        "loss": loss,
    }
    report["dominant_loss"] = dominant_loss(report)
    return report


def load_trace(path) -> "list[dict]":
    """Span dicts from a ``trace.jsonl`` (or JSON list / job payload).

    Accepts the three shapes exporters produce: JSONL (one record per
    line, ``type: "span"`` rows kept), a bare JSON list of span dicts,
    or an object with a ``"spans"`` key (a gateway job's
    ``?spans=1`` payload).  Raises :class:`ValueError` naming the first
    record that is not a span the analysis can read (see
    :func:`_check_span`).
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None  # multiple JSONL records: parse line by line
    if isinstance(payload, dict):
        if "spans" in payload:
            payload = payload["spans"]
        elif payload.get("type") == "span":
            payload = [{k: v for k, v in payload.items() if k != "type"}]
        else:
            return []
    if isinstance(payload, list):
        for i, span in enumerate(payload):
            _check_span(span, f"span {i}")
        return payload
    if payload is not None:
        raise ValueError(f"expected a list of spans, got {payload!r}")
    spans = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"line {n}: {record!r} is not an object")
        if record.get("type") == "span":
            span = {k: v for k, v in record.items() if k != "type"}
            _check_span(span, f"line {n}")
            spans.append(span)
    return spans


def _is_int(value, types=(int,)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _check_span(span, where: str) -> None:
    """Raise ValueError unless ``span`` is an object with integer ``pid``
    / ``id``, numeric ``start_ns`` / ``end_ns``, a string ``name`` and,
    if present, ``links`` a list of objects with integer ``pid`` / ``id``."""
    if not isinstance(span, dict):
        raise ValueError(f"{where}: {span!r} is not an object")
    bad = [k for k in ("pid", "id") if not _is_int(span.get(k))]
    bad += [k for k in ("start_ns", "end_ns") if not _is_int(span.get(k), (int, float))]
    if not isinstance(span.get("name"), str):
        bad.append("name")
    links = span.get("links", [])
    if not isinstance(links, list) or not all(
        isinstance(x, dict) and _is_int(x.get("pid")) and _is_int(x.get("id"))
        for x in links
    ):
        bad.append("links")
    if bad:
        raise ValueError(f"{where}: missing or mistyped {', '.join(bad)}")


def format_report(report: dict, top: int = 10) -> str:
    """Human-readable report for ``multihit trace analyze``."""
    cp = report["critical_path"]
    attr = report["attribution"]
    lines = []
    lines.append(f"trace      {report.get('trace_id') or '<none>'}")
    lines.append(f"spans      {report['span_count']}")
    lines.append(f"wall-clock {report['wall_s']:.3f}s")
    lines.append(
        f"critical path {cp['length_s']:.3f}s "
        f"({cp['coverage'] * 100:.1f}% of wall-clock, "
        f"{len(cp['segments'])} segments)"
    )
    lines.append("")
    lines.append(f"attribution over {attr['total_s']:.3f} rank-seconds "
                 f"({len(attr['lanes'])} lanes, closure {attr['closure']:.4f}):")
    width = max(len(b) for b in BUCKETS)
    for b in BUCKETS:
        seconds = attr["buckets"][b]
        frac = attr["fractions"][b]
        bar = "#" * int(round(frac * 40))
        lines.append(f"  {b:<{width}}  {seconds:9.3f}s  {frac * 100:5.1f}%  {bar}")
    lines.append(f"  efficiency vs ideal (all-compute): "
                 f"{attr['efficiency'] * 100:.1f}%")
    dominant = report.get("dominant_loss")
    if dominant:
        lines.append(f"  dominant loss bucket: {dominant}")
    lines.append("")
    lines.append(f"top {min(top, len(cp['top_segments']))} critical-path segments:")
    for seg in cp["top_segments"][:top]:
        rank = f" rank={seg['rank']}" if seg.get("rank") is not None else ""
        lines.append(
            f"  {seg['dur_s']:8.3f}s  {seg['name']}"
            f" [{seg['bucket']}] pid={seg['pid']} id={seg['id']}{rank}"
        )
    return "\n".join(lines)
