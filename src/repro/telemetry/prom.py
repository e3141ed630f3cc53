"""Prometheus text exposition of the live metrics registry.

The telemetry exporters are post-hoc: spans and metrics are written
after ``solve()`` returns, which is useless for watching a multi-hour
solve *while it runs*.  This module renders the live
:class:`~repro.telemetry.metrics.MetricsRegistry` in the Prometheus text
exposition format (version 0.0.4), which the ``/metrics`` route of
:mod:`repro.service.http` serves to any scraper (Prometheus, ``curl``,
the tests) while counters move mid-solve.

* counters → ``counter`` samples (names sanitized: ``kernel.combos_scored``
  becomes ``repro_kernel_combos_scored``);
* gauges → ``gauge`` samples;
* histograms → ``summary``-style ``_count`` / ``_sum`` samples plus
  ``_min`` / ``_max`` gauges (the registry keeps moments, not buckets).

:func:`validate_prometheus` is a strict format checker the test suite
runs against real scrapes.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "PROM_CONTENT_TYPE",
    "prometheus_name",
    "render_prometheus",
    "validate_prometheus",
]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$"
)


def prometheus_name(name: str) -> str:
    """Sanitize a registry metric name into a legal Prometheus name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(metrics: "dict | object") -> str:
    """Render a registry (or its ``to_dict`` snapshot) as exposition text."""
    if hasattr(metrics, "to_dict"):
        metrics = metrics.to_dict()
    lines: list[str] = []
    for name in sorted(metrics.get("counters", {})):
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_fmt(metrics['counters'][name])}")
    for name in sorted(metrics.get("gauges", {})):
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_fmt(metrics['gauges'][name])}")
    for name in sorted(metrics.get("histograms", {})):
        h = metrics["histograms"][name]
        prom = prometheus_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {_fmt(h['count'])}")
        lines.append(f"{prom}_sum {_fmt(h['total'])}")
        for stat in ("min", "max"):
            lines.append(f"# TYPE {prom}_{stat} gauge")
            lines.append(f"{prom}_{stat} {_fmt(h[stat])}")
    return "\n".join(lines) + "\n"


def validate_prometheus(text: str) -> int:
    """Strict exposition-format check; returns the sample count.

    Raises :class:`ValueError` on the first violation: unparseable
    sample line, a sample whose metric was not declared by a preceding
    ``# TYPE`` line (histogram ``_count``/``_sum`` ride their summary
    declaration), an unknown type keyword, or a duplicate declaration.
    """
    declared: dict[str, str] = {}
    n_samples = 0
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {i}: malformed TYPE declaration")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                raise ValueError(f"line {i}: unknown metric type {kind!r}")
            if not _NAME_OK.match(name):
                raise ValueError(f"line {i}: illegal metric name {name!r}")
            if name in declared:
                raise ValueError(f"line {i}: duplicate declaration of {name}")
            declared[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"line {i}: unparseable sample {line!r}")
        name = m.group(1)
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        if base not in declared:
            raise ValueError(f"line {i}: sample {name!r} missing TYPE declaration")
        n_samples += 1
    return n_samples
