"""Prometheus text exposition (format 0.0.4) for the obs registry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` into the
plain-text scrape format Prometheus and its ecosystem understand — no
client library, no dependencies, just the documented line protocol.
Each name holds one kind, so each renders its own families:

* counters  -> ``<name>_total`` with ``# TYPE ... counter``;
* gauges    -> ``<name>`` with ``# TYPE ... gauge`` (unset gauges are
  omitted — Prometheus has no null);
* histograms -> cumulative ``<name>_bucket{le="..."}`` series ending in
  ``le="+Inf"``, plus ``<name>_sum`` and ``<name>_count``.

Metric names are sanitized to the legal charset
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): every illegal character becomes ``_``
and a leading digit gets a ``_`` prefix. Every family carries ``# HELP``
and ``# TYPE`` lines; the HELP text names the originating obs series so
a dashboard reader can map back to ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Run

__all__ = [
    "CONTENT_TYPE",
    "sanitize_metric_name",
    "format_value",
    "render_registry",
    "render_run",
]

#: The Content-Type a conforming ``/metrics`` response must declare.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, prefix: str = "") -> str:
    """Map an obs series name onto the legal Prometheus charset."""
    name = _INVALID_CHARS.sub("_", prefix + name)
    if not name:
        raise ValueError("metric name sanitized to empty string")
    if name[0].isdigit():
        name = "_" + name
    return name


def format_value(value) -> str:
    """One sample value in exposition syntax (inf/nan per the spec)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _family(lines: list[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {_escape_help(help_text)}")
    lines.append(f"# TYPE {name} {kind}")


def _render_metric(lines: list[str], rec: dict, prefix: str) -> None:
    kind = rec["type"]
    raw = rec["name"]
    name = sanitize_metric_name(raw, prefix)
    if kind == "counter":
        _family(lines, f"{name}_total", "counter", f"repro counter {raw}")
        lines.append(f"{name}_total {format_value(rec['value'])}")
    elif kind == "gauge":
        if rec["value"] is not None:
            _family(lines, name, "gauge", f"repro gauge {raw}")
            lines.append(f"{name} {format_value(rec['value'])}")
    elif kind == "histogram":
        _family(lines, name, "histogram", f"repro histogram {raw}")
        cumulative = 0
        for edge, count in zip(rec["buckets"], rec["counts"]):
            cumulative += count
            lines.append(
                f'{name}_bucket{{le="{format_value(edge)}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {rec["count"]}')
        lines.append(f"{name}_sum {format_value(rec['sum'])}")
        lines.append(f"{name}_count {rec['count']}")


def render_registry(metrics: "MetricsRegistry | None" = None,
                    prefix: str = "repro_") -> str:
    """Render a registry into one exposition document (trailing newline)."""
    lines: list[str] = []
    if metrics is not None:
        for rec in metrics.snapshot().values():
            _render_metric(lines, rec, prefix)
    return "\n".join(lines) + "\n" if lines else "\n"


def render_run(run: "Run | None", prefix: str = "repro_") -> str:
    """Render a run's metrics registry (empty doc if None)."""
    if run is None:
        return "\n"
    return render_registry(run.metrics, prefix)
