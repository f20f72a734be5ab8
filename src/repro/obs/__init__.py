"""repro.obs — run-scoped observability: trace spans, metrics, sinks.

See ``docs/OBSERVABILITY.md`` for the span model, metric names, and sink
formats. The package is dependency-free and safe to import from any layer;
with no active run every hook is a near-free no-op.

Live telemetry reads the same run and the same registry: the counters,
gauges and histograms of :mod:`repro.obs.metrics`, one kind per name;
every span also lands in a ``span.<name>.seconds`` latency histogram.
:mod:`repro.obs.prom` renders it as Prometheus text, the asyncio
``/metrics`` exporter in :mod:`repro.obs.server` serves it, and the
offline analysis CLI in :mod:`repro.obs.report` (``python -m repro obs
...``) reads the exported files.
"""

from repro.obs.instrument import (
    record_codec_metrics,
    traced_compress,
    traced_decompress,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.prom import render_registry, render_run
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    load_jsonl,
    validate_metrics_line,
    validate_trace_line,
    write_chrome_trace,
    write_metrics_jsonl,
    write_trace_jsonl,
)
from repro.obs.trace import (
    Run,
    Span,
    add_bytes,
    current_span,
    end_run,
    get_run,
    inc_counter,
    last_run,
    observe,
    observe_latency,
    run,
    set_gauge,
    set_tag,
    span,
    start_run,
)

__all__ = [
    "Span",
    "Run",
    "start_run",
    "end_run",
    "get_run",
    "last_run",
    "run",
    "span",
    "current_span",
    "add_bytes",
    "set_tag",
    "inc_counter",
    "set_gauge",
    "observe",
    "observe_latency",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "LATENCY_BUCKETS",
    "SCHEMA_VERSION",
    "render_registry",
    "render_run",
    "JsonlSink",
    "MemorySink",
    "load_jsonl",
    "validate_trace_line",
    "validate_metrics_line",
    "write_trace_jsonl",
    "write_metrics_jsonl",
    "write_chrome_trace",
    "traced_compress",
    "traced_decompress",
    "record_codec_metrics",
]
