"""The metrics registry: every instrument of a run, one kind per name.

The registry is deliberately tiny and dependency-free — Prometheus
semantics (monotonic counters, last-write gauges, fixed-bucket cumulative
histograms) without the wire format, plus the streaming instruments of
:mod:`repro.obs.live` (EWMA meters, sliding windows, latency summaries).
Pipelines record compression ratio, quantizer hit-rate, bits/value,
predictor selections, WAN queue depths, link utilization and span
latencies here. Each name holds exactly one kind; asking for a name as a
second kind raises ``TypeError``.

A rate or a window is a *view*, not a second series: ``Counter.with_rate()``
attaches an EWMA meter that every later ``inc`` feeds, and
``Gauge.with_window()`` attaches a sliding window that every later ``set``
feeds. The view renders next to its counter or gauge on ``/metrics``.

Two read-outs:

* ``snapshot()`` / ``records()`` — the exact kinds (counters, gauges,
  histograms) as plain dicts in the JSONL schema the benchmarks emit.
  ``merge()`` folds a worker's snapshot into the parent registry
  (counters and histogram buckets add; gauges keep the merged-in value,
  i.e. last writer wins).
* ``scrape()`` — every instrument, live kinds and views included, for
  ``/metrics`` and ``/snapshot``. Live state (EWMA, P² markers, windows)
  cannot be merged losslessly, so it stays in the process that observed
  it and is never shipped from pool workers.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.obs.live import EwmaMeter, LatencySummary, RingWindow

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "latency_buckets",
    "DEFAULT_BUCKETS",
    "SCHEMA_VERSION",
]

#: Version stamped on every exported JSONL line (``"schema": 1``).
#: Readers accept lines without the field (pre-versioning files) and any
#: version <= the current one; see ``repro.obs.sinks``.
SCHEMA_VERSION = 1


def exponential_buckets(start: float, factor: float, count: int) -> list[float]:
    """``count`` ascending bucket edges: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return [start * factor ** i for i in range(count)]


#: Generic default edges spanning ratio-like and size-like observations.
DEFAULT_BUCKETS = exponential_buckets(0.001, 4.0, 16)  # 1e-3 .. ~1e6


def latency_buckets() -> list[float]:
    """Bucket edges tuned for second-scale durations: 100 µs .. ~105 s.

    ``DEFAULT_BUCKETS`` (factor 4, 1e-3..1e6) collapses every realistic
    span latency into three or four buckets, which makes ``/metrics``
    histogram quantiles meaningless. Duration histograms use these
    factor-2 edges instead: 21 buckets from 0.1 ms to ~105 s.
    """
    return exponential_buckets(1e-4, 2.0, 21)


class Counter:
    """Monotonic counter (thread-safe: ``inc`` holds a per-metric lock)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        #: EWMA rate view, attached by :meth:`with_rate`.
        self.meter: EwmaMeter | None = None
        self._lock = threading.Lock()

    def inc(self, value: int = 1) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        # += on an attribute is a read-modify-write of several bytecodes;
        # two threads interleaving it lose increments, hence the lock.
        with self._lock:
            self.value += value
            meter = self.meter
        if meter is not None:
            meter.mark(value)

    def with_rate(self) -> "Counter":
        """Attach the EWMA rate view (once); later ``inc`` calls feed it."""
        with self._lock:
            if self.meter is None:
                self.meter = EwmaMeter()
        return self

    def to_record(self) -> dict:
        return {"schema": SCHEMA_VERSION, "type": "counter",
                "name": self.name, "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value (thread-safe)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None
        #: Sliding-window view, attached by :meth:`with_window`.
        self.window: RingWindow | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            window = self.window
        if window is not None:
            window.add(value)

    def with_window(self) -> "Gauge":
        """Attach the sliding-window view (once); later ``set`` calls feed it."""
        with self._lock:
            if self.window is None:
                self.window = RingWindow()
        return self

    def to_record(self) -> dict:
        return {"schema": SCHEMA_VERSION, "type": "gauge",
                "name": self.name, "value": self.value}


class Histogram:
    """Fixed-edge histogram with count/sum/min/max.

    ``buckets`` are ascending upper edges; observations land in the first
    bucket whose edge is >= the value (edge values inclusive, matching
    Prometheus ``le`` semantics), with one overflow bucket past the last
    edge — ``counts`` has ``len(buckets) + 1`` entries.
    """

    def __init__(self, name: str, buckets: list[float] | None = None) -> None:
        edges = list(buckets) if buckets else list(DEFAULT_BUCKETS)
        if sorted(edges) != edges or len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be strictly ascending")
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # One lock for the whole update: counts/count/sum/min/max must
        # stay mutually consistent for concurrent observers and mergers.
        with self._lock:
            # bisect_left finds the first edge >= value (edges inclusive, "le").
            self.counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def to_record(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "type": "histogram",
            "name": self.name,
            "buckets": self.buckets,
            "counts": self.counts,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


#: The kinds ``snapshot()`` exports and ``merge()`` folds.
_EXACT = (Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named instruments, created on first use; one kind per name."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(*args)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, name)

    def histogram(self, name: str, buckets: list[float] | None = None) -> Histogram:
        return self._get(name, Histogram, name, buckets)

    def meter(self, name: str) -> EwmaMeter:
        return self._get(name, EwmaMeter)

    def window(self, name: str) -> RingWindow:
        return self._get(name, RingWindow)

    def summary(self, name: str) -> LatencySummary:
        return self._get(name, LatencySummary)

    def _items(self) -> list[tuple[str, object]]:
        with self._lock:
            return sorted(self._metrics.items())

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, dict]:
        """The exact kinds as ``{name: record}`` plain dicts (JSON-ready)."""
        return {name: m.to_record() for name, m in self._items()
                if isinstance(m, _EXACT)}

    def records(self) -> list[dict]:
        """Snapshot as a list of JSONL-ready lines."""
        return list(self.snapshot().values())

    def scrape(self) -> dict[str, dict]:
        """Every instrument as ``{name: record}``, live kinds and views included.

        Exact kinds keep their JSONL record; a counter's rate view rides
        along under ``"meter"`` and a gauge's window under ``"window"``.
        """
        out: dict[str, dict] = {}
        for name, m in self._items():
            rec = {"name": name, **m.to_record()}
            if isinstance(m, Counter) and m.meter is not None:
                rec["meter"] = m.meter.to_record()
            elif isinstance(m, Gauge) and m.window is not None:
                rec["window"] = m.window.to_record()
            out[name] = rec
        return out

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a ``snapshot()`` (e.g. from a pool worker) into this registry.

        Counters and histogram buckets add; gauges take the merged value;
        a histogram merge requires identical bucket edges.
        """
        for name, rec in snapshot.items():
            kind = rec["type"]
            if kind == "counter":
                self.counter(name).inc(int(rec["value"]))
            elif kind == "gauge":
                if rec["value"] is not None:
                    self.gauge(name).set(rec["value"])
            elif kind == "histogram":
                hist = self.histogram(name, rec["buckets"])
                if hist.buckets != list(rec["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket edges differ; cannot merge"
                    )
                with hist._lock:  # folds must not interleave with observe()
                    for i, c in enumerate(rec["counts"]):
                        hist.counts[i] += int(c)
                    hist.count += int(rec["count"])
                    hist.sum += float(rec["sum"])
                    for attr, fold in (("min", min), ("max", max)):
                        other = rec.get(attr)
                        if other is not None:
                            ours = getattr(hist, attr)
                            setattr(hist, attr,
                                    other if ours is None else fold(ours, other))
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
