"""The metrics registry: every instrument of a run, one kind per name.

The registry is deliberately tiny and dependency-free — Prometheus
semantics (monotonic counters, last-write gauges, fixed-bucket cumulative
histograms) without the wire format. Pipelines record compression ratio,
quantizer hit-rate, bits/value, predictor selections, WAN queue depths,
link utilization and span latencies here. Each name holds exactly one of
the three kinds; asking for a name as a second kind raises ``TypeError``.

One read-out: ``snapshot()`` / ``records()`` return every instrument as
plain dicts in the JSONL schema the benchmarks emit; ``/metrics`` renders
it and ``/snapshot`` serves it. All three kinds merge losslessly:
``merge()`` folds a pool worker's snapshot into the parent registry
(counters and histogram buckets add; gauges keep the merged-in value,
i.e. last writer wins). Rates and quantiles are the reader's job:
``rate()`` over ``_total`` and ``histogram_quantile()`` over ``_bucket``
in the scraper, or exact quantiles offline from ``repro obs report``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
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

#: Edges for second-scale durations: 21 factor-2 buckets, 100 µs .. ~105 s.
#: ``DEFAULT_BUCKETS`` (factor 4) collapses every realistic span latency
#: into three or four buckets, which makes ``/metrics`` histogram
#: quantiles meaningless.
LATENCY_BUCKETS = exponential_buckets(1e-4, 2.0, 21)


class Counter:
    """Monotonic counter (thread-safe: ``inc`` holds a per-metric lock)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, value: int = 1) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        # += on an attribute is a read-modify-write of several bytecodes;
        # two threads interleaving it lose increments, hence the lock.
        with self._lock:
            self.value += value

    def to_record(self) -> dict:
        return {"schema": SCHEMA_VERSION, "type": "counter",
                "name": self.name, "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value (thread-safe)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

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

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, dict]:
        """Every instrument as ``{name: record}`` plain dicts, sorted by name."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: m.to_record() for name, m in items}

    def records(self) -> list[dict]:
        """Snapshot as a list of JSONL-ready lines."""
        return list(self.snapshot().values())

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
