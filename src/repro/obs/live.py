"""Streaming aggregation primitives for live telemetry.

Counters, gauges and histograms (:mod:`repro.obs.metrics`) keep exact
totals; this module adds the *time-sensitive* instruments a scrape
endpoint needs while a run is still in flight, all in O(1) memory per
series:

* :class:`EwmaMeter` — an exponentially weighted moving-average rate
  (jobs/s, MB/s). The decay is continuous in elapsed time, so a meter
  that stops receiving marks decays toward zero on its own.
* :class:`RingWindow` — a bounded ring buffer of ``(t, value)`` samples
  pruned to a sliding time window (recent queue depths, recent cell
  durations) with sum/mean/rate over the window.
* :class:`P2Quantile` — the Jain & Chlamtac P² streaming quantile
  estimator: five markers per quantile, no stored observations.
* :class:`LatencySummary` — p50/p95/p99 (plus count/sum/min/max) of a
  latency stream, built from three :class:`P2Quantile` instances. This
  is what gives ``/metrics`` span-latency quantiles *without* storing
  spans.
The run's one :class:`~repro.obs.metrics.MetricsRegistry` holds these
next to the exact kinds, one kind per name: a meter can also be the rate
view of a counter, and a window the view of a gauge. They are
process-local — pool workers do not ship them back.

All instruments are thread-safe (the dispatch loop, pool-result thread,
and the metrics server's event loop all touch them) and take an optional
explicit ``now`` so tests — and the simulated-clock WAN model — control
time; the default clock is ``time.monotonic``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

__all__ = [
    "EwmaMeter",
    "RingWindow",
    "P2Quantile",
    "LatencySummary",
    "DEFAULT_QUANTILES",
]

#: Quantiles a :class:`LatencySummary` tracks by default.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class EwmaMeter:
    """Continuous-decay EWMA rate meter (events or bytes per second).

    ``mark(n)`` accumulates; the rate folds the accumulated count in with
    weight ``1 - exp(-dt/tau)`` whenever time has advanced, so the meter
    converges to the true steady rate with time constant ``tau`` seconds
    and decays toward zero when marks stop.
    """

    def __init__(self, tau: float = 30.0, *, clock=time.monotonic) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)
        self._clock = clock
        self._lock = threading.Lock()
        self._rate = 0.0
        self._pending = 0.0
        self._t_last: float | None = None
        self.total = 0.0

    def mark(self, n: float = 1.0, now: float | None = None) -> None:
        if n < 0:
            raise ValueError("marks must be non-negative")
        now = self._clock() if now is None else float(now)
        with self._lock:
            self.total += n
            if self._t_last is None:
                self._t_last = now
                self._pending += n
                return
            self._tick(now)
            self._pending += n

    def rate(self, now: float | None = None) -> float:
        """Current smoothed rate in units/second."""
        now = self._clock() if now is None else float(now)
        with self._lock:
            if self._t_last is None:
                return 0.0
            self._tick(now)
            return self._rate

    def _tick(self, now: float) -> None:
        """Fold pending marks into the rate over the elapsed interval."""
        dt = now - self._t_last
        if dt <= 0.0:
            return
        inst = self._pending / dt
        alpha = 1.0 - math.exp(-dt / self.tau)
        self._rate += alpha * (inst - self._rate)
        self._pending = 0.0
        self._t_last = now

    def to_record(self) -> dict:
        # rate and total must come from one critical section, or a
        # concurrent mark() between the two reads yields a torn snapshot
        now = self._clock()
        with self._lock:
            if self._t_last is not None:
                self._tick(now)
            return {"type": "meter", "rate": self._rate, "total": self.total,
                    "tau": self.tau}


class RingWindow:
    """Sliding-window ring buffer of ``(t, value)`` samples.

    Bounded two ways: samples older than ``window`` seconds are pruned,
    and at most ``maxlen`` samples are kept (the ring), so a hot loop can
    ``add`` unconditionally without growing memory.
    """

    def __init__(self, window: float = 60.0, maxlen: int = 4096, *,
                 clock=time.monotonic) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.window = float(window)
        self._clock = clock
        self._samples: deque[tuple[float, float]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def add(self, value: float, now: float | None = None) -> None:
        now = self._clock() if now is None else float(now)
        with self._lock:
            self._samples.append((now, float(value)))
            self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def values(self, now: float | None = None) -> list[float]:
        now = self._clock() if now is None else float(now)
        with self._lock:
            self._prune(now)
            return [v for _, v in self._samples]

    def count(self, now: float | None = None) -> int:
        return len(self.values(now))

    def sum(self, now: float | None = None) -> float:  # noqa: A003
        return float(sum(self.values(now)))

    def mean(self, now: float | None = None) -> float | None:
        vals = self.values(now)
        return sum(vals) / len(vals) if vals else None

    def rate(self, now: float | None = None) -> float:
        """Samples per second over the window."""
        return self.count(now) / self.window

    def last(self) -> float | None:
        with self._lock:
            return self._samples[-1][1] if self._samples else None

    def to_record(self) -> dict:
        vals = self.values()
        return {"type": "window", "window": self.window, "count": len(vals),
                "sum": sum(vals), "mean": sum(vals) / len(vals) if vals else None,
                "last": vals[-1] if vals else None}


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator (one quantile).

    Maintains five markers whose heights approximate the quantile by
    piecewise-parabolic interpolation — O(1) memory and per-observation
    cost, no stored samples. Accuracy on smooth distributions is well
    under a percent of the value range after a few hundred observations
    (asserted against ``numpy.percentile`` in the test suite).
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = float(q)
        self._initial: list[float] = []
        # marker heights, positions (1-based), desired positions, increments
        self._heights: list[float] = []
        self._pos: list[float] = []
        self._want: list[float] = []
        self._dwant = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._heights:
            self._update(value)
            return
        self._initial.append(value)
        if len(self._initial) == 5:
            self._initial.sort()
            self._heights = list(self._initial)
            self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
            q = self.q
            self._want = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                          3.0 + 2.0 * q, 5.0]

    def _update(self, value: float) -> None:
        h, pos, want = self._heights, self._pos, self._want
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            # cell k: the marker interval h[k] <= value < h[k+1]
            k = 3
            for i in range(4):
                if value < h[i + 1]:
                    k = i
                    break
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            want[i] += self._dwant[i]
        # adjust the three interior markers toward their desired positions
        for i in range(1, 4):
            d = want[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or \
               (d <= -1.0 and pos[i - 1] - pos[i] < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, p = self._heights, self._pos
        return h[i] + d / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))

    def _linear(self, i: int, d: float) -> float:
        h, p = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float | None:
        """The current quantile estimate (None before any observation)."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return None
        ordered = sorted(self._initial)
        # exact quantile while we are still below 5 samples
        idx = min(len(ordered) - 1, max(0, round(self.q * (len(ordered) - 1))))
        return ordered[int(idx)]


class LatencySummary:
    """Streaming p50/p95/p99 + count/sum/min/max of a duration stream."""

    def __init__(self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> None:
        if not quantiles:
            raise ValueError("need at least one quantile")
        self.quantiles = tuple(float(q) for q in quantiles)
        self._estimators = {q: P2Quantile(q) for q in self.quantiles}
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for est in self._estimators.values():
                est.observe(value)

    def quantile(self, q: float) -> float | None:
        with self._lock:
            est = self._estimators.get(float(q))
            if est is None:
                raise KeyError(f"summary does not track quantile {q}")
            return est.value

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def to_record(self) -> dict:
        with self._lock:
            return {
                "type": "summary",
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "quantiles": {f"p{q * 100:g}": self._estimators[q].value
                              for q in self.quantiles},
            }
