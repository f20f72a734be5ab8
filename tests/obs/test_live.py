"""Tests for the streaming aggregates: EWMA meters, windows, P² quantiles."""

import math
import random
import threading

import numpy as np
import pytest

from repro.obs.live import (
    DEFAULT_QUANTILES,
    EwmaMeter,
    LatencySummary,
    P2Quantile,
    RingWindow,
)
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    """Injectable monotonic clock for deterministic time arithmetic."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


class TestEwmaMeter:
    def test_steady_rate_converges(self):
        clock = FakeClock()
        meter = EwmaMeter(tau=5.0, clock=clock)
        # 10 marks/second for many time constants
        for _ in range(500):
            clock.advance(0.1)
            meter.mark(1.0)
        assert meter.rate() == pytest.approx(10.0, rel=0.05)

    def test_decays_toward_zero_when_idle(self):
        clock = FakeClock()
        meter = EwmaMeter(tau=2.0, clock=clock)
        for _ in range(100):
            clock.advance(0.1)
            meter.mark(1.0)
        clock.advance(0.1)  # flush the final pending mark into the rate
        busy = meter.rate()
        clock.advance(20.0)  # 10 time constants of silence
        assert meter.rate() < busy * math.exp(-9)

    def test_total_is_exact(self):
        meter = EwmaMeter(clock=FakeClock())
        for n in (1, 2, 3.5):
            meter.mark(n)
        assert meter.total == 6.5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            EwmaMeter(tau=0.0)
        with pytest.raises(ValueError):
            EwmaMeter().mark(-1.0)

    def test_record_shape(self):
        rec = EwmaMeter(clock=FakeClock()).to_record()
        assert rec["type"] == "meter"
        assert set(rec) == {"type", "rate", "total", "tau"}


class TestRingWindow:
    def test_prunes_old_samples(self):
        clock = FakeClock()
        win = RingWindow(window=10.0, clock=clock)
        win.add(1.0)
        clock.advance(5.0)
        win.add(2.0)
        assert win.values() == [1.0, 2.0]
        clock.advance(6.0)  # first sample is now 11s old
        assert win.values() == [2.0]

    def test_maxlen_bounds_memory(self):
        clock = FakeClock()
        win = RingWindow(window=1e9, maxlen=8, clock=clock)
        for i in range(100):
            win.add(float(i))
        assert win.count() == 8
        assert win.last() == 99.0

    def test_aggregates(self):
        clock = FakeClock()
        win = RingWindow(window=60.0, clock=clock)
        for v in (1.0, 2.0, 3.0):
            win.add(v)
        assert win.sum() == 6.0
        assert win.mean() == 2.0
        assert win.rate() == pytest.approx(3 / 60.0)

    def test_empty_window(self):
        win = RingWindow(clock=FakeClock())
        assert win.mean() is None
        assert win.last() is None
        assert win.to_record()["count"] == 0


class TestP2Quantile:
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "exponential"])
    def test_accuracy_vs_numpy(self, q, dist):
        """P² estimates track numpy percentiles on seeded streams."""
        rng = np.random.default_rng(42)
        samples = {
            "uniform": rng.uniform(0, 1, 5000),
            "lognormal": rng.lognormal(0.0, 0.5, 5000),
            "exponential": rng.exponential(1.0, 5000),
        }[dist]
        est = P2Quantile(q)
        for v in samples:
            est.observe(float(v))
        exact = float(np.percentile(samples, q * 100))
        # P² is an approximation; 10% relative error is a loose ceiling
        # (typical error on these streams is well under 2%)
        assert est.value == pytest.approx(exact, rel=0.10)

    def test_exact_below_five_samples(self):
        est = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            est.observe(v)
        assert est.value == 3.0  # exact median of {1, 3, 5}

    def test_empty_is_none(self):
        assert P2Quantile(0.5).value is None

    def test_rejects_degenerate_quantile(self):
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_monotone_markers(self):
        """Marker heights stay sorted — the P² invariant."""
        rng = random.Random(7)
        est = P2Quantile(0.95)
        for _ in range(2000):
            est.observe(rng.gauss(0.0, 1.0))
        h = est._heights
        assert all(h[i] <= h[i + 1] for i in range(4))


class TestLatencySummary:
    def test_quantiles_and_extremes(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.0, 1.0, 3000)
        summ = LatencySummary()
        for v in samples:
            summ.observe(float(v))
        assert summ.count == 3000
        assert summ.min == float(samples.min())
        assert summ.max == float(samples.max())
        assert summ.mean == pytest.approx(float(samples.mean()), rel=1e-9)
        for q in DEFAULT_QUANTILES:
            assert summ.quantile(q) == pytest.approx(
                float(np.percentile(samples, q * 100)), rel=0.10)

    def test_record_has_named_quantiles(self):
        summ = LatencySummary()
        summ.observe(1.0)
        rec = summ.to_record()
        assert rec["type"] == "summary"
        assert set(rec["quantiles"]) == {"p50", "p95", "p99"}

    def test_unknown_quantile_raises(self):
        with pytest.raises(KeyError):
            LatencySummary().quantile(0.42)

    def test_thread_safety(self):
        """Concurrent observers lose no counts (lock regression test)."""
        summ = LatencySummary()

        def worker():
            for _ in range(5000):
                summ.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert summ.count == 20000
        assert summ.sum == pytest.approx(10000.0)


class TestLiveRegistry:
    """The live kinds as held by the run's one :class:`MetricsRegistry`."""

    def test_same_name_same_instance(self):
        reg = MetricsRegistry()
        assert reg.meter("m") is reg.meter("m")
        assert reg.window("w") is reg.window("w")
        assert reg.summary("s") is reg.summary("s")

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.meter("b.meter").mark(1.0)
        reg.window("a.window").add(2.0)
        reg.summary("c.summary").observe(0.5)
        snap = reg.scrape()
        assert list(snap) == ["a.window", "b.meter", "c.summary"]
        assert snap["a.window"]["type"] == "window"
        assert snap["b.meter"]["type"] == "meter"
        assert snap["c.summary"]["type"] == "summary"
        assert all(rec["name"] == name for name, rec in snap.items())
        # live kinds are process-local: never exported or merged
        assert reg.snapshot() == {}
