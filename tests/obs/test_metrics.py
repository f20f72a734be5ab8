"""Tests for the metrics registry: instruments, bucket edges, merge."""

import itertools

import pytest

from repro.obs import MetricsRegistry, exponential_buckets
from repro.obs.sinks import validate_metrics_line

#: Every kind the registry holds, by its accessor name.
KINDS = ("counter", "gauge", "histogram")


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5

    def test_unset_is_none(self):
        assert MetricsRegistry().gauge("g").value is None


class TestHistogramBuckets:
    def test_edge_values_inclusive(self):
        """Values exactly on an edge land in that edge's bucket (le semantics)."""
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.0, 1.5, 2.0, 4.0, 4.0001):
            h.observe(v)
        # 0.5 and 1.0 -> le 1.0; 1.5, 2.0 -> le 2.0; 4.0 -> le 4.0; rest overflow
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min == 0.5 and h.max == 4.0001
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.0001)

    def test_below_first_edge(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[10.0])
        h.observe(-100.0)
        assert h.counts == [1, 0]

    def test_overflow_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1.0])
        h.observe(1e9)
        assert h.counts == [0, 1]

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=[2.0, 1.0])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=[1.0, 1.0])

    def test_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[10.0])
        assert h.mean is None
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)


class TestKindClash:
    @pytest.mark.parametrize("first,second",
                             list(itertools.permutations(KINDS, 2)))
    def test_every_pair_of_kinds_clashes(self, first, second):
        """One name holds one kind; asking for it as another raises."""
        reg = MetricsRegistry()
        held = getattr(reg, first)("x")
        with pytest.raises(TypeError, match="already registered"):
            getattr(reg, second)("x")
        assert getattr(reg, first)("x") is held
        assert list(reg.snapshot()) == ["x"]


class TestRegistry:
    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_records_validate(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.gauge("b").set(1.25)
        reg.histogram("c", buckets=[1.0, 2.0]).observe(1.5)
        for rec in reg.records():
            validate_metrics_line(rec)
        snap = reg.snapshot()
        assert set(snap) == {"a", "b", "c"}

    def test_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.histogram("h", buckets=[1.0, 2.0]).observe(0.5)
        b.histogram("h", buckets=[1.0, 2.0]).observe(1.5)
        b.gauge("g").set(7.0)
        a.merge(b.snapshot())
        assert a.counter("n").value == 5
        h = a.histogram("h")
        assert h.counts == [1, 1, 0]
        assert h.count == 2
        assert h.min == 0.5 and h.max == 1.5
        assert a.gauge("g").value == 7.0

    def test_merge_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=[1.0])
        b.histogram("h", buckets=[2.0]).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_merge_into_empty_registry(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("h", buckets=[1.0]).observe(0.5)
        a.merge(b.snapshot())
        assert a.histogram("h").count == 1

    def test_merge_empty_histogram_keeps_local_min_max(self):
        """An observation-free histogram (min/max None) must merge as a
        no-op on the extrema, not clobber them or raise on ``min(None, x)``
        — the shape a pool worker ships when it declared a histogram but
        never observed into it."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=[1.0]).observe(0.5)
        b.histogram("h", buckets=[1.0])  # declared, never observed
        a.merge(b.snapshot())
        h = a.histogram("h")
        assert h.count == 1
        assert h.min == 0.5 and h.max == 0.5

    def test_merge_populated_into_empty_histogram(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=[1.0])  # local side has no observations
        b.histogram("h", buckets=[1.0]).observe(2.5)
        a.merge(b.snapshot())
        h = a.histogram("h")
        assert h.count == 1
        assert h.min == 2.5 and h.max == 2.5

    def test_merge_both_histograms_empty(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=[1.0])
        b.histogram("h", buckets=[1.0])
        a.merge(b.snapshot())
        h = a.histogram("h")
        assert h.count == 0
        assert h.min is None and h.max is None


class TestThreadSafety:
    """Two-thread regression tests for the per-metric locks.

    Before the locks, ``Counter.inc`` / ``Histogram.observe`` were bare
    read-modify-write sequences; two threads hammering one instrument
    lost updates. 20k increments across threads must land exactly.
    """

    N_THREADS = 4
    N_OPS = 5000

    def _hammer(self, fn):
        import threading

        threads = [threading.Thread(target=fn) for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_are_atomic(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        self._hammer(lambda: [counter.inc() for _ in range(self.N_OPS)])
        assert counter.value == self.N_THREADS * self.N_OPS

    def test_histogram_observations_are_atomic(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=[0.5, 1.5])
        self._hammer(lambda: [hist.observe(1.0) for _ in range(self.N_OPS)])
        total = self.N_THREADS * self.N_OPS
        assert hist.count == total
        assert hist.sum == pytest.approx(float(total))
        assert hist.counts == [0, total, 0]

    def test_gauge_set_under_contention(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        self._hammer(lambda: [gauge.set(1.0) for _ in range(self.N_OPS)])
        assert gauge.value == 1.0


class TestLatencyBuckets:
    def test_span_second_scale(self):
        from repro.obs import LATENCY_BUCKETS as edges

        assert edges[0] == pytest.approx(1e-4)
        assert edges[-1] > 60.0  # covers minute-scale cells
        assert edges == sorted(edges)
        # fine enough that sub-ms and multi-second work land in
        # different buckets with room to spare
        assert len(edges) >= 16

    def test_used_by_observe_latency(self):
        from repro import obs

        obs.end_run()
        run = obs.start_run()
        try:
            obs.observe_latency("stage", 0.01)
            hist = run.metrics.histogram("stage.seconds")
            assert hist.buckets == obs.LATENCY_BUCKETS
            assert hist.count == 1
            assert list(run.metrics.snapshot()) == ["stage.seconds"]
        finally:
            obs.end_run()


class TestSchemaVersion:
    def test_records_carry_schema_1(self):
        from repro.obs import SCHEMA_VERSION

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        for rec in reg.records():
            assert rec["schema"] == SCHEMA_VERSION == 1
            validate_metrics_line(rec)

    def test_validator_accepts_absent_schema(self):
        validate_metrics_line({"type": "counter", "name": "c", "value": 1})

    def test_validator_rejects_future_schema(self):
        with pytest.raises(ValueError, match="schema version 99"):
            validate_metrics_line(
                {"schema": 99, "type": "counter", "name": "c", "value": 1})

    def test_validator_rejects_non_int_schema(self):
        for bad in ("1", 1.5, True):
            with pytest.raises(ValueError, match="schema"):
                validate_metrics_line(
                    {"schema": bad, "type": "counter", "name": "c", "value": 1})
