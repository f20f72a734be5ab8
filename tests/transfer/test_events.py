"""Tests for the discrete-event engine, incl. cross-validation vs analytic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfer import WanLink, fair_share_stats
from tests.transfer.reference import EventQueue, SharedResource, simulate_shared_link


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        q.run()
        assert fired == ["a", "b", "c"]
        assert q.now == 3.0

    def test_same_time_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in "xyz":
            q.schedule(1.0, lambda t=tag: fired.append(t))
        q.run()
        assert fired == ["x", "y", "z"]

    def test_schedule_into_past_rejected(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        q = EventQueue()
        fired = []
        def first():
            fired.append(q.now)
            q.schedule(q.now + 2.0, lambda: fired.append(q.now))
        q.schedule(1.0, first)
        q.run()
        assert fired == [1.0, 3.0]

    def test_run_until(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(10.0, lambda: fired.append(2))
        q.run(until=5.0)
        assert fired == [1]
        assert q.pending == 1


class TestSharedResource:
    def test_single_job(self):
        done = simulate_shared_link(np.array([0.0]), np.array([100.0]), bandwidth=10.0)
        assert done[0] == pytest.approx(10.0)

    def test_bad_capacity(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            SharedResource(q, 0.0, lambda *a: None)

    def test_duplicate_job_rejected(self):
        q = EventQueue()
        r = SharedResource(q, 1.0, lambda *a: None)
        r.submit(1, 10.0)
        with pytest.raises(ValueError):
            r.submit(1, 5.0)

    def test_equal_jobs_finish_together(self):
        done = simulate_shared_link(np.zeros(4), np.full(4, 100.0), bandwidth=40.0)
        np.testing.assert_allclose(done, 10.0)

    def test_staggered_arrivals(self):
        done = simulate_shared_link(np.array([0.0, 5.0]),
                                    np.array([1000.0, 100.0]), bandwidth=100.0)
        assert done[1] == pytest.approx(7.0)
        assert done[0] == pytest.approx(11.0)


class TestCrossValidation:
    """The DES and the analytic fair-share loop must agree exactly."""

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_matches_analytic_model(self, n, seed):
        rng = np.random.default_rng(seed)
        arrivals = rng.uniform(0, 50, n)
        sizes = rng.uniform(1, 500, n)
        bandwidth = float(rng.uniform(1, 100))
        latency = float(rng.uniform(0, 2))
        analytic, _ = fair_share_stats(arrivals, sizes, WanLink(bandwidth, latency))
        des = simulate_shared_link(arrivals, sizes, bandwidth, latency)
        np.testing.assert_allclose(des, analytic, rtol=1e-6, atol=1e-6)

    def test_many_equal_flows_no_stall(self):
        """The float-cancellation case that used to hang the analytic loop."""
        done = simulate_shared_link(np.full(64, 3.0), np.full(64, 1e8), bandwidth=1e9)
        np.testing.assert_allclose(done, 3.0 + 64 * 1e8 / 1e9)
