"""Admission control and circuit breakers on an injected clock."""

import math

import pytest

from repro.obs import trace
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.breakers import BreakerBoard, CodecBreaker
from repro.service.schemas import QueueFullError, RateLimitedError


@pytest.fixture(autouse=True)
def clean_run():
    trace.end_run()
    yield
    trace.end_run()


class Clock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = Clock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        clock.now += 0.5  # one token refilled
        assert bucket.try_take() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = Clock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.now += 1000.0
        bucket.try_take()
        bucket.try_take()
        assert bucket.try_take() > 0

    def test_validates(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestAdmission:
    def test_queue_bound_sheds_and_releases(self):
        adm = AdmissionController(max_queue=2, rate=100, burst=50,
                                  clock=Clock())
        adm.admit("a")
        adm.admit("a")
        with pytest.raises(QueueFullError) as exc:
            adm.admit("a")
        assert exc.value.retry_after is not None
        adm.release()
        adm.admit("a")  # slot freed
        assert adm.snapshot()["depth"] == 2

    def test_rate_gate_is_per_client(self):
        adm = AdmissionController(max_queue=50, rate=1.0, burst=2,
                                  clock=Clock())
        adm.admit("alice"), adm.release()
        adm.admit("alice"), adm.release()
        with pytest.raises(RateLimitedError) as exc:
            adm.admit("alice")
        assert exc.value.retry_after == pytest.approx(1.0)
        adm.admit("bob")  # a different client has its own bucket
        adm.release()

    def test_rate_gate_runs_before_queue(self):
        # a rate-shed request must not consume a queue slot
        adm = AdmissionController(max_queue=1, rate=1.0, burst=1,
                                  clock=Clock())
        adm.admit("c")
        with pytest.raises(RateLimitedError):
            adm.admit("c")
        assert adm.snapshot()["depth"] == 1

    def test_gauges_published(self):
        run = trace.start_run()
        adm = AdmissionController(max_queue=3, clock=Clock())
        adm.admit("x")
        snap = run.metrics.snapshot()
        assert snap["service.queue.depth"]["value"] == 1.0
        assert snap["service.queue.limit"]["value"] == 3.0


class TestBreaker:
    def test_trips_after_threshold_consecutive(self):
        b = CodecBreaker("cliz", threshold=3, cooldown=10, clock=Clock())
        for _ in range(2):
            b.record(False)
        assert b.allow() and b.state == "closed"  # two failures: still closed
        b.record(False)  # the third consecutive failure trips it
        assert b.state == "open" and not b.allow()

    def test_success_resets_consecutive(self):
        b = CodecBreaker("cliz", threshold=2, cooldown=10, clock=Clock())
        b.record(False)
        b.record(True)
        b.record(False)
        assert b.state == "closed"

    def test_half_open_probe_recovers(self):
        clock = Clock()
        b = CodecBreaker("cliz", threshold=1, cooldown=5.0, clock=clock)
        b.record(False)
        assert not b.allow()
        assert 0 < b.retry_after() <= 5.0
        clock.now += 5.0
        assert b.allow()  # the single probe
        assert not b.allow()  # second concurrent probe is shut out
        b.record(True)
        assert b.state == "closed" and b.allow()

    def test_failed_probe_reopens(self):
        clock = Clock()
        b = CodecBreaker("cliz", threshold=1, cooldown=5.0, clock=clock)
        b.record(False)
        clock.now += 5.0
        assert b.allow()
        b.record(False)
        assert b.state == "open"
        assert b.retry_after() == pytest.approx(5.0)

    def test_board_isolates_codecs_and_snapshots(self):
        board = BreakerBoard(threshold=1, cooldown=9, clock=Clock())
        board.for_codec("cliz").record(False)
        assert not board.for_codec("cliz").allow()
        assert board.for_codec("sz3").allow()
        snap = board.snapshot()
        assert snap["cliz"]["state"] == "open"
        assert snap["sz3"]["state"] in ("closed", "half_open")

    def test_state_gauge_published(self):
        run = trace.start_run()
        b = CodecBreaker("qoz", threshold=1, cooldown=5, clock=Clock())
        b.record(False)
        snap = run.metrics.snapshot()
        assert snap["service.breaker.qoz"]["value"] == 1.0
        counters = {k: v["value"] for k, v in snap.items()
                    if k.startswith("service.breaker.qoz.")}
        assert counters.get("service.breaker.qoz.tripped") == 1

    def test_record_returns_true_only_on_the_tripping_call(self):
        b = CodecBreaker("cliz", threshold=2, cooldown=10, clock=Clock())
        assert b.record(False) is False
        assert b.record(False) is True  # this call opened it
        assert b.record(False) is False  # already open
        assert b.record(True) is False and b.state == "closed"

    def test_infinite_cooldown_never_half_opens(self):
        clock = Clock()
        b = CodecBreaker("sz3", threshold=1, cooldown=math.inf, clock=clock)
        b.record(False)
        for step in (1.0, 1e6, 1e300):
            clock.now += step
            assert not b.allow()
            assert b.snapshot()["state"] == "open"

    def test_no_gauge_before_first_state_change(self):
        run = trace.start_run()
        board = BreakerBoard(threshold=2, cooldown=5, clock=Clock(),
                             namespace="sweep.breaker_open")
        b = board.for_codec("zfp")
        b.record(True)
        b.record(False)  # one failure below the threshold: still closed
        assert b.allow()
        assert not any(k.startswith("sweep.breaker_open.zfp")
                       for k in run.metrics.snapshot())
        b.record(False)
        snap = run.metrics.snapshot()
        assert snap["sweep.breaker_open.zfp"]["value"] == 1.0
        assert snap["sweep.breaker_open.zfp.tripped"]["value"] == 1
        assert "service.breaker.zfp" not in snap

    def test_validates(self):
        with pytest.raises(ValueError):
            CodecBreaker("x", threshold=0)
        with pytest.raises(ValueError):
            CodecBreaker("x", cooldown=0)
