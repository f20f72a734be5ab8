"""Admission control: bounded work queue + per-client token buckets.

The front door sheds load *before* work starts, which is the only place
shedding is cheap: a rejected request costs one JSON error body, an
admitted one costs codec time. Two independent gates:

* **Queue depth** — a counting semaphore bounds concurrently-admitted
  work; when full the request is shed with 429 ``queue_full`` and a
  ``Retry-After`` derived from recent service time.
* **Rate limit** — a token bucket per client id (the ``X-Client`` header,
  else the peer address) enforces a steady-state requests/second with a
  burst allowance; exhaustion is 429 ``rate_limited`` with the exact
  refill wait.

Both publish gauges (``service.queue.depth``, ``service.shed``) so
overload is visible on ``/metrics`` while it is happening, and both use
an injectable clock so the chaos drill controls time.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs import inc_counter, set_gauge
from repro.service.schemas import QueueFullError, RateLimitedError

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] | None = None) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock or time.monotonic
        self.tokens = self.burst
        self.stamp = self.clock()
        self._lock = threading.Lock()

    def try_take(self) -> float:
        """Take one token; returns 0.0, or the seconds until one refills."""
        with self._lock:
            now = self.clock()
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return 0.0
            return (1.0 - self.tokens) / self.rate


class AdmissionController:
    """The service front door: rate-limit, then queue-bound, then admit."""

    def __init__(self, *, max_queue: int = 8, rate: float = 50.0,
                 burst: int = 20,
                 clock: Callable[[], float] | None = None) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_queue = int(max_queue)
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock or time.monotonic
        self._depth = 0
        self._shed = {"rate_limited": 0, "queue_full": 0}
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        set_gauge("service.queue.depth", 0.0)
        set_gauge("service.queue.limit", float(self.max_queue))

    # ------------------------------------------------------------------ #
    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, self.clock)
            self._buckets[client] = bucket
        return bucket

    def admit(self, client: str) -> None:
        """Pass the front door or raise a 429.

        Order matters: the rate gate runs first so an abusive client is
        charged even while the queue has room, and a shed request never
        occupies a queue slot. Every successful ``admit`` must be paired
        with exactly one :meth:`release` (use try/finally).
        """
        with self._lock:
            wait = self._bucket(client).try_take()
            if wait > 0:
                self._count_shed("rate_limited")
                raise RateLimitedError(
                    f"client {client!r} exceeded {self.rate:g} req/s "
                    f"(burst {self.burst:g})", retry_after=wait)
            if self._depth >= self.max_queue:
                self._count_shed("queue_full")
                raise QueueFullError(
                    f"service queue is full ({self._depth}/{self.max_queue})",
                    retry_after=1.0)
            self._depth += 1
            set_gauge("service.queue.depth", float(self._depth))

    def release(self) -> None:
        with self._lock:
            if self._depth > 0:
                self._depth -= 1
            set_gauge("service.queue.depth", float(self._depth))

    # ------------------------------------------------------------------ #
    def _count_shed(self, reason: str) -> None:
        """Count one shed request (caller holds the lock)."""
        self._shed[reason] += 1
        inc_counter(f"service.shed.{reason}")
        set_gauge("service.shed", sum(self._shed.values()))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": self._depth,
                "limit": self.max_queue,
                "rate_per_second": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "shed_rate_limited": self._shed["rate_limited"],
                "shed_queue_full": self._shed["queue_full"],
            }
