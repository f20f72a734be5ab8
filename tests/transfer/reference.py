"""Reference discrete-event engine for the WAN fair-share model.

`repro.transfer.network` computes processor-sharing completions with a
closed-form event loop; this module is the independent oracle for it:
`tests/transfer/test_events.py` cross-validates the two implementations
against each other on random workloads.

The engine is deliberately minimal: a time-ordered event queue plus
resources that re-plan on every arrival/departure. Events scheduled for
the same instant fire in insertion order (stable heap), which keeps runs
deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.transfer.network import QUEUE_DEPTH_BUCKETS

__all__ = ["EventQueue", "SharedResource", "simulate_shared_link"]


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable = field(compare=False)


class EventQueue:
    """Time-ordered callback queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, time: float, action: Callable) -> None:
        """Run ``action`` at absolute ``time`` (not before ``now``)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        heapq.heappush(self._heap, _Event(max(time, self.now), self._seq, action))
        self._seq += 1

    def run(self, until: float = np.inf) -> float:
        """Process events in order until the queue drains (or ``until``)."""
        with obs.span("des.run") as sp:
            n_events = 0
            while self._heap and self._heap[0].time <= until:
                event = heapq.heappop(self._heap)
                self.now = event.time
                event.action()
                n_events += 1
            if sp is not None:
                sp.tags["n_events"] = n_events
                sp.tags["t_end"] = self.now
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)


class SharedResource:
    """A capacity shared equally among active jobs (processor sharing).

    Jobs are submitted with a size; the resource re-plans its next
    completion whenever membership changes. ``on_done(job_id, time)`` fires
    at each completion.
    """

    def __init__(self, queue: EventQueue, capacity: float,
                 on_done: Callable[[int, float], None]) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.queue = queue
        self.capacity = capacity
        self.on_done = on_done
        self.busy_time = 0.0  # simulated seconds with >= 1 active job
        self._remaining: dict[int, float] = {}
        self._last_update = 0.0
        self._plan_token = 0

    # ------------------------------------------------------------------ #
    def submit(self, job_id: int, size: float) -> None:
        if job_id in self._remaining:
            raise ValueError(f"job {job_id} already active")
        self._advance()
        self._remaining[job_id] = float(size)
        if obs.get_run() is not None:
            obs.observe("wan.queue_depth", len(self._remaining),
                        buckets=QUEUE_DEPTH_BUCKETS)
        self._replan()

    def _advance(self) -> None:
        """Charge elapsed progress to every active job."""
        now = self.queue.now
        if self._remaining:
            rate = self.capacity / len(self._remaining)
            elapsed = now - self._last_update
            if elapsed > 0:
                self.busy_time += elapsed
                for job in self._remaining:
                    self._remaining[job] -= rate * elapsed
        self._last_update = now

    def _replan(self) -> None:
        """Schedule the next completion; stale plans are token-invalidated."""
        self._plan_token += 1
        if not self._remaining:
            return
        token = self._plan_token
        rate = self.capacity / len(self._remaining)
        job, remaining = min(self._remaining.items(), key=lambda kv: (kv[1], kv[0]))
        eta = self.queue.now + max(remaining, 0.0) / rate
        self.queue.schedule(eta, lambda: self._complete(job, token))

    def _complete(self, job: int, token: int) -> None:
        if token != self._plan_token:
            return  # superseded by a later arrival
        self._advance()
        self._remaining.pop(job, None)
        self.on_done(job, self.queue.now)
        self._replan()


def simulate_shared_link(arrivals: np.ndarray, sizes: np.ndarray,
                         bandwidth: float, latency: float = 0.0) -> np.ndarray:
    """Processor-sharing completions via the DES engine.

    Semantically identical to the completion times of
    :func:`repro.transfer.network.fair_share_stats`; used as its
    cross-validation oracle and as the substrate for richer scenarios.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64) + latency
    sizes = np.asarray(sizes, dtype=np.float64)
    if arrivals.shape != sizes.shape:
        raise ValueError("arrivals and sizes must align")
    queue = EventQueue()
    done = np.zeros(arrivals.size)

    def record(job: int, time: float) -> None:
        done[job] = time

    link = SharedResource(queue, bandwidth, record)
    with obs.span("des.simulate_shared_link", n_flows=int(arrivals.size),
                  bandwidth=bandwidth):
        for i, (t, s) in enumerate(zip(arrivals, sizes)):
            queue.schedule(float(t), lambda i=i, s=s: link.submit(i, float(s)))
        queue.run()
    if obs.get_run() is not None and arrivals.size:
        span_t = float(done.max() - arrivals.min())
        obs.set_gauge("wan.link_utilization",
                      link.busy_time / span_t if span_t > 0 else 1.0)
    return done
