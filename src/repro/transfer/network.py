"""Shared-bandwidth WAN link model (processor sharing) with link faults.

A wide-area link carrying many concurrent Globus transfers is modelled as
an egalitarian processor-sharing server: the aggregate bandwidth ``B`` is
split equally among active flows, re-divided at every arrival/completion.
The event loop below computes exact completion times for arbitrary arrival
schedules in O(n^2) worst case (n = number of files, <= a few thousand
here).

Fault modelling (:class:`repro.faults.LinkFaults`): the link can carry
**outage windows** — intervals where the effective bandwidth is zero and
in-flight flows stall — and a per-delivery **drop probability**: a flow
that finishes transmitting may be found corrupt on arrival and must be
retransmitted from scratch after a bounded exponential backoff, up to
``max_attempts`` tries. Drop decisions are deterministic in
``(seed, flow, attempt)``, so a seeded simulation reproduces identical
retransmit counts and completion times. Retransmit/goodput/outage stats
are returned by :func:`fair_share_stats` and mirrored into ``wan.*``
metrics when an observability run is active.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.faults import LinkFaults

__all__ = ["WanLink", "fair_share_completions", "fair_share_stats"]

#: Queue-depth histogram edges (flows in flight on the shared link).
QUEUE_DEPTH_BUCKETS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096]

#: Relative completion tolerance scale. Module-level so the regression
#: test for the progress guard can monkeypatch it (a negative scale makes
#: normal completion impossible, forcing the guard on every flow).
_FINISH_TOL_SCALE = 1e-9


@dataclass(frozen=True)
class WanLink:
    """A WAN path with aggregate bandwidth and per-flow startup latency."""

    bandwidth: float  # bytes/second shared by all active flows
    latency: float = 0.5  # seconds of per-file setup (Globus handshake)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")


def fair_share_completions(arrivals: np.ndarray, sizes: np.ndarray,
                           link: WanLink, *,
                           faults: LinkFaults | None = None) -> np.ndarray:
    """Completion time of each flow under equal-share bandwidth.

    ``arrivals`` are the times flows hit the link (latency is added here);
    ``sizes`` are payload bytes. Returns per-flow completion times.
    ``faults`` adds outage windows and drop/retransmit behaviour.
    """
    done, _ = fair_share_stats(arrivals, sizes, link, faults=faults)
    return done


def fair_share_stats(arrivals: np.ndarray, sizes: np.ndarray, link: WanLink,
                     *, faults: LinkFaults | None = None
                     ) -> tuple[np.ndarray, dict]:
    """Like :func:`fair_share_completions`, plus a stats dict.

    Stats keys: ``retransmits``, ``dropped_bytes``, ``drops_exhausted``,
    ``outage_time``, ``forced_completions``, ``goodput`` (useful bytes /
    total bytes transmitted, 1.0 when nothing was retransmitted).
    """
    arrivals = np.asarray(arrivals, dtype=np.float64) + link.latency
    sizes = np.asarray(sizes, dtype=np.float64)
    if arrivals.shape != sizes.shape:
        raise ValueError("arrivals and sizes must align")
    n = arrivals.size
    done = np.zeros(n)
    stats = {"retransmits": 0, "dropped_bytes": 0.0, "drops_exhausted": 0,
             "outage_time": 0.0, "forced_completions": 0, "goodput": 1.0}
    if n == 0:
        return done, stats
    with obs.span("wan.fair_share", n_flows=int(n), bandwidth=link.bandwidth,
                  faulty=faults is not None):
        done = _fair_share_loop(arrivals, sizes, link, done, faults, stats)
    total_sent = float(sizes.sum()) + stats["dropped_bytes"]
    stats["goodput"] = float(sizes.sum()) / total_sent if total_sent > 0 else 1.0
    if obs.get_run() is not None:
        # simulated bytes sent, and per-flow simulated completion latency
        obs.inc_counter("wan.bytes_sent", int(total_sent))
        for i in range(n):
            obs.observe_latency("wan.flow", float(done[i] - arrivals[i]))
        if stats["retransmits"]:
            obs.inc_counter("wan.retransmits", stats["retransmits"])
            obs.inc_counter("wan.dropped_bytes", int(stats["dropped_bytes"]))
        if stats["drops_exhausted"]:
            obs.inc_counter("wan.drops_exhausted", stats["drops_exhausted"])
        obs.set_gauge("wan.goodput", stats["goodput"])
        if stats["outage_time"] > 0:
            obs.set_gauge("wan.outage_time", stats["outage_time"])
    return done, stats


def _next_outage(outages: tuple[tuple[float, float], ...],
                 t: float) -> tuple[float, float]:
    """(end of the outage covering ``t`` or -inf, start of the next one)."""
    current_end = -np.inf
    next_start = np.inf
    for start, end in outages:
        if start <= t + 1e-12 and t < end - 1e-12:
            current_end = max(current_end, end)
        elif start > t + 1e-12:
            next_start = min(next_start, start)
    return current_end, next_start


def _fair_share_loop(arrivals: np.ndarray, sizes: np.ndarray, link: WanLink,
                     done: np.ndarray, faults: LinkFaults | None,
                     stats: dict) -> np.ndarray:
    n = arrivals.size
    collecting = obs.get_run() is not None
    busy_time = 0.0
    remaining = sizes.copy()
    attempts = np.ones(n, dtype=np.int64)  # current delivery attempt per flow
    # Completion tolerance is *relative* to the flow size: with many equal
    # flows finishing together, float cancellation can leave O(size * eps)
    # residues that would otherwise stall the event loop.
    finish_tol = _FINISH_TOL_SCALE * (1.0 + sizes)
    outages = faults.outages if faults is not None else ()
    # (time, flow) min-heap of future admissions — retransmits are pushed
    # back here, so arrivals are dynamic.
    pending: list[tuple[float, int]] = [(float(arrivals[i]), i) for i in range(n)]
    heapq.heapify(pending)
    active: list[int] = []
    t = pending[0][0]
    while pending or active:
        # admit arrivals at time t
        while pending and pending[0][0] <= t + 1e-12:
            active.append(heapq.heappop(pending)[1])
        if not active:
            t = pending[0][0]
            continue
        outage_end, next_outage_start = _next_outage(outages, t)
        t_arrive = pending[0][0] if pending else np.inf
        if outage_end > t:
            # link dead: flows stall until the outage lifts (or a new flow
            # queues up behind it)
            t_next = min(outage_end, t_arrive)
            stats["outage_time"] += t_next - t
            t = t_next
            continue
        rate = link.bandwidth / len(active)
        t_finish = t + min(remaining[i] for i in active) / rate
        t_next = min(t_finish, t_arrive, next_outage_start)
        elapsed = t_next - t
        if collecting:
            obs.observe("wan.queue_depth", len(active), buckets=QUEUE_DEPTH_BUCKETS)
            busy_time += elapsed
        progressed = 0
        for i in list(active):
            remaining[i] -= rate * elapsed
            if remaining[i] <= finish_tol[i]:
                progressed += 1
                active.remove(i)
                if faults is not None and faults.dropped(int(i), int(attempts[i])):
                    # delivery corrupt: retransmit from scratch after backoff
                    stats["retransmits"] += 1
                    stats["dropped_bytes"] += float(sizes[i])
                    remaining[i] = sizes[i]
                    delay = faults.retransmit_delay(int(attempts[i]))
                    attempts[i] += 1
                    heapq.heappush(pending, (t_next + delay, int(i)))
                else:
                    if (faults is not None and attempts[i] > 1
                            and attempts[i] >= faults.max_attempts):
                        stats["drops_exhausted"] += 1  # delivered on last try
                    done[i] = t_next
        if progressed == 0 and t_next == t_finish and active:
            # progress guard: force out the minimal-remaining flow so the
            # event loop is guaranteed to terminate even if float
            # cancellation leaves a residue above the tolerance
            i = min(active, key=lambda j: remaining[j])
            done[i] = t_next
            active.remove(i)
            stats["forced_completions"] += 1
            obs.inc_counter("wan.forced_completions")
            warnings.warn(
                f"wan fair-share progress guard force-completed flow {i} "
                f"(residue {remaining[i]:.3g} B above tolerance "
                f"{finish_tol[i]:.3g} B) — possible numeric stall",
                RuntimeWarning, stacklevel=2)
        t = t_next
    if collecting:
        span_t = float(done.max() - arrivals.min())
        obs.set_gauge("wan.link_utilization",
                      busy_time / span_t if span_t > 0 else 1.0)
    return done
