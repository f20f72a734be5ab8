"""Run-scoped trace spans (thread- and process-safe).

A :class:`Run` owns everything observed during one unit of work — a CLI
invocation, an experiment, a benchmark — under one ``run_id``: the finished
trace spans, and a :class:`~repro.obs.metrics.MetricsRegistry`. The *span
stack* lives in a :class:`contextvars.ContextVar`, so two threads (or two
asyncio tasks) nesting spans concurrently each see their own ancestry and
cannot corrupt each other — the failure mode of the old module-global
profiler stack. Finished spans are appended to the run under a lock.

Collection is process-global and opt-in: with no active run,
:func:`span` is a single module-global check and costs effectively
nothing, which is what lets the instrumentation live permanently in the
compression hot paths.

Typical use::

    from repro import obs

    with obs.run(tags={"dataset": "SSH"}) as r:
        with obs.span("compress", codec="cliz", nbytes=arr.nbytes):
            ...
        obs.inc_counter("files.compressed")
    r.export_jsonl("trace.jsonl")
    r.export_chrome_trace("trace.json")   # open in chrome://tracing / Perfetto

Workers on a process pool collect into their own local run and ship
``span_records()`` + ``metrics.snapshot()`` back with their result; the
parent stitches them under the dispatching span with :meth:`Run.absorb`
(see ``repro.parallel``).
"""

from __future__ import annotations

import itertools
import os
import secrets
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.metrics import LATENCY_BUCKETS, SCHEMA_VERSION, MetricsRegistry

__all__ = [
    "Span",
    "Run",
    "start_run",
    "end_run",
    "get_run",
    "last_run",
    "run",
    "span",
    "current_span",
    "add_bytes",
    "set_tag",
    "inc_counter",
    "set_gauge",
    "observe",
    "observe_latency",
]

_id_counter = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_id_counter):x}"


@dataclass
class Span:
    """One finished (or in-flight) trace span.

    ``t_wall`` is wall-clock epoch seconds at span start — comparable
    across processes on one machine, which is what makes cross-process
    merging meaningful. ``dur`` comes from ``perf_counter`` deltas.
    """

    name: str
    span_id: str = field(default_factory=_new_span_id)
    parent_id: str | None = None
    run_id: str = ""
    path: str = ""
    t_wall: float = 0.0
    dur: float = 0.0
    pid: int = field(default_factory=os.getpid)
    tid: int = field(default_factory=threading.get_native_id)
    nbytes: int = 0
    tags: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    def to_record(self) -> dict:
        """JSON-serializable dict (one JSONL trace line)."""
        return {
            "schema": SCHEMA_VERSION,
            "type": "span",
            "run": self.run_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "path": self.path,
            "ts": self.t_wall,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "nbytes": self.nbytes,
            "tags": self.tags,
            "status": self.status,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Span":
        return cls(
            name=rec["name"],
            span_id=rec["id"],
            parent_id=rec.get("parent"),
            run_id=rec.get("run", ""),
            path=rec.get("path", rec["name"]),
            t_wall=float(rec.get("ts", 0.0)),
            dur=float(rec.get("dur", 0.0)),
            pid=int(rec.get("pid", 0)),
            tid=int(rec.get("tid", 0)),
            nbytes=int(rec.get("nbytes", 0)),
            tags=dict(rec.get("tags") or {}),
            status=rec.get("status", "ok"),
        )


class Run:
    """Collector for one run: finished spans + a metrics registry."""

    def __init__(self, run_id: str | None = None,
                 tags: dict[str, Any] | None = None) -> None:
        self.run_id = run_id or secrets.token_hex(6)
        self.tags = dict(tags or {})
        self.t0_wall = time.time()
        self.metrics = MetricsRegistry()
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _append(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def span_records(self) -> list[dict]:
        """All finished spans as JSONL-ready dicts."""
        return [sp.to_record() for sp in self.spans()]

    # ------------------------------------------------------------------ #
    def record_span(self, name: str, *, t_start: float, dur: float,
                    parent: Span | None = None, tid: int | None = None,
                    nbytes: int = 0, **tags: Any) -> Span:
        """Append a manually timed span (e.g. a *simulated*-time event).

        The discrete-event transfer simulator uses this to emit spans on
        the simulated clock — ``t_start`` seconds after the run start —
        so compute/transfer overlap is visible on one Chrome-trace
        timeline next to the real spans.
        """
        sp = Span(name, run_id=self.run_id, t_wall=self.t0_wall + t_start,
                  dur=dur, nbytes=nbytes, tags=tags)
        if parent is not None:
            sp.parent_id = parent.span_id
            sp.path = f"{parent.path}/{name}"
        else:
            sp.path = name
        if tid is not None:
            sp.tid = tid
        self._append(sp)
        return sp

    def absorb(self, records: list[dict], metrics_snapshot: dict | None = None,
               *, reparent_to: Span | None = None) -> None:
        """Stitch spans (and metrics) shipped back from a worker process.

        Worker root spans become children of ``reparent_to`` (the parent's
        dispatching span) and every path is re-rooted under it, so
        aggregations (``report.stage_table``) and the Chrome trace show
        worker work nested where it was dispatched. Worker pids are
        preserved — the trace viewer lays each worker out on its own track.
        """
        prefix = f"{reparent_to.path}/" if reparent_to is not None else ""
        absorbed = []
        for rec in records:
            sp = Span.from_record(rec)
            if reparent_to is not None:
                if sp.parent_id is None:
                    sp.parent_id = reparent_to.span_id
                sp.tags.setdefault("worker_run", sp.run_id)
                sp.path = prefix + sp.path
            sp.run_id = self.run_id
            absorbed.append(sp)
        with self._lock:
            self._spans.extend(absorbed)
        if metrics_snapshot:
            self.metrics.merge(metrics_snapshot)

    # ------------------------------------------------------------------ #
    def export_jsonl(self, path) -> None:
        from repro.obs.sinks import write_trace_jsonl

        write_trace_jsonl(self, path)

    def export_chrome_trace(self, path) -> None:
        from repro.obs.sinks import write_chrome_trace

        write_chrome_trace(self, path)

    def export_metrics_jsonl(self, path) -> None:
        from repro.obs.sinks import write_metrics_jsonl

        write_metrics_jsonl(self, path)


# ---------------------------------------------------------------------- #
# Process-global active run + contextvar span stack.

_active_run: Run | None = None
_last_run: Run | None = None
_current_span: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)


def start_run(run_id: str | None = None, tags: dict[str, Any] | None = None) -> Run:
    """Create a new :class:`Run` and make it the process's active collector."""
    global _active_run, _last_run
    _active_run = _last_run = Run(run_id, tags)
    return _active_run


def end_run() -> Run | None:
    """Deactivate collection; the finished run stays readable via :func:`last_run`."""
    global _active_run, _last_run
    finished = _active_run
    if finished is not None:
        _last_run = finished
    _active_run = None
    return finished


def get_run() -> Run | None:
    """The active run, or None when collection is off."""
    return _active_run


def last_run() -> Run | None:
    """The most recently active run (still readable after :func:`end_run`)."""
    return _active_run or _last_run


@contextmanager
def run(run_id: str | None = None, tags: dict[str, Any] | None = None) -> Iterator[Run]:
    """``with obs.run() as r:`` — scoped active run, deactivated on exit."""
    r = start_run(run_id, tags)
    try:
        yield r
    finally:
        if _active_run is r:
            end_run()


@contextmanager
def span(name: str, nbytes: int | None = None, **tags: Any) -> Iterator[Span | None]:
    """Time a named span; nesting builds "/"-joined paths.

    A near-free no-op when no run is active. Yields the live
    :class:`Span` (None when disabled) so callers can attach tags or a
    byte count after the fact.
    """
    r = _active_run
    if r is None:
        yield None
        return
    parent = _current_span.get()
    sp = Span(name, run_id=r.run_id, tags=dict(tags) if tags else {})
    if parent is not None:
        sp.parent_id = parent.span_id
        sp.path = f"{parent.path}/{name}"
    else:
        sp.path = name
    if nbytes is not None:
        sp.nbytes = int(nbytes)
    token = _current_span.set(sp)
    sp.t_wall = time.time()
    t0 = time.perf_counter()
    try:
        yield sp
    except BaseException:
        sp.status = "error"
        raise
    finally:
        sp.dur = time.perf_counter() - t0
        _current_span.reset(token)
        # The run may have been swapped mid-span (start_run() inside an
        # open span); record into the run that opened the span.
        r._append(sp)
        # Per-stage latency on /metrics, merged back from pool workers
        # like any histogram. Keyed by span *name*, not path: names are
        # the low-cardinality stage vocabulary, paths are per-call-site.
        r.metrics.histogram(f"span.{name}.seconds",
                            LATENCY_BUCKETS).observe(sp.dur)


def current_span() -> Span | None:
    return _current_span.get()


def add_bytes(nbytes: int) -> None:
    """Credit ``nbytes`` to the innermost open span (no-op when disabled)."""
    sp = _current_span.get()
    if sp is not None:
        sp.nbytes += int(nbytes)


def set_tag(key: str, value: Any) -> None:
    """Attach a tag to the innermost open span (no-op when disabled)."""
    sp = _current_span.get()
    if sp is not None:
        sp.tags[key] = value


# ---------------------------------------------------------------------- #
# Metric conveniences routed at the active run (no-ops when collection is
# off) — these keep pipeline call sites to one cheap line.

def inc_counter(name: str, value: int = 1) -> None:
    r = _active_run
    if r is not None:
        r.metrics.counter(name).inc(value)


def set_gauge(name: str, value: float) -> None:
    r = _active_run
    if r is not None:
        r.metrics.gauge(name).set(value)


def observe(name: str, value: float, buckets: list[float] | None = None) -> None:
    r = _active_run
    if r is not None:
        r.metrics.histogram(name, buckets).observe(value)


def observe_latency(name: str, seconds: float) -> None:
    """Record one duration into the ``<name>.seconds`` histogram.

    The histogram uses ``LATENCY_BUCKETS`` edges, so ``/metrics``
    ``histogram_quantile()`` and offline quantiles are meaningful.
    """
    r = _active_run
    if r is not None:
        r.metrics.histogram(f"{name}.seconds", LATENCY_BUCKETS).observe(seconds)
