"""Telemetry sinks: JSONL files and Chrome trace.

Two JSONL line schemas, shared by live pipeline telemetry and the
benchmark trajectories:

* **trace lines** — one span per line, ``type: "span"`` with ``run``,
  ``id``, ``parent``, ``name``, ``path``, ``ts`` (epoch seconds), ``dur``
  (seconds), ``pid``, ``tid``, ``nbytes``, ``tags``, ``status``;
* **metrics lines** — one metric per line, ``type`` is ``counter`` /
  ``gauge`` / ``histogram`` with ``name`` + ``value`` (counter, gauge) or
  ``buckets``/``counts``/``count``/``sum``/``min``/``max`` (histogram).

Both line kinds carry a ``schema`` version field (currently ``1``, see
:data:`repro.obs.metrics.SCHEMA_VERSION`). ``validate_trace_line`` /
``validate_metrics_line`` raise ``ValueError`` with the failing key, so
tests and CI can assert schema validity without a JSON-schema dependency;
they accept lines *without* the field (files written before versioning)
and reject versions newer than this reader understands. The Chrome-trace
export is the ``traceEvents`` JSON-array format understood by
``chrome://tracing`` and Perfetto.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Run

__all__ = [
    "JsonlSink",
    "write_trace_jsonl",
    "write_metrics_jsonl",
    "write_chrome_trace",
    "chrome_trace_events",
    "load_jsonl",
    "validate_trace_line",
    "validate_metrics_line",
]


# Per-path locks serializing concurrent JsonlSink appends within this
# process: healing the tail while another thread is mid-append would
# truncate that thread's half-written batch, and interleaved buffered
# writes could split a record across another batch's lines.
_sink_locks: dict[str, threading.Lock] = {}
_sink_locks_guard = threading.Lock()


def _lock_for(path: Path) -> threading.Lock:
    key = str(path)
    with _sink_locks_guard:
        return _sink_locks.setdefault(key, threading.Lock())


class JsonlSink:
    """Append JSON records, one per line, to a file.

    Crash-consistent appends: a previous process dying mid-append leaves
    an unterminated final line, which would fuse with the next record
    into one unparseable line. The sink heals that torn tail (truncating
    the partial record) before appending, so every *complete* line in the
    file is always valid JSON.

    Contention-safe appends: concurrent ``write`` calls from multiple
    threads (service handlers, the metrics exporter, a sweep) serialize
    on a per-path lock, and each batch is flushed as one ``O_APPEND``
    write, so batches never interleave line-by-line and healing never
    truncates another thread's in-flight append.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def write(self, records: Iterable[dict]) -> int:
        from repro.runtime import heal_jsonl_tail

        payload = b""
        n = 0
        for rec in records:
            payload += (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")
            n += 1
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _lock_for(self.path):
            healed = heal_jsonl_tail(self.path)
            if healed:
                warnings.warn(f"{self.path}: healed {healed} torn tail byte(s) "
                              "before appending", RuntimeWarning, stacklevel=2)
            if payload:
                fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                             0o644)
                try:
                    os.write(fd, payload)
                finally:
                    os.close(fd)
        return n


# ---------------------------------------------------------------------- #
def write_trace_jsonl(run: "Run", path) -> int:
    """One span per line; returns the number of lines written."""
    return JsonlSink(path).write(run.span_records())


def write_metrics_jsonl(run: "Run", path) -> int:
    """One metric per line; returns the number of lines written."""
    return JsonlSink(path).write(run.metrics.records())


def chrome_trace_events(run: "Run") -> list[dict]:
    """The run's spans as Chrome-trace complete events (``ph: "X"``)."""
    events = [{
        "name": "run", "ph": "M", "cat": "__metadata",
        "pid": 0, "tid": 0, "args": {"run_id": run.run_id, **run.tags},
    }]
    for sp in run.spans():
        events.append({
            "name": sp.name,
            "cat": sp.path.split("/", 1)[0],
            "ph": "X",
            "ts": (sp.t_wall - run.t0_wall) * 1e6,  # microseconds
            "dur": sp.dur * 1e6,
            "pid": sp.pid,
            "tid": sp.tid,
            "args": {"path": sp.path, "nbytes": sp.nbytes,
                     "status": sp.status, **sp.tags},
        })
    return events


def write_chrome_trace(run: "Run", path) -> None:
    from repro.runtime import atomic_write

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps({"traceEvents": chrome_trace_events(run)}))


# ---------------------------------------------------------------------- #
def load_jsonl(path) -> list[dict]:
    """Parse a JSONL file into a list of dicts (blank lines ignored).

    Torn-tail tolerant: a final line left unterminated by a crashed
    writer is *skipped* with a counted ``RuntimeWarning`` (metric
    ``jsonl.torn_tail_skipped`` when a run is active) instead of raising
    — a local torn write is an expected crash signature, not corruption.
    Invalid JSON anywhere else still raises ``ValueError``.
    """
    raw = Path(path).read_text()
    torn_tail = bool(raw) and not raw.endswith("\n")
    lines = raw.splitlines()
    out = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"expected an object, got {type(rec).__name__}")
        except (json.JSONDecodeError, ValueError) as exc:
            if torn_tail and i == len(lines):
                from repro.obs.trace import inc_counter

                inc_counter("jsonl.torn_tail_skipped")
                warnings.warn(f"{path}: skipping torn final line ({exc})",
                              RuntimeWarning, stacklevel=2)
                continue
            raise ValueError(f"{path}:{i}: invalid JSON: {exc}") from None
        out.append(rec)
    return out


def _require(rec: dict, key: str, types, ctx: str) -> None:
    if key not in rec:
        raise ValueError(f"{ctx}: missing key {key!r}")
    if not isinstance(rec[key], types):
        raise ValueError(f"{ctx}: key {key!r} has type {type(rec[key]).__name__}")


def _check_schema(rec: dict, ctx: str) -> None:
    """Accept-and-check the optional ``schema`` version field.

    Absence is tolerated (files written before PR 7 carry no version);
    when present it must be an int in ``1..SCHEMA_VERSION`` — a newer
    version than this reader understands is an error, not a warning.
    """
    from repro.obs.metrics import SCHEMA_VERSION

    version = rec.get("schema")
    if version is None:
        return
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(f"{ctx}: 'schema' must be an int, "
                         f"got {type(version).__name__}")
    if not 1 <= version <= SCHEMA_VERSION:
        raise ValueError(f"{ctx}: schema version {version} not supported "
                         f"(this reader understands 1..{SCHEMA_VERSION})")


def validate_trace_line(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` is a schema-valid span line."""
    ctx = f"span line {rec.get('id')!r}"
    _check_schema(rec, ctx)
    _require(rec, "type", str, ctx)
    if rec["type"] != "span":
        raise ValueError(f"{ctx}: type is {rec['type']!r}, expected 'span'")
    for key, types in (("run", str), ("id", str), ("name", str), ("path", str),
                       ("ts", (int, float)), ("dur", (int, float)),
                       ("pid", int), ("tid", int), ("nbytes", int),
                       ("tags", dict), ("status", str)):
        _require(rec, key, types, ctx)
    if rec.get("parent") is not None and not isinstance(rec["parent"], str):
        raise ValueError(f"{ctx}: 'parent' must be a span id or null")
    if rec["dur"] < 0:
        raise ValueError(f"{ctx}: negative duration")
    if rec["status"] not in ("ok", "error"):
        raise ValueError(f"{ctx}: unknown status {rec['status']!r}")
    if not (rec["path"] == rec["name"] or rec["path"].endswith("/" + rec["name"])):
        raise ValueError(f"{ctx}: path {rec['path']!r} does not end in the span name")


def validate_metrics_line(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` is a schema-valid metric line."""
    ctx = f"metric line {rec.get('name')!r}"
    _check_schema(rec, ctx)
    _require(rec, "type", str, ctx)
    _require(rec, "name", str, ctx)
    kind = rec["type"]
    if kind == "counter":
        _require(rec, "value", int, ctx)
        if rec["value"] < 0:
            raise ValueError(f"{ctx}: negative counter")
    elif kind == "gauge":
        if rec.get("value") is not None and not isinstance(rec["value"], (int, float)):
            raise ValueError(f"{ctx}: gauge value must be numeric or null")
    elif kind == "histogram":
        for key, types in (("buckets", list), ("counts", list), ("count", int),
                           ("sum", (int, float))):
            _require(rec, key, types, ctx)
        if len(rec["counts"]) != len(rec["buckets"]) + 1:
            raise ValueError(f"{ctx}: counts must have len(buckets)+1 entries")
        if sorted(rec["buckets"]) != rec["buckets"]:
            raise ValueError(f"{ctx}: bucket edges must be ascending")
        if sum(rec["counts"]) != rec["count"]:
            raise ValueError(f"{ctx}: counts do not sum to count")
    else:
        raise ValueError(f"{ctx}: unknown metric type {kind!r}")
