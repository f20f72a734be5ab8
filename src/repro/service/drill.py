"""Deterministic chaos drill: replay a seeded fault schedule, assert invariants.

``python -m repro.service drill --seed 9`` starts live in-process servers
and drives them through four phases over real HTTP (plus an opt-in
``shardkill`` cluster phase — see below):

* **soup** — a mixed seeded schedule (worker crashes, blob I/O errors,
  client aborts, handler stalls) against sequential requests. The drill
  *predicts* every response from the same pure fault functions the server
  consults — ``(seed, kind, index)`` — and asserts predicted == actual
  status/reason for every request.
* **breaker** — trips the ``cliz`` breaker with an injected worker crash,
  asserts degraded mode (503 ``breaker_open`` with Retry-After, while
  ``/estimate`` and healthy codecs keep serving and ``/ready`` reports
  503), then advances the injected clock past the cooldown and asserts
  the half-open probe recovers to closed — bounded recovery, no sleeping.
* **salvage** — flips one bit of a stored blob on disk, asserts
  decompression degrades to 206 + salvage report (or 502 when salvage is
  declined) and that digest verification confines the damage to exactly
  the blob the drill corrupted — zero collateral store corruption.
* **overload** — fills the bounded queue with stalled requests and
  asserts the overflow sheds with 429 ``queue_full``, exhausts a frozen
  token bucket for 429 ``rate_limited``, and forces a 504 by stalling
  past an explicit ``X-Deadline``.
* **shardkill** (``--phases shardkill``; not in the default set because
  it spawns real shard processes) — starts a two-shard supervised
  cluster, SIGKILLs the seed-chosen victim shard *mid-request*, and
  asserts: the in-flight request on the dead shard maps to 503
  ``not_ready`` + Retry-After (never a raw connection reset); reads of
  victim-owned keys fail over to the sibling; a stalled victim gets
  hedged within the latency budget; ``/ready`` reports the degraded
  keyspace partition while the shard is down; the supervisor restarts it
  within the modeled backoff bound; and a full-store digest sweep shows
  zero collateral corruption afterwards.

Everything the drill decides is a pure function of the seed (the clock is
injected and advanced manually; concurrent batches are order-normalized),
so re-running with the same seed produces a byte-identical event log —
CI runs it twice and compares digests. The report JSON carries the event
log, per-invariant verdicts, and a scrape of the live ``/metrics``
exporter proving the queue/breaker/shed gauges are exported.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.faults import FaultInjector, parse_fault_spec
from repro.obs import trace
from repro.obs.server import MetricsServer
from repro.service.app import ServiceConfig, ServiceServer
from repro.service.blobstore import BlobStore, shard_for_key
from repro.service.cluster import ClusterConfig, ClusterServer
from repro.service.schemas import encode_array

__all__ = ["DrillClock", "run_drill", "main"]

_SOUP_STEPS = 30
_BREAKER_COOLDOWN = 60.0
_CLUSTER_SHARDS = 2
_VICTIM_STALL = 0.6  # seconds every victim POST stalls (>> hedge budget)
_HEDGE_BUDGET = 0.15


class DrillClock:
    """A monotonic clock the drill advances by hand (determinism)."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------- #
def _request(port: int, method: str, path: str, doc: dict | None = None,
             headers: dict | None = None):
    """One HTTP exchange; returns (status | 'aborted', body-dict, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    body = None if doc is None else json.dumps(doc).encode("utf-8")
    try:
        conn.request(method, path, body=body,
                     headers=headers or {})
        resp = conn.getresponse()
        payload = resp.read()
        parsed = json.loads(payload) if payload else {}
        return resp.status, parsed, {k.lower(): v for k, v in resp.getheaders()}
    except (http.client.BadStatusLine, http.client.RemoteDisconnected,
            ConnectionError, OSError):
        return "aborted", {}, {}
    finally:
        conn.close()


def _field(step: int, shape=(6, 10, 20)) -> np.ndarray:
    """A small smooth climate-ish field, varied per step (distinct keys)."""
    z, y, x = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]),
                          np.arange(shape[2]), indexing="ij")
    return (np.sin(0.2 * x + 0.1 * step) * np.cos(0.3 * y)
            + 0.05 * z).astype(np.float32)


def _compress_doc(step: int, codec: str) -> dict:
    return {"codec": codec, "array": encode_array(_field(step)),
            "rel_eb": 1e-3, "chunks": 2}


class _Check:
    """Accumulates invariant verdicts; any failure fails the drill."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def status(self, label, actual, expected, reason=None, body=None) -> None:
        self.expect(actual == expected,
                    f"{label}: expected {expected}, got {actual} "
                    f"({(body or {}).get('error')})")
        if reason is not None and actual == expected:
            self.expect((body or {}).get("error") == reason,
                        f"{label}: expected reason {reason!r}, "
                        f"got {(body or {}).get('error')!r}")


# ---------------------------------------------------------------------- #
def _soup_phase(seed: int, root: Path, events: list, check: _Check) -> dict:
    """Mixed fault soup: model-predicted status for every request."""
    spec = (f"seed={seed};crash:p=0.3;bloberr:p=0.15;abort:p=0.15;"
            "stall:p=0.2:delay=0.02")
    injector = parse_fault_spec(spec)
    clock = DrillClock()
    server = ServiceServer(ServiceConfig(
        store_root=root / "soup", faults=injector, clock=clock,
        max_queue=4, rate=1000.0, burst=100000,
        breaker_threshold=10_000)).start()  # breakers tested in their own phase
    counts = {"aborted": 0, "codec_failure": 0, "blob_io": 0, "ok": 0}
    try:
        keys: list[str] = []
        op_counter = 0  # mirrors the blob store's op index
        index = 0  # mirrors the server's request sequence
        for step in range(_SOUP_STEPS):
            if step % 5 == 4 and keys:
                action, doc = "/decompress", {"key": keys[-1]}
            elif step % 3 == 2:
                action, doc = "/estimate", _compress_doc(step, "cliz")
            else:
                codec = "cliz" if step % 2 == 0 else "sz3"
                action, doc = "/compress", _compress_doc(step, codec)

            # The model: same pure functions the server consults.
            if injector.abort_request(index):
                expected, reason = "aborted", None
                counts["aborted"] += 1
            elif action == "/estimate":
                expected, reason = 200, None
            elif action == "/compress":
                if injector.job_faults("service.request",
                                       index).crash_attempts > 0:
                    expected, reason = 500, "codec_failure"
                    counts["codec_failure"] += 1
                else:
                    fails = injector.blob_error("write", op_counter)
                    op_counter += 1
                    if fails:
                        expected, reason = 503, "blob_io"
                        counts["blob_io"] += 1
                    else:
                        expected, reason = 200, None
            else:  # /decompress of a known-good key
                fails = injector.blob_error("read", op_counter)
                op_counter += 1
                if fails:
                    expected, reason = 503, "blob_io"
                    counts["blob_io"] += 1
                else:
                    expected, reason = 200, None

            status, body, _ = _request(server.port, "POST", action, doc,
                                       {"X-Client": "soup"})
            if expected == "aborted":
                check.status(f"soup[{index}] {action}", status, "aborted")
            else:
                check.status(f"soup[{index}] {action}", status, expected,
                             reason, body)
            if status == 200:
                counts["ok"] += 1
                if action == "/compress":
                    keys.append(body["key"])
            events.append({"phase": "soup", "index": index, "path": action,
                           "expected": expected, "status": status,
                           "reason": (body or {}).get("error")})
            index += 1

        intact = server.store.verify_all()
        check.expect(all(intact.values()),
                     f"soup: blob store corruption: "
                     f"{[k for k, ok in intact.items() if not ok]}")
        check.expect(counts["aborted"] > 0 and counts["codec_failure"] > 0
                     and counts["blob_io"] > 0 and counts["ok"] > 5,
                     f"soup: schedule did not exercise all fault kinds "
                     f"({counts})")
        health, body, _ = _request(server.port, "GET", "/health")
        check.status("soup /health", health, 200)
        check.expect(body.get("requests") == _SOUP_STEPS,
                     f"soup: /health reports {body.get('requests')} requests, "
                     f"expected {_SOUP_STEPS}")
    finally:
        server.stop()
    return {"spec": spec, "counts": counts}


def _breaker_phase(seed: int, root: Path, events: list, check: _Check) -> dict:
    """Trip, degrade, and recover the cliz breaker on an injected clock."""
    clock = DrillClock()
    injector = parse_fault_spec(f"seed={seed};crash:p=1:only=0")
    server = ServiceServer(ServiceConfig(
        store_root=root / "breaker", faults=injector, clock=clock,
        max_queue=4, rate=1000.0, burst=100000, breaker_threshold=1,
        breaker_cooldown=_BREAKER_COOLDOWN)).start()

    def post(label, path, doc, expected, reason=None, headers=None):
        status, body, hdrs = _request(server.port, "POST", path, doc,
                                      headers or {"X-Client": "breaker"})
        check.status(label, status, expected, reason, body)
        events.append({"phase": "breaker", "label": label, "path": path,
                       "expected": expected, "status": status,
                       "reason": (body or {}).get("error")})
        return body, hdrs

    try:
        # request 0: crash clause (only=0) kills the dispatch -> 500 + trip
        post("breaker trip", "/compress", _compress_doc(0, "cliz"),
             500, "codec_failure")
        status, body, _ = _request(server.port, "GET", "/ready")
        check.status("breaker /ready while open", status, 503, "not_ready",
                     body)
        check.expect(body.get("breakers", {}).get("cliz", {}).get("state")
                     == "open", "breaker: /ready does not show cliz open")
        # request 1: shed at the gate, machine-readable + Retry-After
        body, hdrs = post("breaker shed", "/compress",
                          _compress_doc(1, "cliz"), 503, "breaker_open")
        check.expect("retry-after" in hdrs,
                     "breaker: 503 is missing Retry-After")
        check.expect(0 < float(body.get("retry_after", -1))
                     <= _BREAKER_COOLDOWN,
                     f"breaker: retry_after {body.get('retry_after')} outside "
                     f"(0, {_BREAKER_COOLDOWN}]")
        # requests 2-3: degraded mode still serves estimate + healthy codecs
        post("breaker degraded estimate", "/estimate",
             _compress_doc(2, "cliz"), 200)
        post("breaker healthy codec", "/compress", _compress_doc(3, "sz3"),
             200)
        # recovery: advance past the cooldown; probe succeeds; closed again
        clock.advance(_BREAKER_COOLDOWN + 0.001)
        post("breaker probe", "/compress", _compress_doc(4, "cliz"), 200)
        post("breaker recovered", "/compress", _compress_doc(5, "cliz"), 200)
        status, body, _ = _request(server.port, "GET", "/ready")
        check.status("breaker /ready recovered", status, 200)
        check.expect(body.get("breakers", {}).get("cliz", {}).get("state")
                     == "closed", "breaker: cliz did not close after probe")
    finally:
        server.stop()
    return {"cooldown": _BREAKER_COOLDOWN}


def _salvage_phase(seed: int, root: Path, events: list, check: _Check) -> dict:
    """Bit rot on disk: digest-verified reads degrade to salvage, not 500s."""
    server = ServiceServer(ServiceConfig(
        store_root=root / "salvage", faults=FaultInjector([], seed=seed),
        max_queue=4, rate=1000.0, burst=100000)).start()

    def log(label, path, status, expected, body):
        events.append({"phase": "salvage", "label": label, "path": path,
                       "expected": expected, "status": status,
                       "reason": (body or {}).get("error")})

    try:
        doc = {"codec": "cliz", "array": encode_array(_field(7)),
               "rel_eb": 1e-3, "chunks": 4}
        status, body, _ = _request(server.port, "POST", "/compress", doc)
        check.status("salvage compress", status, 200)
        log("salvage compress", "/compress", status, 200, body)
        key = body["key"]

        status, body, _ = _request(server.port, "POST", "/decompress",
                                   {"key": key})
        check.status("salvage clean decompress", status, 200)
        check.expect(body.get("salvaged") is False,
                     "salvage: clean blob flagged as salvaged")
        log("clean decompress", "/decompress", status, 200, body)

        server.store.corrupt(key)  # one flipped bit, mid-blob, on disk

        status, body, _ = _request(server.port, "POST", "/decompress",
                                   {"key": key})
        check.status("salvage degraded decompress", status, 206, None, body)
        check.expect(body.get("salvaged") is True
                     and body.get("salvage_report", {}).get("failures"),
                     "salvage: 206 response lacks a salvage report")
        log("salvaged decompress", "/decompress", status, 206, body)

        status, body, _ = _request(server.port, "POST", "/decompress",
                                   {"key": key, "salvage": False})
        check.status("salvage declined", status, 502, "blob_corrupt", body)
        log("strict decompress", "/decompress", status, 502, body)

        status, body, _ = _request(server.port, "POST", "/decompress",
                                   {"key": "ab" * 20})
        check.status("salvage unknown key", status, 404, "not_found", body)
        log("unknown key", "/decompress", status, 404, body)

        intact = server.store.verify_all()
        damaged = sorted(k for k, ok in intact.items() if not ok)
        check.expect(damaged == [key],
                     f"salvage: damage not confined to the corrupted blob "
                     f"(damaged={damaged})")
    finally:
        server.stop()
    return {"corrupted_key": key}


def _overload_phase(seed: int, root: Path, events: list, check: _Check) -> dict:
    """Bounded queue, frozen token bucket, and explicit deadlines shed load."""
    clock = DrillClock()
    server = ServiceServer(ServiceConfig(
        store_root=root / "overload", faults=FaultInjector([], seed=seed),
        clock=clock, max_queue=2, rate=1.0, burst=4,
        default_deadline=30.0)).start()
    try:
        # fill the queue with two stalled requests, then shed the overflow
        stalled: list = [None, None]

        def slow(i):
            stalled[i] = _request(server.port, "POST", "/estimate",
                                  _compress_doc(20 + i, "cliz"),
                                  {"X-Client": f"fill{i}",
                                   "X-Drill-Stall": "0.8"})

        threads = [threading.Thread(target=slow, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:  # GET never consumes an index
            _, body, _ = _request(server.port, "GET", "/health")
            if body.get("queue", {}).get("depth", 0) >= 2:
                break
            time.sleep(0.02)
        status, body, hdrs = _request(server.port, "POST", "/estimate",
                                      _compress_doc(22, "cliz"),
                                      {"X-Client": "overflow"})
        check.status("overload queue_full", status, 429, "queue_full", body)
        check.expect("retry-after" in hdrs,
                     "overload: queue_full 429 missing Retry-After")
        events.append({"phase": "overload", "label": "queue_full",
                       "path": "/estimate", "expected": 429, "status": status,
                       "reason": (body or {}).get("error")})
        for t in threads:
            t.join()
        for i, result in enumerate(stalled):
            check.status(f"overload stalled[{i}]", result[0], 200)
        # order-normalized: both stalled entries are identical by design
        events.append({"phase": "overload", "label": "stalled-batch",
                       "statuses": sorted(r[0] for r in stalled)})

        # frozen bucket: burst of 4 tokens, no refill -> requests 5+ shed
        statuses = []
        for i in range(6):
            status, body, hdrs = _request(server.port, "POST", "/estimate",
                                          _compress_doc(30 + i, "cliz"),
                                          {"X-Client": "burst"})
            statuses.append(status)
        check.expect(statuses == [200, 200, 200, 200, 429, 429],
                     f"overload: rate-limit pattern {statuses}")
        check.expect((body or {}).get("error") == "rate_limited",
                     "overload: final shed is not reason rate_limited")
        check.expect("retry-after" in hdrs,
                     "overload: rate_limited 429 missing Retry-After")
        events.append({"phase": "overload", "label": "rate-limit",
                       "statuses": statuses})

        # explicit deadline: stall past it -> 504, work never ran
        status, body, _ = _request(server.port, "POST", "/compress",
                                   _compress_doc(40, "cliz"),
                                   {"X-Client": "deadline",
                                    "X-Deadline": "0.01",
                                    "X-Drill-Stall": "0.1"})
        check.status("overload deadline", status, 504, "deadline_exceeded",
                     body)
        events.append({"phase": "overload", "label": "deadline",
                       "path": "/compress", "expected": 504, "status": status,
                       "reason": (body or {}).get("error")})

        # request hygiene: 400 / 404 / 405 are classified, not 500s
        status, body, _ = _request(server.port, "POST", "/compress",
                                   {"codec": "nope"}, {"X-Client": "bad"})
        check.status("overload bad codec", status, 400, "bad_request", body)
        status, body, _ = _request(server.port, "POST", "/nothing", {})
        check.status("overload unknown path", status, 404, "not_found", body)
        status, body, _ = _request(server.port, "GET", "/compress")
        check.status("overload wrong method", status, 405)
        events.append({"phase": "overload", "label": "hygiene",
                       "statuses": [400, 404, 405]})
    finally:
        server.stop()
    return {}


def _fetch_text(port: int, path: str) -> str:
    """GET a plain-text endpoint (``/metrics`` is not JSON)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


def _shardkill_phase(seed: int, root: Path, events: list,
                     check: _Check) -> dict:
    """Kill a shard mid-request; assert classified failure + bounded recovery.

    Every decision is deterministic: the victim is the pure seeded
    ``shardkill`` fault function; blob keys (hence ring ownership) depend
    only on the drilled field contents; round-robin placement follows the
    fixed request sequence. Events record statuses and roles, never
    timings, ports, or pids.
    """
    injector = parse_fault_spec(f"seed={seed};shardkill:p=1")
    victim = injector.shard_kill(0, n_shards=_CLUSTER_SHARDS)
    check.expect(victim is not None, "shardkill: seeded clause did not fire")
    sibling = (victim + 1) % _CLUSTER_SHARDS
    events.append({"phase": "shardkill", "label": "victim-chosen",
                   "n_shards": _CLUSTER_SHARDS})

    cluster = ClusterServer(ClusterConfig(
        n_shards=_CLUSTER_SHARDS, store_root=root / "cluster",
        max_queue=8, rate=1000.0, burst=100000,
        probe_interval=0.1, probe_fail_threshold=3,
        backoff_base=0.5, backoff_cap=1.0,
        start_timeout=20.0, max_restarts=5, restart_window=60.0,
        hedge_budget=_HEDGE_BUDGET, drain_deadline=5.0,
        # the victim stalls every POST: slow enough to hedge around, and
        # a guaranteed in-flight window for the mid-request SIGKILL
        shard_fault_specs={
            victim: f"seed={seed};stall:p=1:delay={_VICTIM_STALL}"},
    )).start()

    def post(label, path, doc, expected, reason=None):
        status, body, hdrs = _request(cluster.port, "POST", path, doc,
                                      {"X-Client": "shardkill"})
        check.status(label, status, expected, reason, body)
        events.append({"phase": "shardkill", "label": label, "path": path,
                       "expected": expected, "status": status,
                       "reason": (body or {}).get("error")})
        return body, hdrs

    try:
        # ---- seed the keyspace until both partitions own a key -------- #
        keys: list[str] = []
        step = 0
        while step < 12 and (
                not keys
                or len({shard_for_key(k, _CLUSTER_SHARDS)
                        for k in keys}) < _CLUSTER_SHARDS):
            body, _ = post(f"compress[{step}]", "/compress",
                           _compress_doc(50 + step, "cliz"), 200)
            if body.get("key"):
                keys.append(body["key"])
            step += 1
        owners = {shard_for_key(k, _CLUSTER_SHARDS) for k in keys}
        check.expect(owners == set(range(_CLUSTER_SHARDS)),
                     f"shardkill: keyspace not spread ({len(owners)} of "
                     f"{_CLUSTER_SHARDS} partitions own a key)")
        vkey = next(k for k in keys
                    if shard_for_key(k, _CLUSTER_SHARDS) == victim)

        # ---- owner routing: everything reads back through the router -- #
        for i, key in enumerate(keys):
            post(f"read[{i}]", "/decompress", {"key": key}, 200)

        # ---- hedging: a stalled owner is outrun by its sibling -------- #
        status, body, hdrs = _request(cluster.port, "POST", "/decompress",
                                      {"key": vkey},
                                      {"X-Client": "shardkill"})
        check.status("hedge", status, 200, None, body)
        served = hdrs.get("x-repro-shard")
        check.expect(served == str(sibling),
                     f"hedge: served by shard {served!r}, expected the "
                     f"sibling (victim stalls {_VICTIM_STALL}s, budget "
                     f"{_HEDGE_BUDGET}s)")
        events.append({"phase": "shardkill", "label": "hedge",
                       "status": status,
                       "served_by": "sibling" if served == str(sibling)
                       else "other"})

        # ---- steer round-robin so the next compress hits the victim --- #
        for attempt in range(_CLUSTER_SHARDS):
            _, hdrs = post(f"steer[{attempt}]", "/compress",
                           _compress_doc(70 + attempt, "cliz"), 200)
            if hdrs.get("x-repro-shard") == str(sibling):
                break

        # ---- SIGKILL the victim mid-request --------------------------- #
        inflight: dict = {}

        def racing():
            inflight["resp"] = _request(
                cluster.port, "POST", "/compress",
                _compress_doc(90, "cliz"), {"X-Client": "race"})

        racer = threading.Thread(target=racing)
        racer.start()
        time.sleep(_VICTIM_STALL / 2)  # surely in flight, surely not done
        t_kill = time.monotonic()
        pid = cluster.supervisor.kill(victim)
        check.expect(pid is not None, "shardkill: no victim process to kill")
        racer.join(timeout=30.0)
        status, body, hdrs = inflight["resp"]
        check.status("kill-inflight", status, 503, "not_ready", body)
        check.expect(status != "aborted",
                     "shardkill: in-flight request saw a raw connection "
                     "reset instead of a classified 503")
        check.expect("retry-after" in hdrs,
                     "shardkill: in-flight 503 is missing Retry-After")
        events.append({"phase": "shardkill", "label": "kill-inflight",
                       "expected": 503, "status": status,
                       "reason": (body or {}).get("error"),
                       "retry_after_present": "retry-after" in hdrs})

        # ---- reads of victim-owned keys fail over to the sibling ------ #
        post("failover-read", "/decompress", {"key": vkey}, 200)

        # ---- /ready reports the degraded keyspace --------------------- #
        saw_degraded = False
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            status, body, hdrs = _request(cluster.port, "GET", "/ready")
            if status == 503 and body.get("error") == "not_ready":
                saw_degraded = bool(body.get("reasons"))
                break
            time.sleep(0.02)
        check.expect(saw_degraded,
                     "shardkill: /ready never reported the dead shard's "
                     "keyspace partition as degraded")
        events.append({"phase": "shardkill", "label": "ready-degraded",
                       "expected": 503, "status": 503 if saw_degraded
                       else "never", "reason": "not_ready"})

        # ---- supervisor restarts within the modeled backoff ----------- #
        bound = cluster.supervisor.max_recovery_seconds()
        recovered = False
        while time.monotonic() - t_kill < bound:
            status, body, _ = _request(cluster.port, "GET", "/ready")
            if status == 200:
                recovered = True
                break
            time.sleep(0.05)
        check.expect(recovered,
                     f"shardkill: victim not healthy again within the "
                     f"modeled {bound:.1f}s recovery bound")
        events.append({"phase": "shardkill", "label": "restart",
                       "recovered_within_model": recovered})

        # ---- the reborn shard serves; the whole keyspace reads -------- #
        for i, key in enumerate(keys):
            post(f"post-restart read[{i}]", "/decompress", {"key": key}, 200)

        # ---- zero collateral corruption ------------------------------- #
        intact = BlobStore(root / "cluster").verify_all()
        damaged = sorted(k for k, ok in intact.items() if not ok)
        check.expect(not damaged,
                     f"shardkill: collateral blob corruption: {damaged}")
        check.expect(set(keys) <= set(intact),
                     "shardkill: compressed keys missing from the store")
        events.append({"phase": "shardkill", "label": "verify-all",
                       "damaged": damaged, "keys_present": True})

        # ---- cluster telemetry: one scrape covers the fleet ----------- #
        text = _fetch_text(cluster.port, "/metrics")
        wanted = ["repro_service_cluster_shard_state",
                  "repro_service_cluster_shard_restarts_total",
                  "repro_service_cluster_restarts_total",
                  "repro_service_cluster_hedges_total"]
        missing = [w for w in wanted if w not in text]
        check.expect(not missing,
                     f"shardkill: /metrics missing families: {missing}")
        status, body, _ = _request(cluster.port, "GET", "/health")
        check.status("cluster /health", status, 200)
        check.expect(len(body.get("shards", [])) == _CLUSTER_SHARDS
                     and "backoff_model" in body,
                     "shardkill: /health lacks shard table or backoff model")
        events.append({"phase": "shardkill", "label": "telemetry",
                       "metrics_missing": missing})
        restarts = sum(r["restarts"] for r in cluster.supervisor.table())
    finally:
        cluster.stop()
    return {"n_shards": _CLUSTER_SHARDS, "keys": len(keys),
            "restarts": restarts,
            "backoff_model": cluster.supervisor.backoff_model()}


def _metrics_exposition(check: _Check) -> dict:
    """The live gauges must be visible on the existing /metrics exporter."""
    exporter = MetricsServer(port=0).start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", exporter.port,
                                          timeout=10)
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
        conn.close()
    finally:
        exporter.stop()
    wanted = ["service_queue_depth", "service_breaker_cliz", "service_shed",
              "service_http_429"]
    missing = [w for w in wanted if w not in text]
    check.expect(not missing, f"/metrics scrape missing gauges: {missing}")
    return {"scraped_bytes": len(text), "missing": missing}


# ---------------------------------------------------------------------- #
#: All drill phases, in run order. The default set excludes ``shardkill``
#: (it spawns real shard processes); select it with ``--phases``.
_PHASE_FNS = {
    "soup": _soup_phase,
    "breaker": _breaker_phase,
    "salvage": _salvage_phase,
    "overload": _overload_phase,
    "shardkill": _shardkill_phase,
}
_DEFAULT_PHASES = ("soup", "breaker", "salvage", "overload")


def run_drill(seed: int = 9, report_path: str | None = None,
              verbose: bool = True,
              phases: tuple[str, ...] | None = None) -> tuple[int, dict]:
    """Run the drill; returns (exit code, report dict).

    ``phases`` selects a subset by name (default: every single-process
    phase; pass ``("shardkill",)`` for the cluster kill drill, or any
    combination — run order always follows :data:`_PHASE_FNS`).
    """
    selected = _DEFAULT_PHASES if phases is None else tuple(phases)
    unknown = [p for p in selected if p not in _PHASE_FNS]
    if unknown or not selected:
        raise ValueError(
            f"unknown drill phases {unknown}; known: {list(_PHASE_FNS)}")
    own_run = trace.get_run() is None
    if own_run:
        trace.start_run(tags={"command": "service.drill", "seed": str(seed)})
    check = _Check()
    events: list[dict] = []
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-drill-") as tmp:
        root = Path(tmp)
        phase_reports = {
            name: fn(seed, root, events, check)
            for name, fn in _PHASE_FNS.items() if name in selected
        }
    if all(p in selected for p in _DEFAULT_PHASES):
        # the gauge families the scrape asserts are spread across the
        # in-process phases (shed/429 come from overload, breaker state
        # from breaker, ...), so only a full default run can satisfy it
        phase_reports["metrics"] = _metrics_exposition(check)
    if own_run:
        trace.end_run()
    event_digest = hashlib.sha256(
        json.dumps(events, sort_keys=True).encode("utf-8")).hexdigest()
    report = {
        "seed": seed,
        "ok": not check.failures,
        "invariants_passed": check.passed,
        "failures": check.failures,
        "phases_run": list(selected),
        "phases": phase_reports,
        "events": events,
        "event_digest": event_digest,
        "wall_seconds": round(time.monotonic() - t0, 3),
    }
    if report_path:
        from repro.runtime import atomic_write

        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        atomic_write(report_path, json.dumps(report, indent=2,
                                             sort_keys=True) + "\n")
    if verbose:
        print(f"drill seed={seed}: {check.passed} invariant checks passed, "
              f"{len(check.failures)} failed; event digest {event_digest[:16]}")
        for failure in check.failures:
            print(f"  FAIL: {failure}")
    return (0 if not check.failures else 1), report


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-service-drill",
        description="deterministic chaos drill against the live service")
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write the drill report JSON here")
    parser.add_argument("--phases", default=None, metavar="P1,P2",
                        help="comma-separated phase subset "
                             f"(known: {','.join(_PHASE_FNS)})")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    phases = None
    if args.phases:
        phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    code, _ = run_drill(seed=args.seed, report_path=args.report,
                        verbose=not args.quiet, phases=phases)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
