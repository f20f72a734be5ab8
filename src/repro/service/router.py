"""Cluster front door: one port, N shards, no raw connection resets.

The :class:`ClusterRouter` is a thin asyncio proxy exposing the exact
single-process service API (``/compress`` ``/decompress`` ``/estimate``
``/health`` ``/ready`` plus ``/metrics``) while fanning work out to the
shard processes a :class:`~repro.service.supervise.ShardSupervisor`
keeps alive:

* ``/decompress`` routes by **keyspace ownership**: the blob key's ring
  owner serves the read, falling back along
  :meth:`~repro.service.blobstore.KeyRing.successors` when the owner is
  down (any shard can read any blob — the store root is shared — so
  failover costs nothing but locality).
* ``/compress`` and ``/estimate`` route **round-robin** over healthy
  shards (a blob's key is unknowable before compression; content
  addressing makes any placement correct).
* **Hedging**: the idempotent endpoints (``/decompress``,
  ``/estimate``) that sit on a slow shard past ``hedge_budget`` seconds
  get a second copy sent to the next candidate; first response wins and
  the loser is cancelled. ``/compress`` is never hedged — it is
  idempotent too, but duplicating codec work to dodge latency is a poor
  trade, and the chaos drill needs exactly-one-shard semantics for it.
* Every transport-level failure against a shard (connection refused
  mid-restart, reset mid-SIGKILL, timeout) surfaces as a classified
  :class:`~repro.service.schemas.ShardUnavailableError` — 503 +
  ``Retry-After`` derived from the supervisor's backoff model — never a
  raw reset to the client.

The router never runs codec work and never blocks its loop: forwarding
is pure stream I/O, and every supervisor call it makes is a
snapshot/flag under a lock.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.obs import inc_counter, set_gauge, trace
from repro.obs.prom import CONTENT_TYPE, render_run, sanitize_metric_name
from repro.runtime.http import (
    HttpServer,
    Request,
    Response,
    frame_request,
    json_body,
    json_response,
    read_response,
    retry_after_header,
)
from repro.service.blobstore import KeyRing
from repro.service.schemas import (
    NotFoundError,
    ServiceError,
    ShardUnavailableError,
)
from repro.service.supervise import ShardSupervisor

__all__ = ["ClusterRouter", "do_forward"]

#: Response headers relayed from shard to client (all else is hop-local).
_RELAY_HEADERS = ("content-type", "retry-after", "x-repro-shard")
#: Endpoints safe to hedge/fail over: repeating one changes nothing.
_IDEMPOTENT = frozenset({"/decompress", "/estimate"})
_WORK_PATHS = ("/compress", "/decompress", "/estimate")
#: Upper bound on one router -> shard forward.
_FORWARD_TIMEOUT = 60.0


async def do_forward(port: int, method: str, path: str,
                     headers: dict[str, str], body: bytes, *,
                     timeout: float = 30.0,
                     host: str = "127.0.0.1") -> tuple[int, dict, bytes]:
    """Forward one request to a shard; ``(status, headers, body)`` back.

    The cluster's declared transport translation: a connection refused,
    reset, short read, malformed response, or timeout while talking to
    the shard raises :class:`ShardUnavailableError` — the caller decides
    whether to fail over, hedge, or surface the 503.
    """
    try:
        return await asyncio.wait_for(
            _forward_raw(host, port, method, path, headers, body),
            timeout=timeout)
    except (ConnectionError, EOFError, OSError, ValueError) as exc:
        raise ShardUnavailableError(
            f"shard on port {port} failed mid-request: "
            f"{type(exc).__name__}: {exc}") from exc
    except (asyncio.TimeoutError, TimeoutError) as exc:
        raise ShardUnavailableError(
            f"shard on port {port} did not answer within {timeout}s"
        ) from exc


async def _forward_raw(host, port, method, path, headers, body):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(frame_request(method, path, f"{host}:{port}",
                                   headers, body))
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ClusterRouter(HttpServer):
    """Threaded-asyncio router over a supervised shard fleet.

    The lifecycle is :class:`repro.runtime.http.HttpServer`'s; ``stop()``
    drains in-flight forwards for at most the supervisor's
    ``drain_deadline``.
    """

    thread_name = "repro-cluster-router"

    def __init__(self, supervisor: ShardSupervisor, *,
                 host: str = "127.0.0.1", port: int = 0,
                 hedge_budget: float = 0.25) -> None:
        super().__init__(host, port, self._dispatch,
                         drain_seconds=supervisor.drain_deadline)
        self.supervisor = supervisor
        self.ring = KeyRing(supervisor.n_shards)
        self.hedge_budget = float(hedge_budget)
        self._rr = 0  # loop-thread only
        self._draining = False
        self._t0 = time.monotonic()

    def drain(self) -> None:
        """Start refusing new work (503 + Retry-After) without stopping."""
        self._draining = True

    def _error_response(self, exc: Exception) -> Response:
        if isinstance(exc, ServiceError):
            return self._render_error(exc)
        # a router bug must degrade to a 500 body, never a dropped
        # connection
        inc_counter("service.cluster.http.500")
        doc = {"error": "internal", "status": 500,
               "message": f"{type(exc).__name__}: {exc}"}
        return 500, [("Content-Type", "application/json")], json_body(doc)

    @staticmethod
    def _render_error(err: ServiceError) -> Response:
        inc_counter(f"service.cluster.http.{err.status}")
        return json_response(
            err.status, err.to_dict(),
            [] if err.retry_after is None
            else [retry_after_header(err.retry_after)])

    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: Request) -> Response:
        """Route one request; a raised ServiceError renders as its status."""
        method, path, headers, body = request
        if path in ("/health", "/ready", "/metrics"):
            if method != "GET":
                return json_response(405, {
                    "error": "method_not_allowed",
                    "message": f"{path} only supports GET"})
            if path == "/metrics":
                return (200, [("Content-Type", CONTENT_TYPE)],
                        self._metrics_text().encode("utf-8"))
            return self._health(path)
        if path not in _WORK_PATHS:
            raise NotFoundError(
                f"unknown path {path!r}; try /compress, /decompress, "
                "/estimate, /health, /ready, /metrics")
        if method != "POST":
            return json_response(405, {
                "error": "method_not_allowed",
                "message": f"{path} only supports POST"})
        if self._draining:
            raise ShardUnavailableError(
                "cluster is draining; no new work accepted",
                retry_after=5.0)
        status, resp_headers, payload = await self._route(
            method, path, headers, body)
        inc_counter(f"service.cluster.http.{status}")
        return status, [(name.title(), resp_headers[name])
                        for name in _RELAY_HEADERS
                        if name in resp_headers], payload

    # ------------------------------------------------------------------ #
    def _candidates(self, path: str, body: bytes) -> list[int]:
        """Forward order for one request: owner-first or round-robin."""
        healthy = set(self.supervisor.healthy_shards())
        if path == "/decompress":
            key = self._key_from_body(body)
            if key is not None:
                order = self.ring.successors(key)
                return [s for s in order if s in healthy]
        n = self.supervisor.n_shards
        start = self._rr
        self._rr = (self._rr + 1) % n
        return [s for s in ((start + i) % n for i in range(n))
                if s in healthy]

    @staticmethod
    def _key_from_body(body: bytes) -> str | None:
        """The blob key a /decompress body names, if parseable.

        Unparseable bodies route round-robin and let the shard render
        the authoritative 400 — the router never rejects requests.
        """
        try:
            doc = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return None
        key = doc.get("key") if isinstance(doc, dict) else None
        return key if isinstance(key, str) and key else None

    async def _route(self, method, path, headers, body):
        candidates = self._candidates(path, body)
        if not candidates:
            raise ShardUnavailableError(
                "no healthy shard available",
                retry_after=self.supervisor.retry_after_hint(),
                detail={"degraded": self.supervisor.degraded_partitions()})
        primary, rest = candidates[0], candidates[1:]
        try:
            if path in _IDEMPOTENT and rest and self.hedge_budget > 0:
                return await self._forward_hedged(
                    primary, rest[0], method, path, headers, body)
            return await self._forward_once(
                primary, method, path, headers, body)
        except ShardUnavailableError:
            self.supervisor.note_failure(primary)
            if path in _IDEMPOTENT:
                for backup in rest:
                    try:
                        resp = await self._forward_once(
                            backup, method, path, headers, body)
                    except ShardUnavailableError:
                        self.supervisor.note_failure(backup)
                        continue
                    inc_counter("service.cluster.failovers")
                    return resp
            raise ShardUnavailableError(
                f"shard {primary} failed mid-request"
                + ("" if path in _IDEMPOTENT
                   else "; retry the non-idempotent request"),
                retry_after=self.supervisor.retry_after_hint(primary),
                detail={"shard": primary}) from None

    async def _forward_once(self, shard, method, path, headers, body):
        port = self.supervisor.shard_port(shard)
        if port is None:
            raise ShardUnavailableError(f"shard {shard} is not serving")
        inc_counter(f"service.cluster.forward.{shard}")
        return await do_forward(port, method, path, headers, body,
                                timeout=_FORWARD_TIMEOUT)

    async def _forward_hedged(self, primary, backup, method, path,
                              headers, body):
        """Primary forward, hedged to ``backup`` past the latency budget.

        First completed *successful* forward wins; the loser is
        cancelled. Both failing re-raises the primary's error into the
        normal failover path.
        """
        first = asyncio.ensure_future(self._forward_once(
            primary, method, path, headers, body))
        done, _ = await asyncio.wait({first}, timeout=self.hedge_budget)
        if done:
            return first.result()  # fast path; raises into failover
        inc_counter("service.cluster.hedges")
        second = asyncio.ensure_future(self._forward_once(
            backup, method, path, headers, body))
        pending = {first, second}
        failure: ShardUnavailableError | None = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED)
                for task in done:
                    try:
                        result = task.result()
                    except ShardUnavailableError as exc:
                        loser = primary if task is first else backup
                        self.supervisor.note_failure(loser)
                        failure = failure or exc
                        continue
                    if task is second:
                        inc_counter("service.cluster.hedge_wins")
                    return result
            raise failure if failure is not None else ShardUnavailableError(
                f"hedged forward to shards {primary}/{backup} failed")
        finally:
            for task in (first, second):
                if not task.done():
                    task.cancel()

    # ------------------------------------------------------------------ #
    def _health(self, path: str) -> Response:
        table = self.supervisor.table()
        degraded = self.supervisor.degraded_partitions()
        set_gauge("service.cluster.degraded", float(len(degraded)))
        doc = {
            "status": "ok" if not degraded else "degraded",
            "role": "router",
            "uptime_seconds": round(time.monotonic() - self._t0, 3),
            "shards": table,
            "backoff_model": self.supervisor.backoff_model(),
            "draining": self._draining,
        }
        if path == "/health" or not (degraded or self._draining):
            return json_response(200, doc)
        doc["error"] = "not_ready"
        doc["reasons"] = (["draining"] if self._draining else []) + [
            f"shard {i} {table[i]['state']}: keyspace partition "
            f"{i}/{self.supervisor.n_shards} degraded" for i in degraded]
        return json_response(
            503, doc, [retry_after_header(self.supervisor.retry_after_hint())])

    def _metrics_text(self) -> str:
        """Router-process metrics plus per-shard labeled aggregates.

        The labeled families are synthesized from the supervisor's
        cached shard health docs, so one scrape of the router covers the
        fleet: state, restarts, request and blob counts per shard.
        """
        out = [render_run(trace.get_run())]
        rows = self.supervisor.table()
        fams = [
            ("service.cluster.shard.state", "gauge", "state",
             "supervision state code (0 stopped..5 dead)"),
            ("service.cluster.shard.restarts", "counter", "restarts",
             "respawns of this shard slot"),
            ("service.cluster.shard.requests", "gauge", "requests",
             "requests served, from the shard's own /health"),
            ("service.cluster.shard.blobs", "gauge", "blobs",
             "blobs visible to the shard's store"),
        ]
        from repro.service.supervise import STATE_CODES
        for series, kind, field, help_text in fams:
            name = sanitize_metric_name(series, "repro_")
            if kind == "counter":
                name += "_total"
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {kind}")
            for row in rows:
                value = (STATE_CODES[row["state"]] if field == "state"
                         else row.get(field))
                if value is None:
                    continue
                out.append(f'{name}{{shard="{row["index"]}"}} '
                           f"{float(value):g}")
        return "\n".join(out) + "\n"
