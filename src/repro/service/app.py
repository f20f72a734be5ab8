"""The compression service: a stdlib-asyncio HTTP app, hardened end-to-end.

Request lifecycle for the work endpoints (``POST /compress``,
``POST /decompress``, ``POST /estimate``)::

    accept -> [abort fault?] -> admission (rate gate, queue bound)
           -> breaker gate (compress only) -> stall fault / deadline check
           -> handler on a worker thread (deadline propagated into
              repro.parallel dispatch) -> breaker record -> respond

Failures never escape as raw tracebacks: every error path maps to a
:class:`~repro.service.schemas.ServiceError` with a documented status and
machine-readable ``reason`` slug (see ``docs/SERVICE.md``). ``GET
/health`` and ``GET /ready`` expose breaker, queue, and blob-store state;
the numbers behind them are ordinary :mod:`repro.obs` gauges, so an
exporter started with ``--serve-metrics`` scrapes the same truth.

Determinism for chaos drills: only the three POST endpoints consume a
request index (monotonic per server), and every injected fault decision
is a pure function of ``(seed, kind, index)`` — GET polling between
phases never shifts the schedule.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from repro import _CODEC_NAMES
from repro.faults import FaultInjector, parse_fault_spec
from repro.obs import inc_counter, observe_latency, set_gauge
from repro.runtime.http import (
    HttpServer,
    Request,
    Response,
    json_response,
    retry_after_header,
)
from repro.service.admission import AdmissionController
from repro.service.blobstore import BlobStore
from repro.service.breakers import BreakerBoard
from repro.service.handlers import do_compress, do_decompress, do_estimate
from repro.service.schemas import (
    BadRequestError,
    BreakerOpenError,
    CodecFailureError,
    CompressRequest,
    DeadlineError,
    DecompressRequest,
    EstimateRequest,
    NotFoundError,
    ServiceError,
)

__all__ = ["ServiceConfig", "ServiceServer"]

_KNOWN_CODECS = tuple(_CODEC_NAMES)


@dataclass
class ServiceConfig:
    """Tunables for one :class:`ServiceServer`, each declared only here."""

    host: str = "127.0.0.1"
    port: int = 0
    store_root: str | Path = "blobstore"
    max_queue: int = 8
    rate: float = 50.0  # steady-state requests/second per client
    burst: int = 20
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    default_deadline: float = 30.0  # seconds; X-Deadline overrides
    drain_deadline: float = 10.0  # stop(): max seconds to finish in-flight
    partition: tuple[int, int] | None = None  # (shard index, shard count)
    faults: FaultInjector | None = None
    clock: object = None  # injectable monotonic clock (drills)

    def to_json(self) -> str:
        """Every tunable but port, partition and clock; faults as a spec."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("port", "partition", "clock")}
        doc["store_root"] = str(self.store_root)
        doc["faults"] = None if self.faults is None else self.faults.describe()
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, *,
                  partition: tuple[int, int] | None = None) -> "ServiceConfig":
        """Inverse of :meth:`to_json`; the shard binds an ephemeral port."""
        doc = json.loads(text)
        spec = doc.pop("faults", None)
        return cls(**doc, partition=partition, faults=parse_fault_spec(spec) if spec else None)


class ServiceServer(HttpServer):
    """Threaded-asyncio compression service.

    ``port=0`` binds an ephemeral port; read ``.port`` after
    :meth:`start`. The lifecycle and the drain bounded by
    ``drain_deadline`` are :class:`repro.runtime.http.HttpServer`'s. All
    codec work runs on a bounded thread pool so the event loop only ever
    parses requests and writes responses.
    """

    thread_name = "repro-service"

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        super().__init__(self.config.host, self.config.port, self._dispatch,
                         drain_seconds=self.config.drain_deadline)
        clock = self.config.clock
        self.store = BlobStore(self.config.store_root,
                               faults=self.config.faults,
                               partition=self.config.partition)
        self.admission = AdmissionController(
            max_queue=self.config.max_queue, rate=self.config.rate,
            burst=self.config.burst, clock=clock)
        self.breakers = BreakerBoard(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown, clock=clock)
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._t0 = time.monotonic()

    async def _serve(self) -> int:
        # the worker pool lives exactly as long as the loop, drain included
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_queue,
            thread_name_prefix="repro-service-worker")
        try:
            cut_off = await super()._serve()
        finally:
            self._executor.shutdown(wait=True)
        if cut_off:
            inc_counter("service.drain.deadline_hit")
        return cut_off

    def _next_index(self) -> int:
        with self._seq_lock:
            index = self._seq
            self._seq += 1
            return index

    def _reply(self, status: int, doc: dict,
               headers: Iterable[tuple[str, str]] = ()) -> Response:
        if self.config.partition is not None:
            # which shard served: the cluster router relays this so
            # drills and operators can see routing decisions.
            headers = [*headers,
                       ("X-Repro-Shard", str(self.config.partition[0]))]
        return json_response(status, doc, headers)

    def _error_response(self, exc: Exception) -> Response:
        inc_counter("service.http.500")
        return self._reply(500, {"error": "internal", "status": 500,
                                 "message": f"{type(exc).__name__}: {exc}"})

    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: Request) -> Response | None:
        """Route one request; ``None`` drops the connection."""
        method, path, headers, body = request
        if path in ("/health", "/ready"):
            if method != "GET":
                return self._reply(405, {
                    "error": "method_not_allowed",
                    "message": f"{path} only supports GET"})
            return self._reply(*self._health(path))
        if path not in ("/compress", "/decompress", "/estimate"):
            err = NotFoundError(
                f"unknown path {path!r}; try /compress, /decompress, "
                "/estimate, /health, /ready")
            return self._reply(err.status, err.to_dict())
        if method != "POST":
            return self._reply(405, {
                "error": "method_not_allowed",
                "message": f"{path} only supports POST"})

        index = self._next_index()
        faults = self.config.faults
        if faults is not None and faults.abort_request(index):
            inc_counter("service.aborted")
            return None  # injected client abort: vanish without a response

        client = headers.get("x-client") or "anon"
        try:
            self.admission.admit(client)
        except ServiceError as err:
            inc_counter(f"service.http.{err.status}")
            return self._reply(err.status, err.to_dict(),
                               self._retry_headers(err))
        try:
            status, doc, extra = await self._process(
                index, path, headers, body)
        finally:
            self.admission.release()
        inc_counter(f"service.http.{status}")
        return self._reply(status, doc, extra)

    def _retry_headers(self, err: ServiceError) -> list[tuple[str, str]]:
        if err.retry_after is None:
            return []
        return [retry_after_header(err.retry_after)]

    # ------------------------------------------------------------------ #
    async def _process(self, index, path, headers, body):
        """Run one admitted work request on the worker pool."""
        t_start = time.monotonic()
        try:
            deadline = self._deadline_from(headers)
            doc = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(doc, dict):
                raise BadRequestError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError, ServiceError) as exc:
            err = exc if isinstance(exc, ServiceError) else \
                BadRequestError(f"request body is not valid JSON: {exc}")
            return err.status, err.to_dict(), []
        deadline_at = t_start + deadline

        stall = 0.0
        if self.config.faults is not None:
            stall = self.config.faults.handler_delay(index)
            drill_stall = headers.get("x-drill-stall")
            if drill_stall:
                try:
                    stall = max(stall, float(drill_stall))
                except ValueError:
                    pass
        breaker = None
        try:
            if path == "/compress":
                req = CompressRequest.from_doc(doc, _KNOWN_CODECS)
                breaker = self.breakers.for_codec(req.codec)
                if not breaker.allow():
                    breaker = None  # denied: nothing to record
                    raise BreakerOpenError(
                        f"codec {req.codec!r} is circuit-broken "
                        "(recent consecutive failures); degraded mode — "
                        "/estimate and other codecs keep serving",
                        retry_after=self.breakers.for_codec(req.codec)
                        .retry_after(),
                        detail={"codec": req.codec})
                result = await self._run_worker(
                    lambda left: do_compress(
                        req, self.store, deadline=left,
                        faults=self._codec_faults(index)),
                    stall, deadline_at)
            elif path == "/decompress":
                dreq = DecompressRequest.from_doc(doc)
                result = await self._run_worker(
                    lambda left: do_decompress(dreq, self.store,
                                               deadline=left),
                    stall, deadline_at)
            else:  # /estimate — no breaker gate: serves in degraded mode
                ereq = EstimateRequest.from_doc(doc, _KNOWN_CODECS)
                result = await self._run_worker(
                    lambda left: do_estimate(ereq, deadline=left),
                    stall, deadline_at)
        except ServiceError as err:
            if breaker is not None:
                # only codec ill-health trips the breaker; deadline and
                # blob trouble are load/storage signals, not codec ones.
                breaker.record(not isinstance(err, CodecFailureError))
            observe_latency("service.request_seconds",
                            time.monotonic() - t_start)
            return err.status, err.to_dict(), self._retry_headers(err)
        if breaker is not None:
            breaker.record(True)
        observe_latency("service.request_seconds", time.monotonic() - t_start)
        status = 206 if result.get("salvaged") else 200
        return status, result, []

    def _deadline_from(self, headers) -> float:
        raw = headers.get("x-deadline")
        if raw is None:
            return float(self.config.default_deadline)
        try:
            deadline = float(raw)
        except ValueError:
            raise BadRequestError(
                f"X-Deadline must be seconds, got {raw!r}") from None
        if deadline <= 0:
            raise BadRequestError("X-Deadline must be positive seconds")
        return deadline

    def _codec_faults(self, index: int) -> FaultInjector | None:
        """Worker-crash injection, gated per *request* index.

        ``crash`` clauses decide per request (scope ``"service.request"``)
        whether this request's dispatch gets a crashing injector — one
        whose workers die on every attempt, so the failure is permanent
        and the drill can predict exactly which request indices fail.
        """
        faults = self.config.faults
        if faults is None:
            return None
        if faults.job_faults("service.request", index).crash_attempts <= 0:
            return None
        return FaultInjector([("crash", {"p": 1.0, "attempts": 99})],
                             seed=faults.seed)

    async def _run_worker(self, fn, stall: float, deadline_at: float):
        """Run ``fn(remaining_deadline)`` on the pool, stalling first."""
        def work():
            if stall > 0:
                inc_counter("service.stalled")
                time.sleep(stall)
            left = deadline_at - time.monotonic()
            if left <= 0:
                inc_counter("service.deadline_expired")
                raise DeadlineError(
                    "request deadline expired before work started")
            return fn(left)

        return await self._loop.run_in_executor(self._executor, work)

    # ------------------------------------------------------------------ #
    def _health(self, path: str):
        breakers = self.breakers.snapshot()
        queue = self.admission.snapshot()
        open_codecs = sorted(c for c, s in breakers.items()
                             if s["state"] != "closed")
        set_gauge("service.breakers.open", float(len(open_codecs)))
        doc = {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._t0, 3),
            "requests": self._seq,
            "queue": queue,
            "breakers": breakers,
            "blobs": self.store.count(),
            "faults": None if self.config.faults is None
            else self.config.faults.describe(),
        }
        set_gauge("service.blob.count", float(doc["blobs"]))
        if path == "/health":
            return 200, doc
        # readiness: shedding-new-work conditions make us not-ready
        reasons = []
        if open_codecs:
            reasons.append(f"breakers open: {', '.join(open_codecs)}")
        if queue["depth"] >= queue["limit"]:
            reasons.append(f"queue full ({queue['depth']}/{queue['limit']})")
        if reasons:
            doc["status"] = "degraded"
            doc["error"] = "not_ready"
            doc["reasons"] = reasons
            return 503, doc
        return 200, doc
