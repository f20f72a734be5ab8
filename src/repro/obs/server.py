"""Asyncio ``/metrics`` exporter: live telemetry over plain HTTP.

A tiny stdlib-only HTTP server (a route table on the shared
:mod:`repro.runtime.http` core; no framework) that exposes the process's
active observability run while it works:

* ``GET /metrics``  — Prometheus text exposition 0.0.4 rendered from the
  run's metrics registry: counters, gauges and histograms, including
  the per-stage ``span.<name>.seconds`` latency histograms (pool
  workers' merged in). Scrape it with Prometheus, or just ``curl`` it —
  the format is human-readable.
* ``GET /health``   — liveness JSON: status, pid, run id, span count.
* ``GET /snapshot`` — the registry's ``snapshot()`` as JSON under one
  ``metrics`` key (the machine-readable sibling of ``/metrics``).

The server runs its event loop on a daemon thread so synchronous
workloads (the sweep driver, experiment harnesses) stay untouched; all
shared state it reads is lock-protected (see :mod:`repro.obs.metrics`).
Commands start one with ``--serve-metrics PORT`` through
:func:`repro.obs.session`, which also stops it on every exit, so the
exporter always serves the run the command records into.
"""

from __future__ import annotations

import os
import time

from repro.obs import trace
from repro.obs.prom import CONTENT_TYPE, render_run
from repro.runtime.http import HttpServer, Request, Response, json_response

__all__ = ["MetricsServer"]

#: stop(): seconds in-flight scrapes get to finish before they are cut.
_DRAIN_SECONDS = 1.0
_TEXT = [("Content-Type", "text/plain; charset=utf-8")]


class MetricsServer(HttpServer):
    """Background ``/metrics`` + ``/health`` + ``/snapshot`` HTTP server.

    ``port=0`` binds an ephemeral port; read the real one from ``.port``
    after :meth:`start`. ``run_provider`` defaults to
    :func:`repro.obs.last_run`, so the server always serves the run the
    process is currently collecting into (or the one just finished).
    The lifecycle (``start``/``close``/``join``/``stop``) is
    :class:`repro.runtime.http.HttpServer`'s.
    """

    thread_name = "repro-metrics-server"

    def __init__(self, port: int = 0, host: str = "127.0.0.1", *,
                 run_provider=None, prefix: str = "repro_") -> None:
        super().__init__(host, port, self._route,
                         drain_seconds=_DRAIN_SECONDS)
        self.prefix = prefix
        self.run_provider = run_provider or trace.last_run
        self._t0 = time.monotonic()

    async def _route(self, request: Request) -> Response:
        if request.method != "GET":
            return 405, _TEXT, b"only GET is supported\n"
        run = self.run_provider()
        if run is not None:
            run.metrics.counter("obs.server.requests").inc()
        path = request.path
        if path == "/metrics":
            return (200, [("Content-Type", CONTENT_TYPE)],
                    render_run(run, self.prefix).encode("utf-8"))
        if path == "/health":
            return json_response(200, {
                "status": "ok",
                "pid": os.getpid(),
                "uptime_seconds": round(time.monotonic() - self._t0, 3),
                "run": None if run is None else run.run_id,
                "collecting": trace.get_run() is not None,
            })
        if path == "/snapshot":
            if run is None:
                return json_response(200, {"run": None})
            return json_response(200, {
                "run": run.run_id,
                "tags": run.tags,
                "n_spans": len(run.spans()),
                "metrics": run.metrics.snapshot(),
            })
        return 404, _TEXT, (f"unknown path {path!r}; try /metrics, "
                            "/health, /snapshot\n").encode("utf-8")
