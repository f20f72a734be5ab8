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
Long-running CLI subcommands start one with ``--serve-metrics PORT``;
``python -m repro.obs.server`` runs a standalone exporter (mostly useful
for poking at the endpoints).
"""

from __future__ import annotations

import os
import time

from repro.obs import trace
from repro.obs.prom import CONTENT_TYPE, render_run
from repro.runtime.http import HttpServer, Request, Response, json_response

__all__ = ["MetricsServer", "serve_from_args", "main"]

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


# ---------------------------------------------------------------------- #
def serve_from_args(args) -> MetricsServer | None:
    """Start a server when ``--serve-metrics PORT`` was given (else None).

    Shared by the CLI subcommands: ensures an obs run is active (the
    exporter is pointless without a collector), binds, and announces the
    scrape URL on stderr. The caller owns ``stop()``.
    """
    port = getattr(args, "serve_metrics", None)
    if port is None:
        return None
    import sys

    if trace.get_run() is None:
        trace.start_run(tags={"command": getattr(args, "command", "serve")})
    server = MetricsServer(port=port).start()
    print(f"serving live telemetry on {server.url}/metrics "
          f"(/health, /snapshot)", file=sys.stderr)
    return server


def main(argv: list[str] | None = None) -> int:
    """Standalone exporter: ``python -m repro.obs.server [--port N]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-obs-server",
        description="standalone Prometheus /metrics exporter for repro.obs")
    parser.add_argument("--port", type=int, default=9464,
                        help="port to bind (default 9464; 0 = ephemeral)")
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args(argv)

    if trace.get_run() is None:
        trace.start_run(tags={"command": "obs.server"})
    server = MetricsServer(port=args.port, host=args.host).start()
    print(f"serving on {server.url}/metrics (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
