"""``python -m repro.service`` — serve the compression API, or drill it.

Subcommands::

    serve   start the HTTP service (SIGTERM/SIGINT drain gracefully)
    shard   one cluster shard (internal: spawned by the supervisor)
    drill   run the deterministic chaos drill and exit 0/1

``serve`` options mirror :class:`repro.service.app.ServiceConfig`: one
flag per tunable, each defaulting to the ``ServiceConfig`` class
attribute. ``--inject-faults`` accepts the :mod:`repro.faults` spec
grammar (including the service kinds ``stall`` / ``bloberr`` /
``abort`` / ``shardkill``), and ``--serve-metrics PORT`` additionally
starts the Prometheus exporter so queue/breaker/shed gauges are
scrapeable while the service runs. ``serve --shards N`` (N > 1) starts
the supervised cluster instead of a single process: N shard processes
behind one router port, with crash recovery and keyspace-partitioned
routing (see ``docs/SERVICE.md``). Each shard gets the same
``ServiceConfig`` as one ``--config`` JSON argument.

Shutdown is signal-driven, not poll-driven: ``serve`` and ``shard``
install SIGTERM/SIGINT handlers that trip one event; the main thread
waits on it, then runs the full drain path — stop accepting, finish
in-flight work (bounded by ``--drain-deadline``), flush telemetry,
exit 0 — so ``kill -TERM`` and Ctrl-C are equally graceful and leave
no orphan shard processes behind.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.faults import parse_fault_spec
from repro.service.app import ServiceConfig, ServiceServer
from repro.service.cluster import ClusterConfig, ClusterServer

__all__ = ["main"]

_SERVE_FLAGS = (  # flag, the ServiceConfig field it sets, help
    ("--host", "host", "interface to bind"),
    ("--store", "store_root", "blob store directory"),
    ("--max-queue", "max_queue", "admitted-work bound; overflow sheds with 429"),
    ("--rate", "rate", "per-client steady-state requests/second"),
    ("--burst", "burst", "per-client token-bucket burst"),
    ("--breaker-threshold", "breaker_threshold", "consecutive codec failures that trip its breaker"),
    ("--breaker-cooldown", "breaker_cooldown", "seconds an open breaker waits before one probe"),
    ("--deadline", "default_deadline", "default per-request deadline (X-Deadline overrides)"),
    ("--drain-deadline", "drain_deadline", "max seconds to finish in-flight work on shutdown"),
)


def _run_until_stopped(start, tags: dict, metrics_port: int | None = None) -> int:
    """Run ``start()``'s server until SIGTERM/SIGINT, then drain it."""
    from repro.obs import trace

    # install the drain handlers before anything is listening, so a
    # signal racing startup still takes the graceful path
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, lambda signum, frame: stop.set())
    if trace.get_run() is None:
        trace.start_run(tags=tags)
    exporter = None
    if metrics_port is not None:
        from repro.obs.server import MetricsServer

        exporter = MetricsServer(port=metrics_port).start()
        print(f"metrics on {exporter.url}/metrics", file=sys.stderr)
    server = start()

    try:
        stop.wait()
    except KeyboardInterrupt:  # SIGINT delivered before the handler took
        pass
    print("draining: completing in-flight requests and flushing telemetry",
          file=sys.stderr)
    server.stop()
    if exporter is not None:
        exporter.stop()
    if trace.get_run() is not None:
        trace.end_run()
    return 0


def _service_config(args) -> ServiceConfig:
    """The one ServiceConfig the ``serve`` flags describe."""
    return ServiceConfig(
        port=args.port,
        faults=parse_fault_spec(args.inject_faults) if args.inject_faults else None,
        **{name: getattr(args, name) for _, name, _ in _SERVE_FLAGS})


def _serve(args) -> int:
    config = _service_config(args)

    def start():
        if args.shards > 1:
            server = ClusterServer(ClusterConfig(
                n_shards=args.shards, port=args.port, service=config))
            what = f"sharded compression service ({args.shards} shards)"
        else:
            server, what = ServiceServer(config), "compression service"
        server.start()
        print(f"{what} on {server.url} "
              f"(POST /compress /decompress /estimate; GET /health /ready)",
              file=sys.stderr)
        return server

    return _run_until_stopped(start, {"command": "service.serve"}, args.serve_metrics)


def _shard(args) -> int:
    """One supervised shard (internal; see ``repro.service.cluster``)."""
    from repro.runtime import atomic_write

    def start():
        server = ServiceServer(ServiceConfig.from_json(
            args.config, partition=(args.index, args.shards))).start()
        if args.port_file:
            atomic_write(args.port_file, f"{server.port}\n")
        print(f"shard {args.index}/{args.shards} on {server.url}", file=sys.stderr)
        return server

    return _run_until_stopped(start, {"command": "service.shard", "shard": str(args.index)})


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="compression-as-a-service over the repro codecs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="start the HTTP service")
    for flag, name, text in _SERVE_FLAGS:
        default = getattr(ServiceConfig, name)
        p.add_argument(flag, dest=name, type=type(default), default=default,
                       help=f"{text} (default %(default)s)")
    p.add_argument("--inject-faults", metavar="SPEC",
                   help="deterministic fault spec (see repro.faults)")
    p.add_argument("--port", type=int, default=8765,
                   help="port to bind (default 8765; 0 = ephemeral)")
    p.add_argument("--shards", type=int, default=1,
                   help="shard processes behind one router port "
                        "(default 1 = single-process service)")
    p.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="also start the Prometheus /metrics exporter")

    s = sub.add_parser(
        "shard", help="one cluster shard (internal: run via serve --shards)")
    s.add_argument("--index", type=int, required=True,
                   help="this shard's keyspace partition index")
    s.add_argument("--shards", type=int, required=True,
                   help="total shard count in the cluster")
    s.add_argument("--port-file", default=None, metavar="FILE",
                   help="write the bound port here (atomic)")
    s.add_argument("--config", required=True, metavar="JSON",
                   help="the shard's ServiceConfig.to_json()")

    d = sub.add_parser("drill", help="run the deterministic chaos drill")
    d.add_argument("--seed", type=int, default=9)
    d.add_argument("--report", default=None, metavar="FILE",
                   help="write the drill report JSON here")
    d.add_argument("--phases", default=None, metavar="P1,P2",
                   help="comma-separated phase subset (default: all); "
                        "e.g. --phases shardkill")
    d.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        if args.shards < 1:
            parser.error("--shards must be >= 1")
        return _serve(args)
    if args.command == "shard":
        if args.shards < 1 or not 0 <= args.index < args.shards:
            parser.error("need 0 <= --index < --shards")
        return _shard(args)
    from repro.service.drill import run_drill

    phases = None
    if args.phases:
        phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    code, _ = run_drill(seed=args.seed, report_path=args.report,
                        verbose=not args.quiet, phases=phases)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
