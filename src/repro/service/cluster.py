"""The sharded compression service: supervisor + router in one handle.

:class:`ClusterServer` is the process-level composition root. It

1. spawns ``n_shards`` shard processes (``python -m repro.service shard
   --index i --shards n --port-file F --config JSON``), each a full
   single-process :class:`~repro.service.app.ServiceServer` running
   ``config.service`` on an ephemeral port with ``partition=(i, n)``
   scoping its slice of the shared blob-store root;
2. runs a :class:`~repro.service.supervise.ShardSupervisor` probe loop
   over them (crash detection, bounded-backoff restart, crash-loop
   breaker);
3. fronts them with a :class:`~repro.service.router.ClusterRouter`
   speaking the exact single-process API on one port.

Shards report their bound port through a *port file* under
``<store_root>/.cluster/`` (written with ``atomic_write`` by the shard,
so the supervisor never reads a torn value; stale files from a previous
incarnation are unlinked before each spawn). The dot-directory is
invisible to the blob store's listings, so runtime state never pollutes
the keyspace.

The probe-failure threshold, crash-loop limits and forward timeout are
the ``ShardSupervisor`` / ``ClusterRouter`` defaults.

Per-shard fault specs (``shard_fault_specs``) let a chaos drill give one
shard a pathological personality — e.g. a 100%-stall clause on the
victim so the router's hedge fires — while its siblings stay honest.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.faults import parse_fault_spec
from repro.service.app import ServiceConfig
from repro.service.router import ClusterRouter
from repro.service.supervise import ShardSupervisor

__all__ = ["ClusterConfig", "ClusterServer"]

#: How long ``ClusterServer.start`` waits for every shard's first probe.
_WAIT_HEALTHY = 30.0


@dataclass
class ClusterConfig:
    """Tunables for one :class:`ClusterServer`."""

    n_shards: int = 2
    port: int = 0  # router port; shards always bind ephemeral ports
    #: the config every shard runs; its host also binds the router and its
    #: drain_deadline also bounds the supervisor's drain.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    hedge_budget: float = 0.25
    probe_interval: float = 0.25
    start_timeout: float = 30.0
    backoff_base: float = 0.25
    backoff_cap: float = 4.0
    #: per-shard overrides: index -> spec string (wins over service.faults).
    shard_fault_specs: dict[int, str] = field(default_factory=dict)


class ClusterServer:
    """Supervised shard fleet + router, with one start/stop lifecycle."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        service = self.config.service
        self.store_root = Path(service.store_root)
        self.run_dir = self.store_root / ".cluster"
        self.supervisor = ShardSupervisor(
            self.config.n_shards,
            spawn=self._spawn_shard,
            port_of=self._port_of,
            probe_interval=self.config.probe_interval,
            start_timeout=self.config.start_timeout,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
            drain_deadline=service.drain_deadline)
        self.router = ClusterRouter(
            self.supervisor, host=service.host, port=self.config.port,
            hedge_budget=self.config.hedge_budget)

    # ------------------------------------------------------------------ #
    def _port_file(self, index: int) -> Path:
        return self.run_dir / f"shard-{index}.port"

    def _port_of(self, index: int) -> int | None:
        try:
            text = self._port_file(index).read_text(encoding="ascii").strip()
        except OSError:
            return None
        return int(text) if text.isdigit() else None

    def _shard_config(self, index: int) -> ServiceConfig:
        spec = self.config.shard_fault_specs.get(index)
        if spec is None:
            return self.config.service
        return replace(self.config.service, faults=parse_fault_spec(spec))

    def _spawn_shard(self, index: int) -> subprocess.Popen:
        port_file = self._port_file(index)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # a stale port file from the previous incarnation would make the
        # supervisor probe a dead port forever; the shard rewrites it
        # (atomically) once bound.
        port_file.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "repro.service", "shard",
               "--index", str(index), "--shards", str(self.config.n_shards),
               "--port-file", str(port_file),
               "--config", self._shard_config(index).to_json()]
        return subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterServer":
        """Spawn shards, start supervision, bind the router.

        Blocks up to ``_WAIT_HEALTHY`` seconds for every shard to answer
        its first probe, so callers get a serving cluster back.
        """
        self.supervisor.start()
        try:
            self._await_healthy(_WAIT_HEALTHY)
            self.router.start()
        except Exception:
            self.supervisor.stop()
            raise
        return self

    def _await_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.supervisor.healthy_shards()) == self.config.n_shards:
                return
            time.sleep(0.05)
        table = self.supervisor.table()
        raise RuntimeError(
            f"cluster not healthy within {timeout}s: "
            + ", ".join(f"shard {r['index']}={r['state']}" for r in table))

    def stop(self) -> None:
        """Drain the router, then the shards. Idempotent."""
        self.router.drain()
        self.router.stop()
        self.supervisor.stop()
        for index in range(self.config.n_shards):
            self._port_file(index).unlink(missing_ok=True)

    @property
    def url(self) -> str:
        return self.router.url

    @property
    def port(self) -> int | None:
        return self.router.port
