"""Shard supervision: spawn, probe, restart with backoff, drain.

The :class:`ShardSupervisor` owns N shard *processes* (each a
single-process :class:`~repro.service.app.ServiceServer` on its own
ephemeral port) and runs the control loop that turns a shard death into
a bounded blip instead of an outage:

* **probe** — every ``probe_interval`` seconds each shard is checked:
  first that its process is still alive (``poll()``), then over HTTP
  (``GET /health`` with a short timeout). ``probe_fail_threshold``
  consecutive probe failures on a live process count as a hang and get
  the same treatment as a crash (the process is killed first).
* **restart** — a dead shard is respawned after a bounded exponential
  backoff (``backoff_base * 2^k`` capped at ``backoff_cap``). Restart
  timestamps inside ``restart_window`` feed the **crash-loop breaker**:
  more than ``max_restarts`` of them marks the shard ``dead`` — the
  supervisor stops feeding the loop and the router reports that slice of
  the keyspace degraded in ``/ready`` until an operator intervenes
  (:meth:`ShardSupervisor.revive`).
* **drain** — ``stop()`` SIGTERMs every live shard (their own handlers
  finish in-flight work), waits out ``drain_deadline``, and SIGKILLs
  stragglers, so the parent never leaves orphan processes behind.

Time is injectable (``clock`` / ``sleep``) and the loop can be stepped
manually (``probe_once``), so the state machine — backoff schedule,
crash-loop breaker, hang detection — is unit-testable without real
processes; process creation itself is injectable via ``spawn``.

Shard state is published as gauges ``service.cluster.shard.<i>.state``
using the :data:`STATE_CODES` encoding, and every respawn increments
``service.cluster.restarts`` (plus a per-shard counter).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable

from repro.obs import inc_counter, set_gauge
from repro.parallel import RetryPolicy
from repro.service.schemas import ShardUnavailableError

__all__ = ["STATE_CODES", "ShardHandle", "ShardSupervisor", "do_probe_shard"]

#: Gauge encoding for ``service.cluster.shard.<i>.state``.
STATE_CODES = {
    "stopped": 0.0,   # never started, or cleanly shut down
    "starting": 1.0,  # process spawned, port not yet confirmed healthy
    "healthy": 2.0,   # live process answering /health
    "suspect": 3.0,   # live process failing probes (not yet at threshold)
    "backoff": 4.0,   # dead, respawn scheduled at next_restart_at
    "dead": 5.0,      # crash-loop breaker fired: no more restarts
}


def do_probe_shard(port: int, timeout: float = 1.5,
                   host: str = "127.0.0.1") -> dict:
    """One liveness probe: ``GET /health`` on a shard, parsed JSON back.

    Part of the cluster's *declared* transport vocabulary: a failed
    probe raises ``ConnectionError`` / ``OSError`` / ``TimeoutError``
    (malformed responses are folded into ``ConnectionError``), which the
    supervisor's probe loop treats as data — a failure observation — not
    as an exception to propagate further.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", "/health")
        resp = conn.getresponse()
        payload = resp.read()
        if resp.status != 200:
            raise ConnectionError(
                f"shard on port {port}: /health returned {resp.status}")
        try:
            doc = json.loads(payload)
        except ValueError as exc:
            raise ConnectionError(
                f"shard on port {port}: /health is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConnectionError(
                f"shard on port {port}: /health is not an object")
        return doc
    except http.client.HTTPException as exc:
        raise ConnectionError(
            f"shard on port {port}: malformed /health response: "
            f"{type(exc).__name__}: {exc}") from exc
    finally:
        conn.close()


class ShardHandle:
    """Mutable supervision record for one shard slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = "stopped"
        self.proc: object | None = None  # Popen-like (poll/terminate/kill/pid)
        self.port: int | None = None
        self.restarts = 0
        self.probe_failures = 0
        self.probe_asap = False  # router saw a transport failure: check now
        self.spawned_at: float | None = None
        self.next_restart_at: float | None = None
        self.restart_stamps: list[float] = []  # inside the crash-loop window
        self.last_health: dict | None = None  # cached /health doc

    def snapshot(self) -> dict:
        return {
            "index": self.index,
            "state": self.state,
            "port": self.port,
            "pid": getattr(self.proc, "pid", None),
            "restarts": self.restarts,
            "probe_failures": self.probe_failures,
            "requests": (self.last_health or {}).get("requests"),
            "blobs": (self.last_health or {}).get("blobs"),
        }


class ShardSupervisor:
    """Supervises ``n_shards`` shard processes (see module docstring).

    ``spawn(index)`` must return a started process-like object exposing
    ``poll() -> int | None``, ``terminate()``, ``kill()``,
    ``wait(timeout)`` and ``pid``; ``port_of(index)`` returns the
    shard's bound port once it has reported one (else ``None``) —
    the cluster wires these to ``subprocess.Popen`` and a port file,
    tests to fakes.
    """

    def __init__(self, n_shards: int, *,
                 spawn: Callable[[int], object],
                 port_of: Callable[[int], int | None],
                 probe: Callable[[int], dict] | None = None,
                 probe_interval: float = 0.25,
                 probe_fail_threshold: int = 3,
                 start_timeout: float = 30.0,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 4.0,
                 max_restarts: int = 5,
                 restart_window: float = 60.0,
                 drain_deadline: float = 10.0,
                 clock: Callable[[], float] | None = None,
                 sleep: Callable[[float], None] | None = None) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self.spawn = spawn
        self.port_of = port_of
        self.probe = probe or do_probe_shard
        self.probe_interval = float(probe_interval)
        self.probe_fail_threshold = int(probe_fail_threshold)
        self.start_timeout = float(start_timeout)
        # The k-th death inside restart_window waits restart_policy.delay(k),
        # the schedule the sweep also retries on.
        self.restart_policy = RetryPolicy(backoff=float(backoff_base),
                                          max_backoff=float(backoff_cap))
        self.max_restarts = int(max_restarts)
        self.restart_window = float(restart_window)
        self.drain_deadline = float(drain_deadline)
        self.clock = clock or time.monotonic
        self.sleep = sleep or time.sleep
        self.handles = [ShardHandle(i) for i in range(self.n_shards)]
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        set_gauge("service.cluster.shards", float(self.n_shards))

    # ------------------------------------------------------------------ #
    # lifecycle
    def start(self, *, thread: bool = True) -> "ShardSupervisor":
        """Spawn every shard; optionally run the probe loop on a thread."""
        with self._lock:
            for handle in self.handles:
                if handle.state == "stopped":
                    self._spawn(handle)
        if thread:
            self._stopping.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-shard-supervisor", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain: TERM, bounded wait, KILL stragglers, reap all."""
        self._stopping.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(5.0, 4 * self.probe_interval))
            self._thread = None
        with self._lock:
            live = [h for h in self.handles
                    if h.proc is not None and h.proc.poll() is None]
            for handle in live:
                try:
                    handle.proc.terminate()
                except OSError:  # already gone
                    pass
            deadline = time.monotonic() + self.drain_deadline
            for handle in live:
                left = max(0.0, deadline - time.monotonic())
                if not self._wait_proc(handle.proc, left):
                    try:
                        handle.proc.kill()
                    except OSError:
                        pass
                    self._wait_proc(handle.proc, 5.0)
            for handle in self.handles:
                self._set_state(handle, "stopped")
                handle.proc = None
                handle.port = None

    @staticmethod
    def _wait_proc(proc, timeout: float) -> bool:
        try:
            proc.wait(timeout=timeout)
            return True
        except Exception:  # noqa: BLE001 -- subprocess.TimeoutExpired or a
            # fake's equivalent; the caller escalates to kill() either way
            return proc.poll() is not None

    # ------------------------------------------------------------------ #
    # the probe loop
    def _loop(self) -> None:
        while not self._stopping.is_set():
            self.probe_once()
            self.sleep(self.probe_interval)

    def probe_once(self) -> None:
        """One supervision pass over every shard (thread-safe, steppable)."""
        for handle in self.handles:
            with self._lock:
                state = handle.state
                if state in ("stopped", "dead"):
                    continue
                if state == "backoff":
                    if (handle.next_restart_at is not None
                            and self.clock() >= handle.next_restart_at):
                        self._spawn(handle)
                    continue
                proc = handle.proc
            # process liveness (no lock needed: proc objects are stable)
            if proc is None or proc.poll() is not None:
                self._on_death(handle, why="process exited")
                continue
            if state == "starting":
                self._probe_starting(handle)
            else:
                self._probe_live(handle)

    def _probe_starting(self, handle: ShardHandle) -> None:
        port = self.port_of(handle.index)
        if port is None:
            if (handle.spawned_at is not None
                    and self.clock() - handle.spawned_at > self.start_timeout):
                self._kill_proc(handle)
                self._on_death(handle, why="start timeout")
            return
        try:
            doc = self.probe(port)
        except (ConnectionError, TimeoutError, OSError):
            # the port is reported but the server may still be binding —
            # give it the full start window before declaring death
            if (handle.spawned_at is not None
                    and self.clock() - handle.spawned_at > self.start_timeout):
                self._kill_proc(handle)
                self._on_death(handle, why="start timeout")
            return
        with self._lock:
            handle.port = port
            handle.last_health = doc
            handle.probe_failures = 0
            self._set_state(handle, "healthy")

    def _probe_live(self, handle: ShardHandle) -> None:
        port = handle.port
        if port is None:  # should not happen; treat as a hang
            self._kill_proc(handle)
            self._on_death(handle, why="lost port")
            return
        try:
            doc = self.probe(port)
        except (ConnectionError, TimeoutError, OSError):
            with self._lock:
                handle.probe_failures += 1
                failures = handle.probe_failures
                self._set_state(handle, "suspect")
            if failures >= self.probe_fail_threshold:
                self._kill_proc(handle)
                self._on_death(
                    handle, why=f"{failures} consecutive probe failures")
            return
        with self._lock:
            handle.probe_failures = 0
            handle.probe_asap = False
            handle.last_health = doc
            self._set_state(handle, "healthy")

    # ------------------------------------------------------------------ #
    # death, backoff, crash-loop breaker
    def _kill_proc(self, handle: ShardHandle) -> None:
        proc = handle.proc
        if proc is None:
            return
        try:
            proc.kill()
        except OSError:
            pass
        self._wait_proc(proc, 5.0)

    def _on_death(self, handle: ShardHandle, *, why: str) -> None:
        with self._lock:
            now = self.clock()
            handle.port = None
            handle.probe_failures = 0
            handle.last_health = None
            handle.restart_stamps = [
                t for t in handle.restart_stamps
                if now - t <= self.restart_window]
            handle.restart_stamps.append(now)
            inc_counter("service.cluster.shard_deaths")
            if len(handle.restart_stamps) > self.max_restarts:
                self._set_state(handle, "dead")
                inc_counter("service.cluster.crash_loop_dead")
                handle.next_restart_at = None
                return
            handle.next_restart_at = now + self.restart_policy.delay(
                len(handle.restart_stamps))
            self._set_state(handle, "backoff")

    def _spawn(self, handle: ShardHandle) -> None:
        """(Re)start one shard process (lock held by callers)."""
        respawn = handle.proc is not None
        handle.proc = self.spawn(handle.index)
        handle.spawned_at = self.clock()
        handle.port = None
        handle.next_restart_at = None
        handle.probe_failures = 0
        self._set_state(handle, "starting")
        if respawn:
            handle.restarts += 1
            inc_counter("service.cluster.restarts")
            inc_counter(f"service.cluster.shard.{handle.index}.restarts")

    def _set_state(self, handle: ShardHandle, state: str) -> None:
        handle.state = state
        set_gauge(f"service.cluster.shard.{handle.index}.state",
                  STATE_CODES[state])

    # ------------------------------------------------------------------ #
    # router-facing API (must never block: called from the event loop)
    def note_failure(self, index: int) -> None:
        """A forward to shard ``index`` failed at the transport level."""
        with self._lock:
            handle = self.handles[index]
            if handle.state == "healthy":
                self._set_state(handle, "suspect")
            handle.probe_asap = True
        inc_counter("service.cluster.forward_failures")

    def healthy_shards(self) -> list[int]:
        with self._lock:
            return [h.index for h in self.handles if h.state == "healthy"]

    def shard_port(self, index: int) -> int | None:
        with self._lock:
            handle = self.handles[index]
            return handle.port if handle.state == "healthy" else None

    def retry_after_hint(self, index: int | None = None) -> float:
        """Modeled seconds until the named (or soonest) shard could serve."""
        with self._lock:
            handles = (self.handles if index is None
                       else [self.handles[index]])
            best: float | None = None
            now = self.clock()
            for handle in handles:
                if handle.state == "healthy":
                    return self.probe_interval
                if handle.state in ("starting", "suspect"):
                    wait = self.probe_interval
                elif (handle.state == "backoff"
                      and handle.next_restart_at is not None):
                    wait = max(0.0, handle.next_restart_at - now) \
                        + self.probe_interval
                else:  # dead / stopped: the full modeled recovery
                    wait = self.max_recovery_seconds()
                best = wait if best is None else min(best, wait)
            return best if best is not None else self.probe_interval

    def table(self) -> list[dict]:
        with self._lock:
            return [h.snapshot() for h in self.handles]

    def degraded_partitions(self) -> list[int]:
        """Shard indices whose keyspace slice is currently unserved."""
        with self._lock:
            return [h.index for h in self.handles if h.state != "healthy"]

    # ------------------------------------------------------------------ #
    def backoff_model(self) -> dict:
        """The restart model, machine-readable (drill + docs contract)."""
        return {
            "backoff_base_seconds": self.restart_policy.backoff,
            "backoff_cap_seconds": self.restart_policy.max_backoff,
            "max_restarts": self.max_restarts,
            "restart_window_seconds": self.restart_window,
            "probe_interval_seconds": self.probe_interval,
            "probe_fail_threshold": self.probe_fail_threshold,
            "start_timeout_seconds": self.start_timeout,
        }

    def max_recovery_seconds(self) -> float:
        """Upper bound on one crash → healthy again (the drill asserts
        real recovery lands inside this window): detection + the largest
        single backoff + process start + one probe round."""
        detection = self.probe_interval * (self.probe_fail_threshold + 1)
        return (detection + self.restart_policy.max_backoff + self.start_timeout
                + 2 * self.probe_interval)

    def revive(self, index: int) -> None:
        """Operator override: give a crash-looped shard another chance."""
        with self._lock:
            handle = self.handles[index]
            if handle.state != "dead":
                raise ShardUnavailableError(
                    f"shard {index} is {handle.state}, not dead; "
                    "revive only applies to crash-looped shards")
            handle.restart_stamps = []
            self._spawn(handle)

    def kill(self, index: int) -> int | None:
        """SIGKILL shard ``index`` (chaos drills); returns the dead pid."""
        with self._lock:
            proc = self.handles[index].proc
        if proc is None:
            return None
        try:
            proc.kill()
        except OSError:
            return None
        return getattr(proc, "pid", None)
