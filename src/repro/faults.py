"""repro.faults — deterministic, seedable fault injection.

The paper's headline scenario (§VII-C4) is a 1024-core compress-and-
transfer pipeline over a WAN — a regime where worker crashes, corrupted
blobs, and link outages are routine. This module makes those failures
*injectable* so the resilience machinery in ``repro.parallel``,
``repro.encoding.container`` (salvage mode), and ``repro.transfer`` can be
exercised deterministically: every decision is a pure function of
``(seed, fault kind, subject key)``, so the same spec reproduces the same
faults — and therefore byte-identical telemetry counts — regardless of
worker scheduling, process ids, or wall-clock time.

Fault spec grammar (the CLI's ``--inject-faults`` argument)::

    spec    := clause (';' clause)*
    clause  := 'seed=' INT
             | KIND (':' key '=' value)*
    KIND    := 'crash' | 'slow' | 'bitflip' | 'truncate' | 'outage'
             | 'drop' | 'kill' | 'stall' | 'bloberr' | 'abort'
             | 'shardkill'

Clauses and their parameters (all optional, with defaults):

========  =======================================================
crash     ``p`` (prob/job, 1.0), ``attempts`` (leading attempts
          that crash, 1) — pool workers die hard (``os._exit``),
          serial jobs raise :class:`FaultInjectedError`.
slow      ``p`` (1.0), ``delay`` (seconds, 0.1) — worker sleeps
          before doing its work.
bitflip   ``p`` (1.0), ``n`` (bits per blob, 1) — storage bit rot.
truncate  ``p`` (1.0), ``frac`` (fraction kept, 0.5).
outage    ``at`` (start, s), ``dur`` (length, s) — WAN link dead
          window; repeat the clause for multiple windows.
drop      ``p`` (per-delivery drop prob, 0.1), ``max`` (transmit
          attempts, 4), ``backoff`` (base retransmit delay, 0.5).
kill      ``p`` (1.0), ``at`` (``pre_commit`` | ``post_commit`` |
          ``mid_write``, default ``pre_commit``), ``hard`` (1),
          ``only`` — the process dies (``SIGKILL``; ``hard=0``
          raises instead) at that stage of the next guarded
          :func:`repro.runtime.atomic_write`. Exercises
          crash-consistency and ledger resume.
stall     ``p`` (1.0), ``delay`` (seconds, 0.25) — a service
          request handler sleeps ``delay`` seconds before doing
          its work (exercises deadlines and queue backpressure).
bloberr   ``p`` (1.0), ``op`` (``read`` | ``write`` | ``any``,
          default ``any``) — a blob-store I/O operation raises
          ``OSError`` (the service degrades it to 503).
abort     ``p`` (1.0) — the client vanishes mid-request: the
          service drops the connection without a response and
          must clean up without corrupting anything.
shardkill ``p`` (1.0), ``shard`` (target shard index; -1 =
          derive from the hash, default -1), ``only`` — at drill
          step ``index``, SIGKILL one shard of the service
          cluster mid-request. The decision (fire? which shard?)
          is a pure function of ``(seed, index)``, so the
          shard-kill chaos drill replays byte-identically.
========  =======================================================

Example: ``seed=42;crash:p=0.3;bitflip:p=1:n=2;outage:at=5:dur=2``;
a sweep crash drill: ``seed=7;kill:only=2:at=post_commit``; a service
chaos drill: ``seed=9;stall:p=0.2:delay=0.3;bloberr:p=0.1;abort:p=0.1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.runtime.durable import KILL_POINTS, KillPoint

__all__ = [
    "FaultInjectedError",
    "FaultSpecError",
    "JobFaults",
    "LinkFaults",
    "KillPoint",
    "FaultInjector",
    "parse_fault_spec",
]

_KINDS = ("crash", "slow", "bitflip", "truncate", "outage", "drop", "kill",
          "stall", "bloberr", "abort", "shardkill")

#: Allowed parameters (and their types) per fault kind. ``only`` (where
#: accepted) pins the fault to a single subject index — job index, blob
#: index, or WAN flow index — for precise scenario construction.
_PARAMS: dict[str, dict[str, type]] = {
    "crash": {"p": float, "attempts": int, "only": int},
    "slow": {"p": float, "delay": float, "only": int},
    "bitflip": {"p": float, "n": int, "only": int},
    "truncate": {"p": float, "frac": float, "only": int},
    "outage": {"at": float, "dur": float},
    "drop": {"p": float, "max": int, "backoff": float, "only": int},
    "kill": {"p": float, "at": str, "hard": int, "only": int},
    "stall": {"p": float, "delay": float, "only": int},
    "bloberr": {"p": float, "op": str, "only": int},
    "abort": {"p": float, "only": int},
    "shardkill": {"p": float, "shard": int, "only": int},
}

#: Valid values for bloberr's ``op`` parameter.
_BLOB_OPS = ("read", "write", "any")

_DEFAULTS: dict[str, dict] = {
    "crash": {"p": 1.0, "attempts": 1},
    "slow": {"p": 1.0, "delay": 0.1},
    "bitflip": {"p": 1.0, "n": 1},
    "truncate": {"p": 1.0, "frac": 0.5},
    "outage": {"at": 0.0, "dur": 1.0},
    "drop": {"p": 0.1, "max": 4, "backoff": 0.5},
    "kill": {"p": 1.0, "at": "pre_commit", "hard": 1},
    "stall": {"p": 1.0, "delay": 0.25},
    "bloberr": {"p": 1.0, "op": "any"},
    "abort": {"p": 1.0},
    "shardkill": {"p": 1.0, "shard": -1},
}


class FaultSpecError(ValueError):
    """A ``--inject-faults`` spec string failed to parse."""


def _merge_clause(kind: str, params: dict, token: str | None = None) -> dict:
    """Validate one ``(kind, params)`` clause against the grammar.

    ``token`` is the raw clause text from a spec string; every error
    message names it, so a bad clause inside a multi-fault spec like
    ``crash:p=0.5;slw:delay=1`` points at *its* token, not just the kind.
    """
    where = f" (offending token {token!r})" if token else ""
    if kind not in _KINDS:
        raise FaultSpecError(f"unknown fault kind {kind!r}{where}; "
                             f"valid kinds: {', '.join(_KINDS)}")
    merged = dict(_DEFAULTS[kind])
    for key, value in params.items():
        if key not in _PARAMS[kind]:
            raise FaultSpecError(
                f"fault {kind!r} has no parameter {key!r}{where}; "
                f"allowed: {', '.join(_PARAMS[kind])}")
        try:
            merged[key] = _PARAMS[kind][key](value)
        except (TypeError, ValueError):
            raise FaultSpecError(
                f"fault {kind!r}: parameter {key!r} needs a "
                f"{_PARAMS[kind][key].__name__}, got {value!r}{where}") from None
    if kind == "kill" and merged["at"] not in KILL_POINTS:
        raise FaultSpecError(
            f"kill fault: at must be one of {', '.join(KILL_POINTS)}, "
            f"got {merged['at']!r}{where}")
    if kind == "bloberr" and merged["op"] not in _BLOB_OPS:
        raise FaultSpecError(
            f"bloberr fault: op must be one of {', '.join(_BLOB_OPS)}, "
            f"got {merged['op']!r}{where}")
    return merged


class FaultInjectedError(RuntimeError):
    """Raised (in serial execution) in place of a hard worker crash."""


def _stable_u64(seed: int, *parts) -> int:
    """A 64-bit hash of ``(seed, parts...)``, stable across processes/runs."""
    msg = "|".join(str(p) for p in parts).encode()
    h = hashlib.blake2b(msg, digest_size=8, key=str(seed).encode()[:64])
    return int.from_bytes(h.digest(), "little")


def _uniform(seed: int, *parts) -> float:
    """Deterministic uniform in [0, 1) keyed on ``(seed, parts...)``."""
    return _stable_u64(seed, *parts) / 2.0**64


@dataclass(frozen=True)
class JobFaults:
    """Directives for one (scope, job-index): planned in the dispatcher,
    applied by the worker. Picklable by construction."""

    crash_attempts: int = 0  # attempts 1..crash_attempts die
    delay: float = 0.0  # seconds of injected slowness per attempt

    @property
    def any(self) -> bool:
        return self.crash_attempts > 0 or self.delay > 0.0


@dataclass(frozen=True)
class LinkFaults:
    """WAN-link fault model consumed by the fair-share event loop."""

    outages: tuple[tuple[float, float], ...] = ()  # (start, end) windows
    drop_p: float = 0.0  # per-delivery corruption/drop probability
    max_attempts: int = 4  # transmit attempts before giving up gracefully
    backoff: float = 0.5  # base retransmit delay (doubles per attempt)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_p <= 1.0:
            raise ValueError("drop_p must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        for start, end in self.outages:
            if end < start or start < 0:
                raise ValueError(f"bad outage window ({start}, {end})")

    only: int | None = None  # restrict drops to one flow index

    def dropped(self, flow: int, attempt: int) -> bool:
        """Deterministic: is delivery ``attempt`` of ``flow`` dropped?"""
        if attempt >= self.max_attempts:
            return False  # exhausted: deliver (callers count this)
        if self.only is not None and flow != self.only:
            return False
        return _uniform(self.seed, "drop", flow, attempt) < self.drop_p

    def retransmit_delay(self, attempt: int) -> float:
        return self.backoff * (2.0 ** (attempt - 1))


class FaultInjector:
    """Deterministic fault planner shared by every resilient layer.

    One injector holds the parsed clauses plus the seed; decision methods
    are pure functions of their arguments, so dispatchers can plan faults
    before submitting work and workers merely *apply* directives.
    """

    def __init__(self, clauses: list | None = None, seed: int = 0) -> None:
        self.seed = int(seed)
        self.clauses: list[tuple[str, dict]] = []
        for clause in clauses or []:
            kind, params, *token = clause
            self.clauses.append(
                (kind, _merge_clause(kind, params, *token)))

    def _clause(self, kind: str) -> dict | None:
        for k, params in self.clauses:
            if k == kind:
                return params
        return None

    @staticmethod
    def _applies(params: dict, index: int | None) -> bool:
        """Honour the ``only`` parameter: fault pinned to one subject index."""
        return "only" not in params or (index is not None and params["only"] == index)

    # ------------------------------------------------------------------ #
    # Worker faults (planned by the dispatcher in repro.parallel).
    def job_faults(self, scope: str, index: int) -> JobFaults:
        """Directives for job ``index`` under dispatch scope ``scope``."""
        crash_attempts = 0
        delay = 0.0
        crash = self._clause("crash")
        if (crash is not None and self._applies(crash, index)
                and _uniform(self.seed, "crash", scope, index) < crash["p"]):
            crash_attempts = crash["attempts"]
        slow = self._clause("slow")
        if (slow is not None and self._applies(slow, index)
                and _uniform(self.seed, "slow", scope, index) < slow["p"]):
            delay = slow["delay"]
        return JobFaults(crash_attempts=crash_attempts, delay=delay)

    # ------------------------------------------------------------------ #
    # Storage faults (bit rot on compressed blobs).
    def corrupt_blob(self, blob: bytes, key: str,
                     index: int | None = None) -> tuple[bytes, list[dict]]:
        """Apply bitflip/truncate clauses to ``blob``; returns the (possibly
        unchanged) bytes plus a machine-readable list of applied events."""
        events: list[dict] = []
        out = blob
        flip = self._clause("bitflip")
        if (flip is not None and self._applies(flip, index)
                and _uniform(self.seed, "bitflip", key) < flip["p"] and out):
            rng = np.random.default_rng(_stable_u64(self.seed, "bitflip.rng", key))
            buf = bytearray(out)
            bits = rng.integers(0, len(buf) * 8, size=max(1, flip["n"]))
            for bit in bits:
                buf[int(bit) // 8] ^= 1 << (int(bit) % 8)
            out = bytes(buf)
            events.append({"fault": "bitflip", "key": key,
                           "bits": sorted(int(b) for b in bits)})
        trunc = self._clause("truncate")
        if (trunc is not None and self._applies(trunc, index)
                and _uniform(self.seed, "truncate", key) < trunc["p"] and out):
            keep = max(1, int(len(out) * trunc["frac"]))
            if keep < len(out):
                out = out[:keep]
                events.append({"fault": "truncate", "key": key, "kept": keep})
        return out, events

    # ------------------------------------------------------------------ #
    # Process-kill faults (consumed by repro.runtime.atomic_write via the
    # sweep driver): die at a chosen stage of an artifact commit.
    def kill_directive(self, key: str, index: int | None = None) -> KillPoint | None:
        """Should the guarded write identified by ``key`` crash, and where?

        Deterministic in ``(seed, key)``; ``only=<index>`` pins the kill
        to one subject (e.g. the N-th sweep cell). Returns a
        :class:`~repro.runtime.durable.KillPoint` or None.
        """
        clause = self._clause("kill")
        if clause is None or not self._applies(clause, index):
            return None
        if _uniform(self.seed, "kill", key) >= clause["p"]:
            return None
        return KillPoint(at=clause["at"], hard=bool(clause["hard"]))

    # ------------------------------------------------------------------ #
    # Service faults (consumed by repro.service): handler stalls, blob
    # I/O errors, client aborts — all pure functions of (seed, subject).
    def handler_delay(self, index: int) -> float:
        """Injected seconds of slowness for service request ``index``."""
        stall = self._clause("stall")
        if (stall is not None and self._applies(stall, index)
                and _uniform(self.seed, "stall", index) < stall["p"]):
            return stall["delay"]
        return 0.0

    def blob_error(self, op: str, index: int) -> bool:
        """Should blob-store operation ``index`` (``op`` = read|write) fail?"""
        clause = self._clause("bloberr")
        if clause is None or not self._applies(clause, index):
            return False
        if clause["op"] != "any" and clause["op"] != op:
            return False
        return _uniform(self.seed, "bloberr", index) < clause["p"]

    def abort_request(self, index: int) -> bool:
        """Should the client of service request ``index`` vanish mid-flight?"""
        clause = self._clause("abort")
        if clause is None or not self._applies(clause, index):
            return False
        return _uniform(self.seed, "abort", index) < clause["p"]

    def shard_kill(self, index: int, n_shards: int = 1) -> int | None:
        """SIGKILL a cluster shard at drill step ``index``? Which one?

        Returns the doomed shard's index, or ``None``. Pure in
        ``(seed, index, n_shards)``: an explicit ``shard=`` parameter
        pins the victim; otherwise it is hash-derived, so the same seed
        always condemns the same shard — the drill and its expectation
        model agree on the victim without communicating.
        """
        clause = self._clause("shardkill")
        if clause is None or not self._applies(clause, index):
            return None
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if _uniform(self.seed, "shardkill", index) >= clause["p"]:
            return None
        if clause["shard"] >= 0:
            return int(clause["shard"]) % n_shards
        return int(_stable_u64(self.seed, "shardkill.target", index)
                   % n_shards)

    # ------------------------------------------------------------------ #
    # WAN faults (consumed by repro.transfer.network).
    def link_faults(self) -> LinkFaults | None:
        """Collapse outage/drop clauses into a :class:`LinkFaults`, or None."""
        outages = tuple(sorted(
            (params["at"], params["at"] + params["dur"])
            for kind, params in self.clauses if kind == "outage"
        ))
        drop = self._clause("drop")
        if not outages and drop is None:
            return None
        drop = drop or {"p": 0.0, "max": 4, "backoff": 0.5}
        return LinkFaults(outages=outages, drop_p=drop["p"],
                          max_attempts=drop["max"], backoff=drop["backoff"],
                          seed=self.seed, only=drop.get("only"))

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for kind, params in self.clauses:
            # repr keeps every digit of a float, so the spec re-parses exactly
            args = ":".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in sorted(params.items()))
            parts.append(f"{kind}:{args}" if args else kind)
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.describe()!r})"


def parse_fault_spec(spec: str) -> FaultInjector:
    """Parse a fault spec string (grammar in the module docstring)."""
    if not isinstance(spec, str) or not spec.strip():
        raise FaultSpecError("empty fault spec")
    seed = 0
    clauses: list[tuple[str, dict, str]] = []
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[5:])
            except ValueError:
                raise FaultSpecError(
                    f"bad seed (offending token {clause!r}); "
                    "expected seed=<int>") from None
            continue
        parts = clause.split(":")
        kind = parts[0].strip()
        params: dict = {}
        for part in parts[1:]:
            if "=" not in part:
                raise FaultSpecError(
                    f"bad parameter {part!r} (offending token {clause!r}); "
                    "expected key=value")
            key, _, value = part.partition("=")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                # symbolic values (e.g. kill's at=pre_commit) stay strings;
                # _merge_clause type-checks them against the kind's schema
                params[key.strip()] = value.strip()
        # carry the raw clause token so validation errors can name it
        clauses.append((kind, params, clause))
    return FaultInjector(clauses, seed=seed)
