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

The spec grammar (the CLI's ``--inject-faults`` argument) and every
fault kind's parameters, defaults and ranges are tabled once for readers,
in ``docs/ROBUSTNESS.md``, and once for the parser, in :data:`_SCHEMA`;
a test keeps the two equal.

Example: ``seed=42;crash:p=0.3;bitflip:p=1:n=2;outage:at=5:dur=2``;
a sweep crash drill: ``seed=7;kill:only=2:at=post_commit``; a service
chaos drill: ``seed=9;stall:p=0.2:delay=0.3;bloberr:p=0.1;abort:p=0.1``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import time
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
    "fault_spec_arg",
]

_PROB = (float, 1.0, (0.0, 1.0))
_ONLY = (int, None, (0, None))

#: The one parameter table: ``kind -> {param: (type, default, allowed)}``.
#: ``allowed`` is a closed range ``(lo, hi)`` (``hi`` None: unbounded) or,
#: for a ``str`` parameter, the tuple of accepted values. A None default
#: leaves the parameter unset unless given: ``only=<index>`` pins a fault
#: to one subject (job, blob, request or WAN flow index).
_SCHEMA: dict[str, dict[str, tuple]] = {
    "crash": {"p": _PROB, "attempts": (int, 1, (0, None)), "only": _ONLY},
    "slow": {"p": _PROB, "delay": (float, 0.1, (0.0, None)), "only": _ONLY},
    "bitflip": {"p": _PROB, "n": (int, 1, (1, None)), "only": _ONLY},
    "truncate": {"p": _PROB, "frac": (float, 0.5, (0.0, 1.0)), "only": _ONLY},
    "outage": {"at": (float, 0.0, (0.0, None)),
               "dur": (float, 1.0, (0.0, None))},
    "drop": {"p": (float, 0.1, (0.0, 1.0)), "max": (int, 4, (1, None)),
             "backoff": (float, 0.5, (0.0, None)), "only": _ONLY},
    "kill": {"p": _PROB, "at": (str, "pre_commit", KILL_POINTS),
             "hard": (int, 1, (0, 1)), "only": _ONLY},
    "stall": {"p": _PROB, "delay": (float, 0.25, (0.0, None)), "only": _ONLY},
    "bloberr": {"p": _PROB, "op": (str, "any", ("read", "write", "any")),
                "only": _ONLY},
    "abort": {"p": _PROB, "only": _ONLY},
    "shardkill": {"p": _PROB, "shard": (int, -1, (-1, None)), "only": _ONLY},
}


class FaultSpecError(ValueError):
    """A ``--inject-faults`` spec string failed to parse."""


def _check(kind: str, key: str, value, where: str = "") -> None:
    """Raise :class:`FaultSpecError` unless ``value`` is in the table's range."""
    typ, _, allowed = _SCHEMA[kind][key]
    if typ is str:
        ok, want = value in allowed, f"one of {', '.join(allowed)}"
    else:
        lo, hi = allowed
        ok = lo <= value and (hi is None or value <= hi)
        want = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    if not ok:
        raise FaultSpecError(f"fault {kind!r}: parameter {key!r} must be "
                             f"{want}, got {value!r}{where}")


def _merge_clause(kind: str, params: dict, token: str | None = None) -> dict:
    """Validate one ``(kind, params)`` clause against :data:`_SCHEMA`.

    ``token`` is the raw clause text from a spec string; every error
    message names it, so a bad clause inside a multi-fault spec like
    ``crash:p=0.5;slw:delay=1`` points at *its* token, not just the kind.
    """
    where = f" (offending token {token!r})" if token else ""
    if kind not in _SCHEMA:
        raise FaultSpecError(f"unknown fault kind {kind!r}{where}; "
                             f"valid kinds: {', '.join(_SCHEMA)}")
    schema = _SCHEMA[kind]
    merged = {k: default for k, (_, default, _) in schema.items()
              if default is not None}
    for key, value in params.items():
        if key not in schema:
            raise FaultSpecError(
                f"fault {kind!r} has no parameter {key!r}{where}; "
                f"allowed: {', '.join(schema)}")
        typ = schema[key][0]
        try:
            if typ is int and isinstance(value, float) and not value.is_integer():
                raise ValueError("not integral")  # int() would truncate it
            merged[key] = typ(value)
        except (TypeError, ValueError, OverflowError):
            raise FaultSpecError(
                f"fault {kind!r}: parameter {key!r} needs a "
                f"{typ.__name__}, got {value!r}{where}") from None
        _check(kind, key, merged[key], where)
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

    def apply(self, attempt: int, *, in_worker: bool) -> None:
        """Crash or stall attempt ``attempt`` (1-based) as planned.

        In a pool worker an injected crash is a *hard* death (``os._exit``)
        so the dispatcher sees the real ``BrokenProcessPool`` recovery
        path; inline it raises :class:`FaultInjectedError` (the caller
        cannot be killed).
        """
        if attempt <= self.crash_attempts:
            if in_worker:
                os._exit(86)
            raise FaultInjectedError(
                f"injected crash (attempt {attempt}/{self.crash_attempts})")
        if self.delay > 0.0:
            time.sleep(self.delay)


@dataclass(frozen=True)
class LinkFaults:
    """WAN-link fault model consumed by the fair-share event loop."""

    outages: tuple[tuple[float, float], ...] = ()  # (start, end) windows
    drop_p: float = 0.0  # per-delivery corruption/drop probability
    max_attempts: int = _SCHEMA["drop"]["max"][1]  # transmits before giving up
    backoff: float = _SCHEMA["drop"]["backoff"][1]  # doubles per attempt
    seed: int = 0

    def __post_init__(self) -> None:
        _check("drop", "p", self.drop_p)
        _check("drop", "max", self.max_attempts)
        _check("drop", "backoff", self.backoff)
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

    def _fires(self, kind: str, *subject, index: int | None = None) -> dict | None:
        """The one fault rule: the ``kind`` clause's params when it fires.

        It fires when the clause is present, its ``only`` (if set) equals
        ``index``, and ``_uniform(seed, kind, *subject) < p``.
        """
        params = self._clause(kind)
        if params is None or params.get("only", index) != index:
            return None
        if _uniform(self.seed, kind, *subject) >= params["p"]:
            return None
        return params

    # ------------------------------------------------------------------ #
    # Worker faults (planned by the dispatcher in repro.parallel).
    def job_faults(self, scope: str, index: int) -> JobFaults:
        """Directives for job ``index`` under dispatch scope ``scope``."""
        crash = self._fires("crash", scope, index, index=index)
        slow = self._fires("slow", scope, index, index=index)
        return JobFaults(crash_attempts=crash["attempts"] if crash else 0,
                         delay=slow["delay"] if slow else 0.0)

    # ------------------------------------------------------------------ #
    # Storage faults (bit rot on compressed blobs).
    def corrupt_blob(self, blob: bytes, key: str,
                     index: int | None = None) -> tuple[bytes, list[dict]]:
        """Apply bitflip/truncate clauses to ``blob``; returns the (possibly
        unchanged) bytes plus a machine-readable list of applied events."""
        events: list[dict] = []
        out = blob
        flip = self._fires("bitflip", key, index=index)
        if flip is not None and out:
            rng = np.random.default_rng(_stable_u64(self.seed, "bitflip.rng", key))
            buf = bytearray(out)
            # a position drawn twice is flipped once: XOR-ing it twice
            # would undo the flip the event reports
            bits = sorted({int(b) for b in
                           rng.integers(0, len(buf) * 8, size=flip["n"])})
            for bit in bits:
                buf[bit // 8] ^= 1 << (bit % 8)
            out = bytes(buf)
            events.append({"fault": "bitflip", "key": key, "bits": bits})
        trunc = self._fires("truncate", key, index=index)
        if trunc is not None and out:
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
        clause = self._fires("kill", key, index=index)
        return None if clause is None else KillPoint(
            at=clause["at"], hard=bool(clause["hard"]))

    # ------------------------------------------------------------------ #
    # Service faults (consumed by repro.service): handler stalls, blob
    # I/O errors, client aborts — all pure functions of (seed, subject).
    def handler_delay(self, index: int) -> float:
        """Injected seconds of slowness for service request ``index``."""
        stall = self._fires("stall", index, index=index)
        return 0.0 if stall is None else stall["delay"]

    def blob_error(self, op: str, index: int) -> bool:
        """Should blob-store operation ``index`` (``op`` = read|write) fail?"""
        clause = self._fires("bloberr", index, index=index)
        return clause is not None and clause["op"] in ("any", op)

    def abort_request(self, index: int) -> bool:
        """Should the client of service request ``index`` vanish mid-flight?"""
        return self._fires("abort", index, index=index) is not None

    def shard_kill(self, index: int, n_shards: int = 1) -> int | None:
        """SIGKILL a cluster shard at drill step ``index``? Which one?

        Returns the doomed shard's index, or ``None``. Pure in
        ``(seed, index, n_shards)``: an explicit ``shard=`` parameter
        pins the victim; otherwise it is hash-derived, so the same seed
        always condemns the same shard — the drill and its expectation
        model agree on the victim without communicating.
        """
        clause = self._fires("shardkill", index, index=index)
        if clause is None:
            return None
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
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
        if drop is None:
            return LinkFaults(outages=outages, seed=self.seed) if outages else None
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
    """Parse a fault spec string (grammar and parameters: docs/ROBUSTNESS.md)."""
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


def fault_spec_arg(spec: str) -> FaultInjector:
    """The argparse ``type=`` of every ``--inject-faults`` flag.

    A bad spec is a usage error: argparse prints one
    ``error: argument --inject-faults: ...`` line naming the offending
    token and exits 2, before the command reads any input.
    """
    try:
        return parse_fault_spec(spec)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
