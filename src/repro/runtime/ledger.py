"""The run ledger — an append-only, crash-consistent JSONL journal.

One ledger file (``ledger.jsonl``) records the lifecycle of every work
unit ("cell") of a long-running job::

    {"rec": "cell", "cell": "<id>", "status": "planned",  "meta": {...}}
    {"rec": "cell", "cell": "<id>", "status": "running",  "attempt": 1}
    {"rec": "cell", "cell": "<id>", "status": "done",
     "artifact": "cells/<id>.json", "digest": "<blake2b>", "attempts": 1}
    {"rec": "cell", "cell": "<id>", "status": "failed",
     "error": "...", "error_type": "...", "attempts": 3}
    {"rec": "event", "kind": "breaker_open", ...}

Crash-consistency invariants (docs/ROBUSTNESS.md):

* **Commit ordering** — an artifact is atomically committed *before* its
  ``done`` record is appended. Replay is therefore conservative: a
  ``done`` record proves the artifact exists and matches its digest; an
  artifact without a ``done`` record is recomputed (idempotent cells make
  that safe).
* **Torn tail** — a crash mid-append leaves at worst one unterminated
  final line. :func:`replay_ledger` skips it (counted, warned); writers
  truncate it via :func:`~repro.runtime.durable.heal_jsonl_tail` before
  appending, so complete records are never corrupted by later appends.
* **No rewrites** — records are only ever appended; state is the fold of
  the record sequence, so replay after any prefix of appends is a valid
  (earlier) state.

The ledger stays deliberately wall-clock-free: records contain logical
fields only (status, attempts, digests), so an interrupted-and-resumed
run converges to the same *replayed state* as an uninterrupted one — the
determinism contract the sweep resume test enforces.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.durable import append_jsonl, heal_jsonl_tail

__all__ = [
    "LEDGER_FILENAME",
    "RunLedger",
    "LedgerState",
    "replay_ledger",
    "blake2b_file",
    "blake2b_bytes",
]

LEDGER_FILENAME = "ledger.jsonl"

#: Cell lifecycle states, in order; later records win on replay.
CELL_STATUSES = ("planned", "running", "done", "failed")


def blake2b_bytes(data: bytes) -> str:
    """Content digest used for artifact integrity (hex, 128-bit BLAKE2b)."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def blake2b_file(path) -> str | None:
    """Digest a file's contents; None when the file is missing."""
    try:
        return blake2b_bytes(Path(path).read_bytes())
    except FileNotFoundError:
        return None


class RunLedger:
    """Appender for one ledger file. Each append is durable on return.

    ``fsync=False`` trades durability for speed (unit tests); the record
    ordering and torn-tail healing behave identically.
    """

    def __init__(self, path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._healed_bytes = heal_jsonl_tail(self.path)

    @property
    def healed_bytes(self) -> int:
        """Bytes of torn tail truncated when this appender opened the file."""
        return self._healed_bytes

    # ------------------------------------------------------------------ #
    def append(self, record: dict) -> None:
        append_jsonl(self.path, [record], fsync=self.fsync)

    # ------------------------------------------------------------------ #
    def planned(self, cell: str, meta: dict | None = None) -> None:
        self.append({"rec": "cell", "cell": cell, "status": "planned",
                     "meta": meta or {}})

    def running(self, cell: str, attempt: int) -> None:
        self.append({"rec": "cell", "cell": cell, "status": "running",
                     "attempt": int(attempt)})

    def done(self, cell: str, artifact: str, digest: str, attempts: int) -> None:
        """Record completion. MUST be called only after the artifact named
        here has been atomically committed (the commit-ordering invariant)."""
        self.append({"rec": "cell", "cell": cell, "status": "done",
                     "artifact": artifact, "digest": digest,
                     "attempts": int(attempts)})

    def failed(self, cell: str, error: str, error_type: str, attempts: int) -> None:
        self.append({"rec": "cell", "cell": cell, "status": "failed",
                     "error": error, "error_type": error_type,
                     "attempts": int(attempts)})

    def event(self, kind: str, **fields) -> None:
        """Non-cell occurrences: breaker trips, deadline shedding, resume."""
        self.append({"rec": "event", "kind": kind, **fields})


# ---------------------------------------------------------------------- #
@dataclass
class LedgerState:
    """The fold of a ledger's record sequence (see :func:`replay_ledger`)."""

    cells: dict[str, dict] = field(default_factory=dict)  # id -> last record
    events: list[dict] = field(default_factory=list)
    records: int = 0
    torn_lines: int = 0
    invalid_lines: int = 0
    # id -> highest ``running`` attempt seen (attempts restart on resume)
    max_attempt: dict[str, int] = field(default_factory=dict, init=False)

    def status(self, cell: str) -> str | None:
        rec = self.cells.get(cell)
        return rec["status"] if rec else None

    def record(self, cell: str) -> dict | None:
        return self.cells.get(cell)

    def by_status(self, status: str) -> list[str]:
        return [c for c, r in self.cells.items() if r["status"] == status]

    def verified_done(self, cell: str, root) -> bool:
        """True when the cell is ``done`` AND its artifact still exists with
        the recorded digest — the conservative skip condition on resume."""
        rec = self.cells.get(cell)
        if rec is None or rec["status"] != "done":
            return False
        return blake2b_file(Path(root) / rec["artifact"]) == rec["digest"]


def replay_ledger(path) -> LedgerState:
    """Rebuild ledger state from the journal, tolerating a torn tail.

    An unparseable or schema-invalid line is skipped with a counted
    ``RuntimeWarning`` rather than raising: the torn *final* line is the
    expected crash signature (counted in ``torn_lines``); any other bad
    line is counted in ``invalid_lines`` (it can only arise from external
    damage — healed appends never produce one).
    """
    state = LedgerState()
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return state
    if not raw:
        return state
    lines = raw.split(b"\n")
    torn_tail = lines and lines[-1] != b""  # no trailing newline: torn append
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        is_final = i == len(lines) - 1
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.get("rec") not in ("cell", "event"):
                raise ValueError("not a ledger record object")
            if rec["rec"] == "event" and not isinstance(rec.get("kind"), str):
                raise ValueError("malformed event record")
            if rec["rec"] == "cell" and (
                    not isinstance(rec.get("cell"), str)
                    or rec.get("status") not in CELL_STATUSES
                    or not isinstance(rec.get("attempt", 0), int)):
                raise ValueError("malformed cell record")
        except (ValueError, UnicodeDecodeError) as exc:
            if is_final and torn_tail:
                state.torn_lines += 1
                warnings.warn(
                    f"{path}: skipping torn final ledger line ({exc})",
                    RuntimeWarning, stacklevel=2)
            else:
                state.invalid_lines += 1
                warnings.warn(
                    f"{path}:{i + 1}: skipping invalid ledger line ({exc})",
                    RuntimeWarning, stacklevel=2)
            continue
        state.records += 1
        if rec["rec"] == "event":
            state.events.append(rec)
            continue
        cell = rec["cell"]
        state.cells[cell] = rec
        if "attempt" in rec:
            state.max_attempt[cell] = max(state.max_attempt.get(cell, 0),
                                          rec["attempt"])
    return state
