"""Durable atomic file I/O — the crash-consistency primitive.

The contract of :func:`atomic_write`: whatever instant the process dies
(power cut, SIGKILL, OOM kill), a later reader of ``path`` sees either
the complete previous contents or the complete new contents — never a
truncated hybrid. The classic recipe:

1. write the payload to a temp file *in the same directory* (same
   filesystem, so the final rename is atomic);
2. ``fsync`` the temp file (data durable before it becomes visible);
3. ``os.replace`` it over the destination (atomic on POSIX and Windows);
4. ``fsync`` the directory (the *rename itself* durable).

Crash points are injectable: pass a :class:`KillPoint` (normally planned
by :meth:`repro.faults.FaultInjector.kill_directive`) and the writer dies
at the requested stage — ``mid_write`` (half the payload in the temp
file), ``pre_commit`` (temp complete, rename not executed) or
``post_commit`` (renamed, directory not yet fsynced — the window where
the artifact exists but its ledger record does not). ``hard`` kills are a
real ``SIGKILL`` to our own pid, used by the subprocess crash tests; soft
kills raise :class:`InjectedKillError` so in-process tests can observe the
same on-disk states.

Append-only JSONL files (the run ledger, the telemetry sinks) have their
own contract, kept by :func:`append_jsonl`: every complete line is a
whole record, and a crash tears at most the final line, which the next
append heals (:func:`heal_jsonl_tail`).
"""

from __future__ import annotations

import json
import os
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

__all__ = [
    "KILL_POINTS",
    "KillPoint",
    "InjectedKillError",
    "append_jsonl",
    "atomic_write",
    "fsync_dir",
    "heal_jsonl_tail",
]

#: Valid crash stages, in the order they occur inside :func:`atomic_write`.
KILL_POINTS = ("mid_write", "pre_commit", "post_commit")


class InjectedKillError(RuntimeError):
    """Raised by a *soft* injected kill (in-process crash simulation)."""

    def __init__(self, at: str) -> None:
        super().__init__(f"injected kill at {at}")
        self.at = at


@dataclass(frozen=True)
class KillPoint:
    """Directive: die at stage ``at`` of the next guarded write.

    ``hard=True`` sends ``SIGKILL`` to the current process — the on-disk
    state is exactly what a power cut at that stage leaves behind.
    ``hard=False`` raises :class:`InjectedKillError` instead (the file
    state is identical; only the blast radius differs).
    """

    at: str = "pre_commit"
    hard: bool = True

    def __post_init__(self) -> None:
        if self.at not in KILL_POINTS:
            raise ValueError(
                f"unknown kill point {self.at!r}; known: {', '.join(KILL_POINTS)}")

    def fire(self) -> None:
        if self.hard:  # pragma: no cover - kills the test runner by design
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedKillError(self.at)


def fsync_dir(path) -> None:
    """fsync a directory so a rename inside it is durable.

    Filesystems that refuse directory fds (some network/overlay mounts)
    degrade gracefully: durability then rests on the payload fsync alone.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, data, *, fsync: bool = True,
                 kill: KillPoint | None = None) -> Path:
    """Durably and atomically write ``data`` (bytes or str) to ``path``.

    The temp file lives next to the destination (``.<name>.<pid>.tmp``) so
    the final ``os.replace`` never crosses a filesystem boundary. A crash
    mid-call leaves at worst a stale temp file, which a later successful
    write of the same path removes on its own replace; the destination is
    only ever a complete old or complete new version.

    ``fsync=False`` skips both fsyncs (payload and directory) — for bulk
    test fixtures where durability does not matter and syscall cost does.
    ``kill`` injects a crash at the given stage (see module docstring).
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        if kill is not None and kill.at == "mid_write":
            os.write(fd, data[: len(data) // 2])
            os.close(fd)
            kill.fire()
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        try:
            os.close(fd)
        except OSError:
            pass  # already closed on the mid_write path
    if kill is not None and kill.at == "pre_commit":
        kill.fire()
    os.replace(tmp, path)
    if kill is not None and kill.at == "post_commit":
        kill.fire()
    if fsync:
        fsync_dir(path.parent)
    return path


def heal_jsonl_tail(path) -> int:
    """Truncate a torn trailing line off an append-only JSONL file.

    A crash mid-append leaves a final line without a terminating newline
    (possibly half a JSON record). Appending more records after it would
    fuse two records into one unparseable line, so writers call this
    before appending: the file is truncated back to the last complete
    line. Returns the number of bytes dropped (0 when the tail is clean).

    Only the *unterminated* tail is touched — complete lines are never
    rewritten, which preserves the append-only audit property.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return 0
    if size == 0:
        return 0
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return 0
        # walk back in blocks to find the last newline
        pos = size
        block = 4096
        last_nl = -1
        while pos > 0 and last_nl < 0:
            step = min(block, pos)
            pos -= step
            fh.seek(pos)
            chunk = fh.read(step)
            idx = chunk.rfind(b"\n")
            if idx >= 0:
                last_nl = pos + idx
        keep = last_nl + 1 if last_nl >= 0 else 0
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())
        return size - keep


# One lock per JSONL path: healing the tail while another thread of this
# process is mid-append would truncate that thread's record.
_append_locks: dict[str, threading.Lock] = {}
_append_locks_guard = threading.Lock()


def append_jsonl(path, records: Iterable[dict], *, fsync: bool = False) -> int:
    """Append ``records`` to a JSONL file, one sorted-key object per line.

    The one JSONL writer (the run ledger and the telemetry sinks): under
    a per-path lock it heals a torn tail (:func:`heal_jsonl_tail`), then
    appends every line in one ``O_APPEND`` write, so concurrent batches
    never interleave and a crash tears at most the final line.
    ``fsync=True`` makes the append durable on return, and also fsyncs
    the directory when this call created the file. Returns the number of
    torn-tail bytes healed (0 when the tail was clean).
    """
    path = Path(path)
    payload = b"".join((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")
                       for rec in records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _append_locks_guard:
        lock = _append_locks.setdefault(str(path), threading.Lock())
    with lock:
        healed = heal_jsonl_tail(path)
        if not payload:
            return healed
        created = not path.exists()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        if fsync and created:
            fsync_dir(path.parent)
    return healed
