"""Content-addressed blob store backing the compression service.

Blobs are keyed by their blake2b-160 digest, so the key *is* the
integrity check: every read re-hashes the bytes and a mismatch raises
:class:`~repro.service.schemas.BlobCorruptError` instead of handing a
silently rotten container to the decoder. Writes commit through
``runtime.atomic_write`` — a crash mid-put leaves either no entry or a
complete one, never a torn blob whose digest can't match. A writer that
died mid-put leaves only a ``.<name>.<pid>.tmp`` file, which listing and
verification skip: a stale temp file is litter, not corruption.

Keyspace partitioning (the sharded cluster): a :class:`KeyRing` places
every shard at ``VNODES`` pseudo-random points on a 64-bit hash ring and
assigns each key to the first shard point at or after the key's own
hash. Ownership is therefore a pure function of ``(key, n_shards)`` —
every router, shard, and drill computes the same answer — and adding a
shard moves only ~``1/n`` of the keyspace (the consistent-hashing
property, asserted by tests). Shards share one store *root* (content
addressing makes concurrent writers safe: same key ⇒ same bytes, and
commits are atomic), while a shard's ``partition=(index, count)`` scopes
which keys it *owns* for routing and verification accounting.

Fault injection: each store carries an op counter; ``bloberr`` clauses
from :mod:`repro.faults` fire on the counter index, so a seeded spec
deterministically fails the N-th store operation regardless of which
request performed it.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import threading
from pathlib import Path

from repro.faults import FaultInjector
from repro.obs import inc_counter
from repro.runtime import atomic_write
from repro.service.schemas import BlobCorruptError, BlobIOError, NotFoundError

__all__ = ["BlobStore", "blob_key", "KeyRing", "shard_for_key"]

_DIGEST_BYTES = 20  # blake2b-160: plenty for content addressing, short keys


def blob_key(data: bytes) -> str:
    """The content address (lowercase hex blake2b-160) for ``data``."""
    return hashlib.blake2b(data, digest_size=_DIGEST_BYTES).hexdigest()


# ---------------------------------------------------------------------- #
# consistent-hash keyspace partitioning

#: Virtual points per shard on the ring. Enough to keep per-shard load
#: within a few percent of fair for small clusters without making ring
#: construction noticeable.
VNODES = 64


def _ring_hash(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("ascii"), digest_size=8).digest(),
        "big")


class KeyRing:
    """The consistent-hash ring for an ``n_shards``-way keyspace split."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        points: list[tuple[int, int]] = []
        for shard in range(self.n_shards):
            for v in range(VNODES):
                points.append((_ring_hash(f"shard:{shard}#{v}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def owner(self, key: str) -> int:
        """The shard owning ``key``: first ring point at/after its hash."""
        pos = bisect.bisect_left(self._hashes, _ring_hash(f"key:{key}"))
        return self._shards[pos % len(self._shards)]

    def successors(self, key: str) -> list[int]:
        """All shard indices in ring order from ``key`` (owner first).

        The router walks this list when the owner is down: the first
        *healthy* entry serves the read, so failover order is as
        deterministic as ownership itself.
        """
        pos = bisect.bisect_left(self._hashes, _ring_hash(f"key:{key}"))
        out: list[int] = []
        for i in range(len(self._shards)):
            shard = self._shards[(pos + i) % len(self._shards)]
            if shard not in out:
                out.append(shard)
                if len(out) == self.n_shards:
                    break
        return out


_RINGS: dict[int, KeyRing] = {}
_RINGS_LOCK = threading.Lock()


def _ring(n_shards: int) -> KeyRing:
    with _RINGS_LOCK:
        ring = _RINGS.get(n_shards)
        if ring is None:
            ring = _RINGS[n_shards] = KeyRing(n_shards)
        return ring


def shard_for_key(key: str, n_shards: int) -> int:
    """Which of ``n_shards`` shards owns blob ``key`` (pure function)."""
    return _ring(n_shards).owner(key)


class BlobStore:
    """Digest-keyed blob storage under one directory (two-level fanout)."""

    def __init__(self, root, *, faults: FaultInjector | None = None,
                 partition: tuple[int, int] | None = None) -> None:
        if partition is not None:
            index, count = int(partition[0]), int(partition[1])
            if count < 1 or not 0 <= index < count:
                raise ValueError(
                    f"bad partition {partition!r}; need (index, count) "
                    "with 0 <= index < count")
            partition = (index, count)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self.partition = partition
        self._ops = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _next_op(self) -> int:
        with self._lock:
            self._ops += 1
            return self._ops - 1

    def _maybe_fail(self, op: str) -> None:
        if self.faults is not None and self.faults.blob_error(op, self._next_op()):
            inc_counter(f"service.blob.{op}_errors")
            raise BlobIOError(
                f"injected blob {op} failure (fault index {self._ops - 1})")

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / key

    # ------------------------------------------------------------------ #
    def put(self, data: bytes) -> str:
        """Store ``data``; returns its content address. Idempotent."""
        self._maybe_fail("write")
        key = blob_key(data)
        dest = self.path_for(key)
        if not dest.exists():
            try:
                dest.parent.mkdir(parents=True, exist_ok=True)
                atomic_write(dest, data)
            except OSError as exc:
                inc_counter("service.blob.write_errors")
                raise BlobIOError(f"blob store write failed: {exc}") from exc
        inc_counter("service.blob.puts")
        return key

    def get(self, key: str) -> bytes:
        """Read and digest-verify the blob at ``key``.

        Raises :class:`NotFoundError` for an unknown key and
        :class:`BlobCorruptError` when the stored bytes no longer hash to
        their address — the caller decides whether to salvage-decode the
        damaged bytes (``fetch_raw``) or surface the 502.
        """
        self._maybe_fail("read")
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"no blob {key!r}") from None
        except OSError as exc:
            inc_counter("service.blob.read_errors")
            raise BlobIOError(f"blob store read failed: {exc}") from exc
        inc_counter("service.blob.gets")
        if blob_key(data) != key:
            inc_counter("service.blob.corrupt")
            raise BlobCorruptError(
                f"blob {key!r}: stored bytes do not match their digest",
                detail={"key": key, "nbytes": len(data)})
        return data

    def fetch_raw(self, key: str) -> bytes:
        """The stored bytes without digest verification (salvage path)."""
        try:
            return self.path_for(key).read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"no blob {key!r}") from None
        except OSError as exc:
            raise BlobIOError(f"blob store read failed: {exc}") from exc

    # ------------------------------------------------------------------ #
    def owns(self, key: str) -> bool:
        """Does this store's partition own ``key``? (no partition: yes)."""
        if self.partition is None:
            return True
        index, count = self.partition
        return shard_for_key(key, count) == index

    @staticmethod
    def _is_blob_name(name: str) -> bool:
        """Committed blobs only: ``atomic_write`` temp files
        (``.<name>.<pid>.tmp``) from a writer that died mid-put are
        litter a later put cleans up — never corruption."""
        return not name.startswith(".") and not name.endswith(".tmp")

    def keys(self) -> list[str]:
        out = []
        for sub in sorted(self.root.iterdir()) if self.root.exists() else []:
            if sub.is_dir() and not sub.name.startswith("."):
                out.extend(sorted(p.name for p in sub.iterdir()
                                  if p.is_file() and self._is_blob_name(p.name)))
        return out

    def count(self) -> int:
        return len(self.keys())

    def verify_all(self) -> dict[str, bool]:
        """Digest-check every stored blob: key -> intact? (drill invariant).

        A blob committed by a *concurrent* writer is either absent from
        the listing or fully visible (atomic rename), so the walk never
        sees a half-written payload; a key that vanishes between the
        listing and the read (impossible for content-addressed puts, but
        cheap to guard) is simply skipped.
        """
        result = {}
        for key in self.keys():
            try:
                data = self.path_for(key).read_bytes()
            except FileNotFoundError:
                continue
            result[key] = blob_key(data) == key
        return result

    def corrupt(self, key: str) -> None:
        """Flip one bit of a stored blob in place (chaos drills ONLY).

        Deliberately bypasses atomic_write: the drill is simulating bit
        rot on committed data, not a torn write.
        """
        path = self.path_for(key)
        data = bytearray(path.read_bytes())
        if not data:
            raise ValueError(f"blob {key!r} is empty; nothing to corrupt")
        pos = (len(data) // 2) % len(data)
        data[pos] ^= 1
        with open(path, "r+b") as fh:
            fh.seek(pos)
            fh.write(bytes(data[pos:pos + 1]))
            fh.flush()
            os.fsync(fh.fileno())
