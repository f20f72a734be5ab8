"""Versioned binary container for compressed streams.

Every compressor in this repository serializes to the same on-disk layout::

    magic 'RPRZ' | version u8 | codec name | JSON header | named sections
    | CRC32 of everything above

The JSON header carries small structured metadata (shape, dtype, error
bound, pipeline configuration); sections carry the bulk byte streams
(Huffman payloads, tables, masks, unpredictable values). Decompressors
dispatch on the codec name, so ``repro.decompress(blob)`` can route a blob
produced by any compressor back to the right implementation.

Version 2 (current) additionally stores a CRC32 *per section*, written
right after each payload. The trailing global CRC32 still lets
:meth:`Container.from_bytes` reject bit rot / truncation outright, while
the per-section checksums let **salvage mode**
(``Container.from_bytes(blob, salvage=True)``) isolate exactly which
sections are damaged and hand the intact ones to the decoder — the basis
for :func:`repro.parallel.decompress_chunked`'s NaN-filled partial reads
and corruption-tolerant RCDF variable access. Version-1 blobs (no section
CRCs) are still read transparently.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

from repro.encoding.varint import decode_uvarint, encode_uvarint

__all__ = [
    "Container",
    "CorruptStreamError",
    "SalvageReport",
    "SectionFailure",
    "DECODE_ERRORS",
    "MAGIC",
    "VERSION",
]

MAGIC = b"RPRZ"
VERSION = 2
_READABLE_VERSIONS = (1, 2)

#: Exceptions a decoder is allowed to raise on corrupt input. Anything
#: outside this set escaping a decode is a bug (see the corruption fuzz
#: suite in ``tests/test_corruption_fuzz.py``).
DECODE_ERRORS = (ValueError, EOFError, KeyError, IndexError, OverflowError)


class CorruptStreamError(ValueError):
    """A compressed stream failed a structural or checksum validation.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handlers (and tests) keep working.
    """


@dataclass
class SectionFailure:
    """One damaged section discovered during a salvage parse/decode."""

    name: str
    stage: str  # 'crc' | 'missing' | 'truncated' | 'decode'
    error: str

    def to_dict(self) -> dict:
        return {"name": self.name, "stage": self.stage, "error": self.error}


@dataclass
class SalvageReport:
    """Machine-readable outcome of a corruption-tolerant read."""

    codec: str = ""
    total: int = 0  # sections/chunks/variables expected
    failures: list[SectionFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing had to be salvaged."""
        return not self.failures and not self.notes

    @property
    def failed_names(self) -> list[str]:
        return [f.name for f in self.failures]

    def add(self, name: str, stage: str, error: str) -> None:
        self.failures.append(SectionFailure(name, stage, str(error)))

    def to_dict(self) -> dict:
        return {
            "codec": self.codec,
            "total": self.total,
            "recovered": self.total - len(self.failures),
            "failures": [f.to_dict() for f in self.failures],
            "notes": list(self.notes),
            "ok": self.ok,
        }

    def summary(self) -> str:
        if self.ok:
            return f"salvage: all {self.total} sections intact"
        failed = ", ".join(f"{f.name} ({f.stage})" for f in self.failures)
        return (f"salvage: recovered {self.total - len(self.failures)}"
                f"/{self.total} sections; failed: {failed}")


class _Reader:
    """Bounds-checked cursor over a byte buffer.

    Every read raises :class:`EOFError` instead of ``IndexError`` when the
    buffer runs out, so corrupt input always fails from the documented
    exception set — salvage mode additionally relies on this to stop
    cleanly at the damage point.
    """

    def __init__(self, buf: bytes, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    def u8(self) -> int:
        if self.pos >= len(self.buf):
            raise EOFError("container truncated (expected byte)")
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise EOFError(f"container truncated (expected {n} bytes of {what})")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def uvarint(self) -> int:
        value, self.pos = decode_uvarint(self.buf, self.pos)
        return value


class Container:
    """A codec-tagged bundle of a JSON header plus named binary sections."""

    def __init__(self, codec: str, header: dict | None = None) -> None:
        if not codec or len(codec) > 32:
            raise ValueError("codec name must be 1..32 characters")
        self.codec = codec
        self.header: dict = dict(header or {})
        self.version = VERSION  # version read from the wire (VERSION when new)
        self.salvaged = False  # parsed in salvage mode past damage?
        self._sections: dict[str, bytes] = {}
        self._corrupt: dict[str, str] = {}  # name -> reason (salvage mode)

    # ------------------------------------------------------------------ #
    def add_section(self, name: str, payload: bytes) -> None:
        """Attach a named byte payload (names must be unique)."""
        if name in self._sections:
            raise ValueError(f"duplicate section {name!r}")
        if len(name) > 64:
            raise ValueError("section name too long")
        self._sections[name] = bytes(payload)

    def section(self, name: str) -> bytes:
        """Fetch a named payload.

        Raises :class:`KeyError` if absent and :class:`CorruptStreamError`
        if the section was present but failed its checksum during a
        salvage parse.
        """
        if name in self._corrupt:
            raise CorruptStreamError(
                f"section {name!r} is corrupt: {self._corrupt[name]}")
        return self._sections[name]

    def has_section(self, name: str) -> bool:
        return name in self._sections

    @property
    def section_names(self) -> list[str]:
        return list(self._sections)

    @property
    def corrupt_sections(self) -> dict[str, str]:
        """Sections that failed their CRC in a salvage parse (name -> why)."""
        return dict(self._corrupt)

    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        out.append(VERSION)
        codec_b = self.codec.encode("ascii")
        out.append(len(codec_b))
        out += codec_b
        header_b = json.dumps(self.header, separators=(",", ":"), sort_keys=True).encode("utf-8")
        encode_uvarint(len(header_b), out)
        out += header_b
        encode_uvarint(len(self._sections), out)
        for name, payload in self._sections.items():
            name_b = name.encode("ascii")
            out.append(len(name_b))
            out += name_b
            encode_uvarint(len(payload), out)
            out += payload
            out += zlib.crc32(payload).to_bytes(4, "little")  # v2: per-section
        out += zlib.crc32(out).to_bytes(4, "little")
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes, *, salvage: bool = False) -> "Container":
        """Parse a container.

        In strict mode (default) any checksum mismatch or structural damage
        raises (:class:`CorruptStreamError` / :class:`EOFError`). With
        ``salvage=True`` the parse keeps going past damage: sections whose
        per-section CRC fails (v2) are retained as *corrupt* (listed in
        :attr:`corrupt_sections`; :meth:`section` raises for them), and a
        truncated tail simply ends the section list early. The header must
        still parse — without it nothing downstream can interpret the
        sections.
        """
        blob = bytes(blob)
        if blob[:4] != MAGIC:
            raise CorruptStreamError("not a repro container (bad magic)")
        if len(blob) < 9:
            raise EOFError("container too short")
        body, crc = blob[:-4], int.from_bytes(blob[-4:], "little")
        crc_ok = zlib.crc32(body) == crc
        if not crc_ok and not salvage:
            raise CorruptStreamError("container checksum mismatch (corrupt or truncated)")
        # In salvage mode a truncated blob's "global CRC" is 4 arbitrary
        # payload bytes — parse the full buffer, not buffer-minus-4.
        rd = _Reader(body if crc_ok else blob, 5)
        version = blob[4]
        if version not in _READABLE_VERSIONS:
            raise CorruptStreamError(f"unsupported container version {version}")
        try:
            codec_len = rd.u8()
            codec = rd.take(codec_len, "codec name").decode("ascii")
            header_len = rd.uvarint()
            header = json.loads(rd.take(header_len, "header").decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("container header is not a JSON object")
            obj = cls(codec, header)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptStreamError(f"container header unreadable: {exc}") from None
        obj.version = version
        obj.salvaged = salvage and not crc_ok
        try:
            n_sections = rd.uvarint()
            if n_sections > len(rd.buf):  # cheap sanity bound before looping
                raise CorruptStreamError(f"implausible section count {n_sections}")
            for _ in range(n_sections):
                name_len = rd.u8()
                name = rd.take(name_len, "section name").decode("ascii", errors="replace")
                payload_len = rd.uvarint()
                payload = rd.take(payload_len, f"section {name!r}")
                crc_bad = False
                if version >= 2:
                    stored = int.from_bytes(rd.take(4, "section crc"), "little")
                    crc_bad = zlib.crc32(payload) != stored
                    if crc_bad and not salvage:
                        raise CorruptStreamError(f"section {name!r} checksum mismatch")
                if name in obj._sections:
                    if not salvage:
                        raise CorruptStreamError(f"duplicate section {name!r}")
                    continue  # salvage: keep the first occurrence
                obj._sections[name] = payload
                if crc_bad:
                    obj._corrupt[name] = "section checksum mismatch"
        except EOFError as exc:
            if not salvage:
                raise
            obj.salvaged = True
            obj._corrupt.setdefault("<tail>", f"truncated: {exc}")
        return obj

    @staticmethod
    def peek_codec(blob: bytes) -> str:
        """Return the codec name without parsing the whole container."""
        if blob[:4] != MAGIC:
            raise CorruptStreamError("not a repro container (bad magic)")
        if len(blob) < 6:
            raise EOFError("container too short")
        codec_len = blob[5]
        name = blob[6 : 6 + codec_len]
        if len(name) != codec_len:
            raise EOFError("container too short for codec name")
        return name.decode("ascii")

    @staticmethod
    def peek_header(blob: bytes) -> dict:
        """Return the JSON header without checking checksums or reading sections."""
        rd = _Reader(blob, 6 + len(Container.peek_codec(blob)))
        try:
            header = json.loads(rd.take(rd.uvarint(), "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptStreamError(f"container header unreadable: {exc}") from None
        if not isinstance(header, dict):
            raise CorruptStreamError("container header is not a JSON object")
        return header
