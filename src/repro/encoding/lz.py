"""Greedy LZ77 — the from-scratch stand-in for SZ3's Zstd stage.

The SZ3 pipeline (and therefore CliZ's) runs a general-purpose LZ coder over
the Huffman output to squeeze residual redundancy (long zero runs, repeated
code patterns). Any LZ-family coder fills that role; this one uses:

* an exact nearest-previous-occurrence index over 4-byte shingles, built
  with one in-place sort of packed ``uint64`` keys ``(shingle << 32) |
  position`` (keys are unique, so equal shingles end up adjacent in
  position order, exactly as under a stable argsort, and each position's
  predecessor is its nearest earlier occurrence) — no hash table and no
  per-byte Python loop; the position must fit the low 32 bits, so inputs
  of 2**32 shingles or more take the stable argsort instead,
* greedy chunked-memcmp match extension, window 65535 bytes,
* a byte-oriented token format: control byte ``0xxxxxxx`` = literal run of
  ``x+1`` bytes (1..128) follows; ``1xxxxxxx`` = match of length ``x+4``
  (4..131) with a 2-byte little-endian offset; longer matches emit a
  batched run of repeated match tokens in one ``bytes`` multiply.

The compress loop iterates once per emitted match (jumping over literal
stretches with ``bisect``), not once per input byte. ``compress`` falls back
to a stored block when expansion would occur, so the output is never more
than ``len(data) + 6`` bytes. The active obs run counts each token pass in
``lz.attempted`` and each block that beat the stored form in ``lz.kept``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.obs import inc_counter

__all__ = ["lz_compress", "lz_decompress"]

_WINDOW = 65535
_MIN_MATCH = 4
_MAX_MATCH = 131  # per token; longer matches chain tokens
_MAGIC_COMPRESSED = 1
_MAGIC_STORED = 0
_PACK_LIMIT = 1 << 32  # shingle positions must fit the low half of the key


def _prev_occurrence(data: bytes) -> np.ndarray:
    """``prev[i]`` = nearest ``j < i`` with the same 4-byte shingle, else -1."""
    a = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    v = a[:-3] | (a[1:-2] << np.uint64(8)) | (a[2:-1] << np.uint64(16)) | (a[3:] << np.uint64(24))
    if v.size < _PACK_LIMIT:
        key = (v << np.uint64(32)) | np.arange(v.size, dtype=np.uint64)
        key.sort()
        order = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
        sv = key >> np.uint64(32)
    else:
        order = np.argsort(v, kind="stable")
        sv = v[order]
    same = sv[1:] == sv[:-1]
    prev = np.full(v.size, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _match_len(data: bytes, cand: int, i: int, maxl: int) -> int:
    """Common-prefix length of ``data[cand:]`` vs ``data[i:]``, in ``[4, maxl]``.

    Compares in doubling chunks via C-level ``bytes`` equality; overlapping
    sources (``cand + length > i``) are fine because both sides index the
    original buffer.
    """
    length = _MIN_MATCH
    chunk = 32
    while length < maxl:
        step = min(chunk, maxl - length)
        a = data[cand + length : cand + length + step]
        b = data[i + length : i + length + step]
        if a == b:
            length += step
            chunk = min(chunk * 2, 4096)
        else:
            k = 0
            while a[k] == b[k]:
                k += 1
            return length + k
    return maxl


def lz_compress(data: bytes) -> bytes:
    """Compress ``data``; always decompressible by :func:`lz_decompress`."""
    data = bytes(data)
    n = len(data)
    header = bytearray()
    if n < 16:
        header.append(_MAGIC_STORED)
        encode_uvarint(n, header)
        return bytes(header) + data
    inc_counter("lz.attempted")
    tokens = bytearray()
    prev = _prev_occurrence(data)
    in_window = (prev >= 0) & ((np.arange(prev.size, dtype=np.int64) - prev) <= _WINDOW)
    cand_pos = np.flatnonzero(in_window)
    cand_list = cand_pos.tolist()
    cand_prev = prev[cand_pos].tolist()
    nc = len(cand_list)
    lit_start = 0
    i = 0
    ci = 0

    def flush_literals(upto: int) -> None:
        s = lit_start
        while s < upto:
            run = min(128, upto - s)
            tokens.append(run - 1)
            tokens.extend(data[s : s + run])
            s += run

    while True:
        # Jump straight to the next position with a usable candidate; the
        # bytes skipped over are literals by construction.
        ci = bisect_left(cand_list, i, ci)
        if ci >= nc:
            break
        i = cand_list[ci]
        cand = cand_prev[ci]
        length = _match_len(data, cand, i, n - i)
        flush_literals(i)
        off = i - cand
        q, r = divmod(length, _MAX_MATCH)
        if q:
            tokens += bytes((0x80 | (_MAX_MATCH - _MIN_MATCH), off & 0xFF, off >> 8)) * q
        if r >= _MIN_MATCH:
            tokens.append(0x80 | (r - _MIN_MATCH))
            tokens.append(off & 0xFF)
            tokens.append(off >> 8)
        else:
            # A sub-minimum tail stays unconsumed; the next round matches or
            # flushes it as literals.
            length -= r
        i += length
        lit_start = i
    flush_literals(n)

    if len(tokens) + 10 >= n:
        header.append(_MAGIC_STORED)
        encode_uvarint(n, header)
        return bytes(header) + data
    inc_counter("lz.kept")
    header.append(_MAGIC_COMPRESSED)
    encode_uvarint(n, header)
    return bytes(header) + bytes(tokens)


def lz_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`lz_compress`."""
    if not blob:
        raise EOFError("empty LZ stream")
    mode = blob[0]
    n, pos = decode_uvarint(blob, 1)
    if mode == _MAGIC_STORED:
        out = blob[pos : pos + n]
        if len(out) != n:
            raise EOFError("truncated stored LZ block")
        return bytes(out)
    if mode != _MAGIC_COMPRESSED:
        raise ValueError(f"bad LZ block mode {mode}")
    out = bytearray()
    data = blob
    end = len(blob)
    while len(out) < n:
        if pos >= end:
            raise EOFError("truncated LZ stream")
        ctrl = data[pos]
        pos += 1
        if ctrl & 0x80:
            length = (ctrl & 0x7F) + _MIN_MATCH
            if pos + 2 > end:
                raise EOFError("truncated LZ match token")
            off = data[pos] | (data[pos + 1] << 8)
            pos += 2
            if off == 0 or off > len(out):
                raise ValueError("invalid LZ match offset")
            start = len(out) - off
            if off >= length:
                out += out[start : start + length]
            else:  # overlapping match: copy byte-wise semantics
                for k in range(length):
                    out.append(out[start + k])
        else:
            run = ctrl + 1
            if pos + run > end:
                raise EOFError("truncated LZ literal run")
            out += data[pos : pos + run]
            pos += run
    if len(out) != n:
        raise ValueError("LZ stream decoded to wrong length")
    return bytes(out)
