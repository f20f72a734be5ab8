"""Greedy LZ77 — the from-scratch stand-in for SZ3's Zstd stage.

The SZ3 pipeline (and therefore CliZ's) runs a general-purpose LZ coder over
the Huffman output to squeeze residual redundancy (long zero runs, repeated
code patterns). Any LZ-family coder fills that role; this one uses:

* an exact nearest-previous-occurrence index over 4-byte shingles, built
  with one in-place sort of packed ``uint64`` keys ``(shingle << 32) |
  position`` (keys are unique, so equal shingles end up adjacent in
  position order, exactly as under a stable argsort, and a key's sorted
  predecessor is its position's nearest earlier occurrence when the two
  keys differ by at most the window) — no hash table and no per-byte
  Python loop; positions and the window must fit the low 32 bits, so
  larger inputs take the stable argsort instead,
* a greedy parse, window 65535 bytes: at the first position with an
  in-window candidate, take the whole common prefix with that nearest
  occurrence, then continue after it,
* a byte-oriented token format: control byte ``0xxxxxxx`` = literal run of
  ``x+1`` bytes (1..128) follows; ``1xxxxxxx`` = match of length ``x+4``
  (4..131) with a 2-byte little-endian offset; longer matches emit a
  run of repeated 131-byte match tokens, and a sub-4 tail is left to the
  next round.

Inputs of ``_VECTOR_MIN_BYTES`` or more are parsed in array passes. A
candidate whose successor continues the same match (both positions one
further) has its successor's length plus one, so only chain ends are
compared against the data (``_PROBE`` bytes in one pass; the rare longer
ones are extended only if the parse reaches them). ``searchsorted`` then
gives each candidate its successor in the greedy chain, and the chain is
followed from the first candidate. The token count follows exactly from
the chosen matches and the literal gaps, so a block that would not beat
the stored form is returned stored before any token is built; otherwise
literal runs and match tokens are scattered into one preallocated array.
Shorter inputs, where those passes cost more than they save, run the same
parse as a loop over the matches. A block with too few candidates to beat
the stored form in any parse skips the parse altogether.

``compress`` falls back to a stored block when expansion would occur, so
the output is never more than ``len(data) + 6`` bytes. The active obs run
counts each block ``compress`` tries in ``lz.attempted`` and each block
that beat the stored form in ``lz.kept``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.encoding.container import CorruptStreamError
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.obs import inc_counter

__all__ = ["lz_compress", "lz_decompress"]

_WINDOW = 65535
_MIN_MATCH = 4
_MAX_MATCH = 131  # per token; longer matches chain tokens
_MAX_LITERALS = 128  # per literal run
_MAGIC_COMPRESSED = 1
_MAGIC_STORED = 0
_PACK_LIMIT = 1 << 32  # shingle positions must fit the low half of the key
#: Bytes past the shingle that the array parse compares at every chain end.
_PROBE = 16
#: Inputs this long or longer take the array parse; shorter ones the loop.
_VECTOR_MIN_BYTES = 8192


def _match_candidates(data: bytes, window: int = _WINDOW) -> tuple[np.ndarray, np.ndarray]:
    """Positions whose 4-byte shingle occurred at most ``window`` bytes back.

    Returns ``(at, src)``: every such position in increasing order and the
    nearest earlier position with the same shingle, both ``int64``.
    """
    m = len(data) - 3
    shingles = np.ndarray((m,), dtype="<u4", buffer=data, strides=(1,))
    if m + window < _PACK_LIMIT:
        # With positions and window below 2**32, two sorted keys are at
        # most ``window`` apart only if their shingles are equal.
        key = np.arange(m, dtype=np.uint64)
        key |= shingles.astype(np.uint64) << np.uint64(32)
        key.sort()
        gap = np.diff(key)
        near = np.flatnonzero(gap <= window)
        at = key[1:][near] & np.uint64(0xFFFFFFFF)
        off = gap[near]
    else:
        order = np.argsort(shingles, kind="stable").astype(np.uint64)
        same = np.flatnonzero(shingles[order[1:]] == shingles[order[:-1]])
        at = order[1:][same]
        off = at - order[:-1][same]
        near = off <= window
        at, off = at[near], off[near]
    # One more sort puts the pairs in position order: (position, offset)
    # packs into one key, as the offset fits below the window's top bit.
    shift = int(window).bit_length()
    pair = ((at << np.uint64(shift)) | off).view(np.int64)
    pair.sort()
    at = pair >> shift
    return at, at - (pair & ((1 << shift) - 1))


def _match_len(data: bytes, cand: int, i: int, maxl: int, length: int = _MIN_MATCH) -> int:
    """Common-prefix length of ``data[cand:]`` vs ``data[i:]``, in ``[length, maxl]``.

    The first ``length`` bytes are known to match. Compares in doubling
    chunks via C-level ``bytes`` equality; overlapping sources
    (``cand + length > i``) are fine because both sides index the
    original buffer.
    """
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


def _consumed(length: int) -> int:
    """Bytes a match of ``length`` covers: a sub-minimum tail is left over."""
    r = length % _MAX_MATCH
    return length - r if r < _MIN_MATCH else length


def _put_literals(tokens: bytearray, data: bytes, start: int, stop: int) -> None:
    while start < stop:
        run = min(_MAX_LITERALS, stop - start)
        tokens.append(run - 1)
        tokens += data[start : start + run]
        start += run


def _tokens_loop(data: bytes, at: np.ndarray, src: np.ndarray) -> bytearray:
    """The greedy parse as one loop iteration per match, tokens as it goes."""
    n = len(data)
    positions = at.tolist()
    sources = src.tolist()
    tokens = bytearray()
    lit_start = i = ci = 0
    while True:
        # Jump straight to the next position with a usable candidate; the
        # bytes skipped over are literals by construction.
        ci = bisect_left(positions, i, ci)
        if ci >= len(positions):
            break
        i = positions[ci]
        cand = sources[ci]
        length = _match_len(data, cand, i, n - i)
        _put_literals(tokens, data, lit_start, i)
        off = i - cand
        q, r = divmod(length, _MAX_MATCH)
        tokens += bytes((0x80 | (_MAX_MATCH - _MIN_MATCH), off & 0xFF, off >> 8)) * q
        if r >= _MIN_MATCH:
            tokens += bytes((0x80 | (r - _MIN_MATCH), off & 0xFF, off >> 8))
        i += _consumed(length)
        lit_start = i
    _put_literals(tokens, data, lit_start, n)
    return tokens


def _greedy_matches(data: bytes, at: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, ...]:
    """The greedy parse in array passes: ``(position, length, source)`` per match."""
    n = len(data)
    nc = at.size
    # A chain ends where the next candidate does not continue its match.
    last = np.empty(nc, dtype=bool)
    np.not_equal(at[1:] - at[:-1], 1, out=last[:-1])
    last[:-1] |= src[1:] - src[:-1] != 1
    last[-1] = True
    ends = np.flatnonzero(last)
    chain = np.empty_like(ends)
    chain[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=chain[1:])
    head = at[ends]
    # Row i holds the _PROBE bytes from i on (zero-padded past the end).
    rows = np.ndarray((n + 1, _PROBE), dtype=np.uint8, buffer=data + bytes(_PROBE),
                      strides=(1, 1))
    differ = np.empty((ends.size, _PROBE + 1), dtype=bool)
    np.not_equal(rows[head + _MIN_MATCH], rows[src[ends] + _MIN_MATCH],
                 out=differ[:, :_PROBE])
    differ[:, _PROBE] = True  # a chain end that matches the whole probe stops here
    stop = head + _MIN_MATCH + differ.argmax(axis=1)
    np.minimum(stop, n, out=stop)  # the padding may "match" past the end
    length = np.repeat(stop, chain) - at
    r = length % _MAX_MATCH
    nxt = np.searchsorted(at, at + length - np.where(r < _MIN_MATCH, r, 0))
    # Chains that matched the whole probe are measured only if the parse
    # lands on them.
    open_ = (stop - head == _MIN_MATCH + _PROBE) & (stop < n)
    if open_.any():
        nxt[np.repeat(open_, chain)] = -1
    step = nxt.item
    path = []
    k = 0
    while k < nc:
        path.append(k)
        j = step(k)
        if j < 0:
            e = int(ends[np.searchsorted(ends, k)])
            i, end_at = int(at[k]), int(at[e])
            full = end_at + _match_len(data, int(src[e]), end_at, n - end_at,
                                       _MIN_MATCH + _PROBE) - i
            length[k] = full
            j = int(np.searchsorted(at, i + _consumed(full)))
        k = j
    chosen = np.array(path)
    return at[chosen], length[chosen], src[chosen]


def _tokens_arrays(data: bytes, at: np.ndarray, src: np.ndarray) -> np.ndarray | None:
    """The greedy parse's tokens in one array, or None if stored is smaller."""
    n = len(data)
    pos, length, source = _greedy_matches(data, at, src)
    q, r = np.divmod(length, _MAX_MATCH)
    tail = r >= _MIN_MATCH
    ntok = q + tail
    # Segments alternate literal gap, match: gap 0, match 0, ..., last gap.
    seg = np.empty(2 * pos.size + 1, dtype=np.int64)
    covered = seg[1::2]
    np.subtract(length, r, out=covered)
    covered[tail] = length[tail]
    gaps = seg[0::2]
    gaps[:-1] = pos
    gaps[-1] = n
    gaps[1:] -= pos + covered
    runs = -(-gaps // _MAX_LITERALS)
    size = n + int(runs.sum()) + int(3 * ntok.sum() - covered.sum())
    if size + 10 >= n:
        return None
    literal = np.zeros(seg.size, dtype=bool)
    literal[0::2] = True
    take = np.repeat(literal, seg)  # the input bytes that go out as literals
    gaps = gaps.copy()
    seg[0::2] += runs
    seg[1::2] = 3 * ntok
    put = np.repeat(literal, seg)  # where they go, once control bytes are out
    begin = np.cumsum(seg)
    begin -= seg
    out = np.empty(size, dtype=np.uint8)
    # Literal runs: a control byte every 129 output bytes of a gap.
    first = np.cumsum(runs)
    k = np.arange(first[-1])
    first -= runs
    k -= np.repeat(first, runs)
    ctrl = np.repeat(begin[0::2], runs)
    ctrl += (_MAX_LITERALS + 1) * k
    out[ctrl] = np.minimum(np.repeat(gaps, runs) - _MAX_LITERALS * k, _MAX_LITERALS) - 1
    put[ctrl] = False
    # Match tokens: q full-length tokens, then the tail token if any.
    first = np.cumsum(ntok)
    k = np.arange(first[-1])
    first -= ntok
    k -= np.repeat(first, ntok)
    tok = np.empty((k.size, 3), dtype=np.uint8)
    tok[:, 0] = 0x80 | (_MAX_MATCH - _MIN_MATCH)
    tok[(first + q)[tail], 0] = 0x80 | (r[tail] - _MIN_MATCH)
    off = np.repeat(pos - source, ntok)
    tok[:, 1] = off & 0xFF
    tok[:, 2] = off >> 8
    where = np.repeat(begin[1::2], ntok)
    where += 3 * k
    out[(where[:, None] + np.arange(3)).ravel()] = tok.ravel()
    out[put] = np.frombuffer(data, dtype=np.uint8)[take]
    return out


def _block(mode: int, n: int, body) -> bytes:
    header = bytearray((mode,))
    encode_uvarint(n, header)
    return b"".join((header, body))


def lz_compress(data: bytes) -> bytes:
    """Compress ``data``; always decompressible by :func:`lz_decompress`."""
    data = bytes(data)
    n = len(data)
    if n < 16:
        return _block(_MAGIC_STORED, n, data)
    inc_counter("lz.attempted")
    at, src = _match_candidates(data)
    # A match saves at most its candidate count over literals, and literal
    # runs cost a control byte per 128: with this few candidates no parse
    # beats the stored form.
    if 132 * at.size <= n + 1280:
        return _block(_MAGIC_STORED, n, data)
    tokens: np.ndarray | bytearray | None
    if n >= _VECTOR_MIN_BYTES:
        tokens = _tokens_arrays(data, at, src)
    else:
        tokens = _tokens_loop(data, at, src)
    if tokens is None or len(tokens) + 10 >= n:
        return _block(_MAGIC_STORED, n, data)
    inc_counter("lz.kept")
    return _block(_MAGIC_COMPRESSED, n, tokens)


def lz_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`lz_compress`; bytes after the block are an error."""
    if not blob:
        raise EOFError("empty LZ stream")
    mode = blob[0]
    n, pos = decode_uvarint(blob, 1)
    end = len(blob)
    if mode == _MAGIC_STORED:
        if end - pos < n:
            raise EOFError("truncated stored LZ block")
        if end - pos > n:
            raise CorruptStreamError(f"{end - pos - n} trailing bytes after stored LZ block")
        return bytes(blob[pos:])
    if mode != _MAGIC_COMPRESSED:
        raise ValueError(f"bad LZ block mode {mode}")
    out = bytearray()
    data = blob
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
            else:  # overlapping match: the last ``off`` bytes repeat
                out += (out[start:] * (length // off + 1))[:length]
        else:
            run = ctrl + 1
            if pos + run > end:
                raise EOFError("truncated LZ literal run")
            out += data[pos : pos + run]
            pos += run
    if len(out) != n:
        raise ValueError("LZ stream decoded to wrong length")
    if pos != end:
        raise CorruptStreamError(f"{end - pos} trailing bytes after LZ block")
    return bytes(out)
