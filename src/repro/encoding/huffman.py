"""Canonical, length-limited Huffman coding.

This is the entropy-coding substrate shared by SZ3, QoZ and CliZ (CliZ's
multi-Huffman scheme composes several instances, see
:mod:`repro.encoding.multihuffman`).

Implementation highlights:

* Code lengths come from the classic two-queue Huffman construction and are
  then repaired to a 16-bit ceiling by a Kraft-sum redistribution (increment
  lengths of the least-frequent overlong symbols until the Kraft inequality
  holds, then greedily shorten where slack remains). A 16-bit ceiling lets
  the scalar decoder use a single flat 65536-entry window table.
* Encoding is fully vectorized (gather 16-bit codes and 8-bit lengths per
  symbol, one merge-and-pack kernel in
  :class:`~repro.encoding.bitstream.BitWriter`).
* Decoding is a byte-wise state machine
  (:meth:`HuffmanCode.decode`). Its states are the code tree's
  internal nodes; a nibble table gives each (state, nibble) its next state
  and the bits where codewords end, and composing it with itself gives a
  (state, byte) next-state table. Many speculative chains walk the stream a
  byte per step in lockstep, each starting at the root a few codewords
  before its block; Huffman codes resynchronize, so most guessed start
  states are right, and the rest are re-walked from the previous chain's
  end state, cascading where a re-walk moves a chain's own end. The
  nibble rows then give every symbol and the end bit in a few vectorized
  gathers. Equal-length codebooks decode in closed form, and a stream
  that never resynchronizes finishes in the scalar loop, which is also
  the differential-testing oracle.
* The serialized form stores only (symbol, length) pairs — sorted symbols as
  zigzag-delta varints plus 4-bit length nibbles — and both sides rebuild the
  canonical codebook deterministically.
* Codebook work after counting costs O(used symbols), not O(alphabet).
  Quantization codes cluster around the radius, so a 32.8k-65.5k-entry
  alphabet typically uses a few hundred ids. One bool scan of the counts
  finds them; lengths, the canonical order and the codes are then built
  once, over those ids; ``serialize`` reuses them. A deserialized
  codebook keeps only the used ids, so decoding allocates nothing
  alphabet-sized whatever alphabet the table declares.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitstream import BitWriter
from repro.encoding.container import CorruptStreamError
from repro.encoding.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
    zigzag_decode,
    zigzag_encode,
)

__all__ = ["HuffmanCode", "MAX_CODE_LENGTH"]

MAX_CODE_LENGTH = 16

# State-machine decode knobs. The walk goes a byte per step once the stream
# has _BYTES_PER_STATE bytes per tree state (the byte table has 256 rows
# per state, the nibble table 16), a nibble per step otherwise. Each chain
# walks _WARMUP_CODEWORDS average codewords before its block, and a stream
# whose repairs take more than _MAX_ROUNDS rounds per 256 blocks goes to
# the scalar loop.
_BYTES_PER_STATE = 16
_WARMUP_CODEWORDS = 6
_MAX_ROUNDS = 16
_EOF_MSG = "corrupt or truncated Huffman stream"
_INF = float("inf")


def _huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Unrestricted Huffman code lengths for symbols with freq > 0.

    Returns an int array of the same size as ``freqs`` with 0 for unused
    symbols. Single-symbol alphabets get length 1.

    Two-queue construction: leaves sorted by (weight, symbol) in one queue,
    merged nodes in creation order in the other (their weights never
    decrease). Taking the lighter front, a leaf on equal weight, pops nodes
    in exactly the order of a heap keyed on (weight, tiebreak) with leaves
    tied by symbol and merged nodes by creation, so the tree is that heap's.
    """
    syms = np.flatnonzero(freqs)
    lengths = np.zeros(len(freqs), dtype=np.int64)
    n = len(syms)
    if n == 0:
        return lengths
    if n == 1:
        lengths[syms[0]] = 1
        return lengths
    leaves = syms[np.argsort(freqs[syms], kind="stable")]
    # An infinite sentinel ends each queue: a leaf is taken while it is no
    # heavier than the next merged node, and a merged node not yet made
    # reads as infinite.
    leaf_w = freqs[leaves].tolist() + [_INF]
    node_w = [_INF] * (n - 1)
    # parent[i]: merged node (0-based creation index) holding node i, where
    # i < n are the sorted leaves and n + k is the k-th merged node.
    parent = [0] * (2 * n - 2)
    i = j = 0
    for k in range(n - 1):
        if leaf_w[i] <= node_w[j]:
            w = leaf_w[i]
            parent[i] = k
            i += 1
        else:
            w = node_w[j]
            parent[n + j] = k
            j += 1
        if leaf_w[i] <= node_w[j]:
            w += leaf_w[i]
            parent[i] = k
            i += 1
        else:
            w += node_w[j]
            parent[n + j] = k
            j += 1
        node_w[k] = w
    # Depth of each merged node, root (the last one) first.
    depth = [0] * (n - 1)
    for k in range(n - 3, -1, -1):
        depth[k] = depth[parent[n + k]] + 1
    lengths[leaves] = np.asarray(depth, dtype=np.int64)[parent[:n]] + 1
    return lengths


def _limit_lengths(lengths: np.ndarray, freqs: np.ndarray, max_len: int) -> np.ndarray:
    """Repair ``lengths`` so that max(length) <= max_len and Kraft sum <= 1.

    Strategy: clamp overlong codes to ``max_len``; while the Kraft sum
    exceeds 1, lengthen the cheapest (least-frequent) symbol that still has
    room; afterwards shorten the most frequent symbols while slack remains.
    The result is always a valid (decodable) canonical code; optimality is
    sacrificed only in the rare clamped cases.
    """
    lengths = lengths.copy()
    used = lengths > 0
    if not used.any():
        return lengths
    np.minimum(lengths, max_len, out=lengths, where=used)
    # Kraft sum in units of 2^-max_len to stay in exact integer arithmetic.
    unit = 1 << max_len
    kraft = int((1 << (max_len - lengths[used])).sum())
    if kraft > unit:
        # Lengthen least-frequent symbols first (cheapest in expected bits).
        order = np.flatnonzero(used)
        order = order[np.argsort(freqs[order], kind="stable")]
        while kraft > unit:
            progressed = False
            for s in order:
                if lengths[s] < max_len:
                    kraft -= 1 << (max_len - lengths[s] - 1)
                    lengths[s] += 1
                    progressed = True
                    if kraft <= unit:
                        break
            if not progressed:  # pragma: no cover - cannot happen for n<=2^max_len
                raise ValueError("cannot satisfy code length limit")
    if kraft < unit:
        # Use remaining slack on the most frequent symbols.
        order = np.flatnonzero(used)
        order = order[np.argsort(-freqs[order], kind="stable")]
        improved = True
        while improved:
            improved = False
            for s in order:
                if lengths[s] > 1:
                    gain = 1 << (max_len - lengths[s])
                    if kraft + gain <= unit:
                        kraft += gain
                        lengths[s] -= 1
                        improved = True
    return lengths


def _canonical_codes(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order and codes: used entries sorted by (length, index).

    ``lengths`` holds one code length per entry, 0 for an unused one.
    Returns ``(order, codes)``: the indices of the used entries in
    canonical order and, aligned with them, their ``uint32`` codes. The
    first code of each length is ``(first[l-1] + count[l-1]) << 1``; an
    entry's code is its length's first code plus its rank among the
    entries of that length.
    """
    order = np.argsort(lengths, kind="stable")
    order = order[len(lengths) - np.count_nonzero(lengths):]
    if len(order) == 0:
        return order, np.zeros(0, dtype=np.uint32)
    sorted_len = lengths[order].astype(np.int64)
    count = np.bincount(sorted_len)
    first = np.zeros(len(count), dtype=np.int64)
    for ln in range(1, len(count)):
        first[ln] = (first[ln - 1] + count[ln - 1]) << 1
    start = np.cumsum(count) - count  # sorted position of each length's first entry
    rank = np.arange(len(order), dtype=np.int64) - start[sorted_len]
    return order, (first[sorted_len] + rank).astype(np.uint32)


class _Machine:
    """Decode tables over the internal nodes of a canonical code tree.

    A state is an internal node: a proper prefix of some codeword, the
    root (state 0) first, then by depth and value. One more state,
    ``dead``, is where bits no codeword starts with lead; it absorbs.
    Row ``s << 4 | x`` of the nibble tables describes reading nibble ``x``
    (high bit first) in state ``s``: ``nib_step`` holds the state after
    it (shifted left by 4, so that ``nib_step[row] | next_nibble`` is the
    next row); for each of its bits ``j``, byte ``j`` of ``emit_bits[row]``
    is 1 if a codeword ends at that bit and ``symbols[4 * row + j]`` is
    that codeword's symbol.
    """

    def __init__(self, order: np.ndarray, order_len: np.ndarray) -> None:
        # Canonical layout: the codewords of length d are the d-bit values
        # first[d] .. first[d] + count[d] - 1, and the internal nodes at
        # depth d the values after them up to the last codeword's d-bit
        # prefix; past that, a Kraft-deficient code has dead values.
        lmax = int(order_len[-1])
        count = np.bincount(order_len, minlength=lmax + 1).tolist()
        first = [0] * (lmax + 1)
        for d in range(1, lmax + 1):
            first[d] = (first[d - 1] + count[d - 1]) << 1
        last = first[lmax] + count[lmax] - 1
        n_int = [(last >> (lmax - d)) - first[d] - count[d] + 1 for d in range(lmax)] + [0]
        self.n_states = dead = sum(n_int)
        # One bit: list the children of every internal node, by depth and
        # then value. At each depth they are the leaves (in canonical
        # order), then the internal nodes (states 1, 2, ... in order),
        # then the dead values, so three run lengths per depth say which.
        sizes = [k for d in range(1, lmax + 1) for k in
                 (count[d], n_int[d], 2 * n_int[d - 1] - count[d] - n_int[d])]
        kind = np.repeat(np.tile(np.arange(3, dtype=np.int8), lmax), sizes)
        nxt = np.full(2 * dead + 2, dead, dtype=np.int32)  # the dead state's too
        nxt[:-2][kind == 0] = 0
        nxt[:-2][kind == 1] = np.arange(1, dead, dtype=np.int32)
        emit = np.zeros(2 * dead + 2, dtype="<u1")
        emit[:-2] = kind == 0
        rank = np.zeros(2 * dead + 2, dtype="<u2")
        rank[:-2][kind == 0] = np.arange(order.size, dtype=np.uint16)
        emit, rank, nxt = (t.reshape(dead + 1, 2) for t in (emit, rank, nxt))
        # Two doublings, 1 -> 2 -> 4 bits: reading x_hi then x_lo is the
        # row of x_hi, then the row of x_lo in the state x_hi leads to.
        # Per-bit fields are packed into one integer, first bit lowest.
        for bits, e_t, r_t in ((1, "<u2", "<u4"), (2, "<u4", "<u8")):
            emit = emit[:, :, None].astype(e_t) | (
                np.take(emit, nxt, axis=0).astype(e_t) << (8 * bits))
            rank = rank[:, :, None].astype(r_t) | (
                np.take(rank, nxt, axis=0).astype(r_t) << (16 * bits))
            nxt = np.take(nxt, nxt, axis=0)
            emit, rank, nxt = (a.reshape(dead + 1, -1) for a in (emit, rank, nxt))
        self.nib_step = nxt.reshape(-1) << 4
        self.emit_bits = emit.reshape(-1)
        self.symbols = np.take(order, rank.reshape(-1).view("<u2"))
        self._byte_step: np.ndarray | None = None

    def byte_step(self) -> np.ndarray:
        """``nib_step`` composed with itself: one row per (state, byte)."""
        if self._byte_step is None:
            nxt = (self.nib_step >> 4).reshape(-1, 16)
            self._byte_step = np.take(nxt << 8, nxt, axis=0).reshape(-1)
        return self._byte_step


def _walk(step: np.ndarray, units: np.ndarray, shift: int, warm: int) -> np.ndarray | None:
    """Table rows ``state << shift | unit`` of every unit of the stream.

    ``step[row]`` is the state after reading the row's unit, shifted left
    by ``shift``. The stream is cut into blocks, one chain per block, and
    chain k > 0 guesses its start state by walking ``warm`` units from
    the root before its block. A chain is flagged when its start differs
    from the previous chain's end. Each round re-walks the first chain of
    every run of flagged chains from its predecessor's end; if that moves
    its own end, the next chain is flagged in turn (a cascade), while a
    chain flagged only because its predecessor was wrong often matches
    once the predecessor is mended. The first flagged chain always has a
    final predecessor, so every round mends at least one chain. Returns
    None if flags remain after ``_MAX_ROUNDS * (1 + chains // 256)``
    rounds: past that, the scalar loop is the cheaper way on.
    """
    n = units.size
    # ~sqrt(n) / 8 units per block, a power of two in 16..64 (or the whole
    # of a shorter stream): then if every code length is a multiple of an
    # odd g (say 3), successive blocks start in different bit phases mod g.
    length = min(n, 16 << min(2, max(0, n.bit_length() // 2 - 7)))
    warm = max(1, min(warm, length - 1))
    chains = -(-n // length)
    flat = np.zeros(chains * length, dtype=np.int32)
    flat[:n] = units
    x = np.ascontiguousarray(flat.reshape(chains, length).T)  # x[t, k]: unit k*length + t
    rec = np.empty((length, chains), dtype=np.int32)
    guess = x[length - warm, :-1]
    for t in range(length - warm + 1, length):
        guess = np.take(step, guess) | x[t, :-1]
    rec[0, 0] = x[0, 0]
    rec[0, 1:] = np.take(step, guess) | x[0, 1:]
    _run(step, x, rec)
    ends = np.take(step, rec[-1])
    keep_state = -1 << shift
    rounds_left = _MAX_ROUNDS * (1 + chains // 256)
    while True:
        flagged = rec[0, 1:] & keep_state != ends[:-1]
        if not flagged.any():
            return rec.T.reshape(-1)[:n]
        if not rounds_left:
            return None
        rounds_left -= 1
        flagged[1:] &= ~flagged[:-1].copy()  # the first chain of each run
        heads = np.flatnonzero(flagged) + 1
        xh = x[:, heads]
        sub = np.empty_like(xh)
        sub[0] = ends[heads - 1] | xh[0]
        _run(step, xh, sub)
        rec[:, heads] = sub
        ends[heads] = np.take(step, sub[-1])


def _run(step: np.ndarray, x: np.ndarray, rec: np.ndarray) -> None:
    """Fill rows 1.. of ``rec`` by walking every column on from row 0."""
    for t in range(1, len(rec)):
        row = rec[t]
        np.take(step, rec[t - 1], out=row)
        row |= x[t]


class HuffmanCode:
    """A canonical Huffman codebook over the alphabet ``0..alphabet_size-1``.

    Build one with :meth:`from_frequencies`, then :meth:`encode` symbol
    arrays into a :class:`BitWriter` and :meth:`decode` them back from bytes.
    """

    def __init__(self, lengths: np.ndarray, used: np.ndarray | None = None) -> None:
        """Codebook for per-symbol code ``lengths`` (0 = no codeword).

        ``used`` lists the ascending ids of the symbols with a codeword
        when the caller already has them; otherwise one scan finds them.
        Every later step works on those ids only.
        """
        lengths = np.asarray(lengths, dtype=np.uint8)
        used = np.flatnonzero(lengths) if used is None else used
        self._set_used(used, lengths[used], lengths.size)
        self._lengths = lengths

    @classmethod
    def _from_used(cls, used: np.ndarray, used_len: np.ndarray,
                   alphabet_size: int) -> "HuffmanCode":
        """Codebook from the ascending used ids and their lengths alone."""
        code = cls.__new__(cls)
        code._set_used(used, used_len, alphabet_size)
        return code

    def _set_used(self, used: np.ndarray, used_len: np.ndarray, alphabet_size: int) -> None:
        if used_len.size and int(used_len.max()) > MAX_CODE_LENGTH:
            raise ValueError("code length exceeds MAX_CODE_LENGTH")
        kraft = int((1 << (MAX_CODE_LENGTH - used_len.astype(np.int64))).sum())
        if kraft > 1 << MAX_CODE_LENGTH:
            raise ValueError("code lengths violate the Kraft inequality")
        order, codes = _canonical_codes(used_len)
        self._used = used
        self._used_len = used_len
        self._alphabet_size = alphabet_size
        # Symbols, lengths and codes in canonical (length, symbol) order.
        self._order = used[order]
        self._order_len = used_len[order]
        self._order_codes = codes
        self._lengths: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._decode_sym: list[int] | None = None
        self._decode_len: list[int] | None = None
        self._machine: _Machine | None = None

    @property
    def lengths(self) -> np.ndarray:
        """Code length of every symbol id, 0 for an unused one.

        Alphabet-sized, so built on first use: a decoded codebook never
        needs it, and its stream may declare a huge alphabet.
        """
        if self._lengths is None:
            self._lengths = np.zeros(self._alphabet_size, dtype=np.uint8)
            self._lengths[self._used] = self._used_len
        return self._lengths

    @property
    def codes(self) -> np.ndarray:
        """Canonical code of every symbol id (``uint16``), built on first use."""
        if self._codes is None:
            self._codes = np.zeros(self._alphabet_size, dtype=np.uint16)
            self._codes[self._order] = self._order_codes
        return self._codes

    # ------------------------------------------------------------------ #
    @classmethod
    def from_frequencies(cls, freqs: np.ndarray) -> "HuffmanCode":
        """Build an (almost) optimal length-limited code from symbol counts.

        Both length builds order symbols by (weight, id), so running them
        on the used ids alone gives the lengths a full-alphabet build
        would.
        """
        freqs = np.asarray(freqs, dtype=np.int64)
        if freqs.size and int(freqs.min()) < 0:
            raise ValueError("frequencies must be non-negative")
        used = np.flatnonzero(freqs != 0)  # a bool scan: ~10x faster than on int64
        counts = freqs[used]
        lengths = np.zeros(freqs.size, dtype=np.uint8)
        lengths[used] = _limit_lengths(_huffman_lengths(counts), counts, MAX_CODE_LENGTH)
        return cls(lengths, used)

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, alphabet_size: int | None = None) -> "HuffmanCode":
        """Build a code from an observed symbol array."""
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size and int(symbols.min()) < 0:
            raise ValueError("symbols must be non-negative")
        minlength = 1 if alphabet_size is None else alphabet_size
        return cls.from_frequencies(np.bincount(symbols, minlength=minlength))

    @property
    def alphabet_size(self) -> int:
        return self._alphabet_size

    def expected_bits(self, freqs: np.ndarray) -> int:
        """Total encoded size in bits for the given symbol counts."""
        freqs = np.asarray(freqs, dtype=np.int64)
        return int((freqs * self.lengths[: len(freqs)].astype(np.int64)).sum())

    # ------------------------------------------------------------------ #
    def encode(self, symbols: np.ndarray, writer: BitWriter) -> None:
        """Append the codewords for ``symbols`` to ``writer`` (vectorized)."""
        symbols = np.asarray(symbols, dtype=np.int64).ravel()
        if symbols.size == 0:
            return
        lens = self.lengths[symbols]
        if (lens == 0).any():
            bad = symbols[lens == 0][0]
            raise ValueError(f"symbol {bad} has no codeword (zero frequency at build time)")
        writer.write_varwidth(self.codes[symbols], lens)

    def _decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat tables of the symbol and code length for each 16-bit window.

        Canonical codes tile the window space in canonical order, each
        covering ``2**(16 - length)`` windows, so one ``np.repeat`` per
        table fills it. Windows past the last code (a Kraft-deficient
        code) keep length 0, which decoders read as an invalid prefix.
        """
        size = 1 << MAX_CODE_LENGTH
        widths = 1 << (MAX_CODE_LENGTH - self._order_len.astype(np.int64))
        n = int(widths.sum())
        sym_t = np.zeros(size, dtype=np.int64)
        len_t = np.zeros(size, dtype=np.uint8)
        sym_t[:n] = np.repeat(self._order, widths)
        len_t[:n] = np.repeat(self._order_len, widths)
        return sym_t, len_t

    def decode_scalar(self, data: bytes, n_symbols: int) -> tuple[np.ndarray, int]:
        """Scalar reference decoder (one table lookup per symbol).

        Kept as the differential-testing oracle for the state machine and
        as its fallback for streams that do not resynchronize.
        """
        if self._decode_sym is None:
            # Plain lists: element access is ~3x faster than ndarray scalar
            # access. Only this loop reads them, so they are built here.
            sym_np, len_np = self._decode_tables()
            self._decode_sym = sym_np.tolist()
            self._decode_len = len_np.tolist()
        sym_t = self._decode_sym
        len_t = self._decode_len
        assert sym_t is not None and len_t is not None
        nbits = len(data) * 8
        if n_symbols and nbits == 0:
            raise EOFError(_EOF_MSG)
        buf = bytes(data) + b"\x00\x00\x00"
        out = [0] * n_symbols
        pos = 0
        for i in range(n_symbols):
            byte = pos >> 3
            w = (((buf[byte] << 16) | (buf[byte + 1] << 8) | buf[byte + 2]) >> (8 - (pos & 7))) & 0xFFFF
            ln = len_t[w]
            if ln == 0 or pos + ln > nbits:
                raise EOFError(_EOF_MSG)
            out[i] = sym_t[w]
            pos += ln
        return np.array(out, dtype=np.int64), pos

    def decode(self, data: bytes, n_symbols: int) -> tuple[np.ndarray, int]:
        """Decode ``n_symbols`` codewords from the start of ``data``.

        Returns ``(symbols, end_bit)``. This is a byte-wise state machine
        (speculative chains + repair) whose states are the code tree's
        internal nodes (:class:`_Machine`). On a freshly read codebook it
        beats :meth:`decode_scalar` even at 16 symbols, because the scalar
        loop's 65536-entry window table costs ~2.5 ms to build.

        1. Equal-length codebooks finish in closed form (codeword ``k``
           starts at bit ``k * L``).
        2. Walk: the stream is cut into blocks, and one chain per block
           walks it a byte per step (a nibble on large trees or short
           streams), all chains in lockstep. Each chain starts at the root
           a few codewords before its block, so its guessed start state is
           usually already the true one (Huffman codes resynchronize).
        3. Repair: a chain whose guess differs from the previous chain's
           end state is re-walked from that state, and a re-walk that
           changes the chain's own end state flags the next chain, so
           repairs cascade (:func:`_walk`). A stream that needs too many
           rounds (e.g. every code length a multiple of 3, which never
           resynchronizes) finishes in the scalar loop.
        4. Emit: the nibble-table row of every nibble marks the bits where
           codewords end, in stream order; the first ``n_symbols`` marks
           give the symbols, and the last one the end bit.
        """
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int64), 0
        if self._order.size == 0 or not len(data):
            raise EOFError(_EOF_MSG)
        # n symbols span at most 16n bits; never touch (or allocate) more.
        nbytes = min(len(data), 2 * n_symbols)
        buf = np.frombuffer(data, dtype=np.uint8, count=nbytes)
        if self._order_len[0] == self._order_len[-1]:
            return self._decode_equal_length(buf, n_symbols, len(data) * 8)
        if self._machine is None:
            self._machine = _Machine(self._order, self._order_len)
        m = self._machine
        if nbytes >= _BYTES_PER_STATE * m.n_states:
            shift, step, units = 8, m.byte_step(), buf
        else:
            shift, step = 4, m.nib_step
            units = np.empty(2 * nbytes, dtype=np.uint8)
            np.right_shift(buf, 4, out=units[0::2])
            np.bitwise_and(buf, 15, out=units[1::2])
        warm = -(-_WARMUP_CODEWORDS * 8 * nbytes // (n_symbols * shift))
        walk = _walk(step, units, shift, warm)
        if walk is None:
            return self.decode_scalar(data, n_symbols)
        if shift == 8:
            # walk = state << 8 | byte, so walk >> 4 = state << 4 | high nibble
            nib = np.empty((nbytes, 2), dtype=np.int32)
            np.right_shift(walk, 4, out=nib[:, 0])
            np.take(m.nib_step, nib[:, 0], out=nib[:, 1])
            nib[:, 1] |= walk & 15
            nib = nib.reshape(-1)
        else:
            nib = walk
        # Bit 4k + j of the stream ends a codeword iff byte j of
        # emit_bits[nib[k]] is 1.
        ends = np.flatnonzero(np.take(m.emit_bits, nib).view(bool))
        if ends.size < n_symbols:
            raise EOFError(_EOF_MSG)
        ends = ends[:n_symbols]
        rows = np.take(nib, ends >> 2)
        rows <<= 2
        rows |= ends & 3
        return np.take(m.symbols, rows), int(ends[-1]) + 1

    def _decode_equal_length(self, buf: np.ndarray, n_symbols: int,
                             nbits: int) -> tuple[np.ndarray, int]:
        """Closed form for a codebook whose codewords all have one length."""
        step = int(self._order_len[0])
        end = step * n_symbols
        if end > nbits:
            raise EOFError(_EOF_MSG)
        b = np.zeros(buf.size + 3, dtype=np.int32)
        b[: buf.size] = buf
        pos = step * np.arange(n_symbols, dtype=np.int64)
        byte = pos >> 3
        words = (b[byte] << 16) | (b[byte + 1] << 8) | b[byte + 2]
        codes = (words >> (24 - step - (pos & 7))) & ((1 << step) - 1)
        if int(codes.max()) >= self._order.size:  # past the last codeword
            raise EOFError(_EOF_MSG)
        return self._order[codes], end

    # ------------------------------------------------------------------ #
    def serialize(self) -> bytes:
        """Compact codebook serialization: (count, delta-coded symbols, nibbled lengths)."""
        used = self._used
        out = bytearray()
        encode_uvarint(len(used), out)
        encode_uvarint(self.alphabet_size, out)
        if len(used) == 0:
            return bytes(out)
        deltas = np.diff(used, prepend=0)
        out += encode_uvarint_array(zigzag_encode(deltas))
        lens = self._used_len - 1  # 1..16 -> 0..15
        if len(lens) % 2:
            lens = np.concatenate([lens, np.zeros(1, dtype=np.uint8)])
        nibbles = (lens[0::2] << 4) | lens[1::2]
        out += nibbles.tobytes()
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes, pos: int = 0) -> tuple["HuffmanCode", int]:
        """Inverse of :meth:`serialize`; returns ``(code, new_pos)``.

        Rejects a table whose symbol ids are not strictly ascending within
        ``[0, alphabet)`` (:class:`CorruptStreamError`) or whose lengths
        overfill the code space (Kraft sum above 1, :class:`ValueError`).
        Nothing alphabet-sized is allocated, so a table may declare any
        alphabet: chunked streams written with the retired chunk codebook
        cache declare padded ones.
        """
        n_used, pos = decode_uvarint(data, pos)
        alphabet, pos = decode_uvarint(data, pos)
        deltas, pos = decode_uvarint_array(data, n_used, pos)
        symbols = np.cumsum(zigzag_decode(deltas))
        if n_used and (symbols[0] < 0 or symbols[-1] >= alphabet
                       or (np.diff(symbols) <= 0).any()):
            raise CorruptStreamError(
                "Huffman table symbols are not strictly ascending within the alphabet")
        n_nib_bytes = (n_used + 1) // 2
        nibbles = np.frombuffer(data[pos : pos + n_nib_bytes], dtype=np.uint8)
        if len(nibbles) != n_nib_bytes:
            raise EOFError("truncated Huffman table")
        pos += n_nib_bytes
        lens = np.empty(n_nib_bytes * 2, dtype=np.uint8)
        lens[0::2] = nibbles >> 4
        lens[1::2] = nibbles & 0x0F
        return cls._from_used(symbols, lens[:n_used] + 1, alphabet), pos
