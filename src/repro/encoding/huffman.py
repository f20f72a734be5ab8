"""Canonical, length-limited Huffman coding.

This is the entropy-coding substrate shared by SZ3, QoZ and CliZ (CliZ's
multi-Huffman scheme composes several instances, see
:mod:`repro.encoding.multihuffman`).

Implementation highlights:

* Code lengths come from the classic two-queue Huffman construction and are
  then repaired to a 16-bit ceiling by a Kraft-sum redistribution (increment
  lengths of the least-frequent overlong symbols until the Kraft inequality
  holds, then greedily shorten where slack remains). A 16-bit ceiling lets
  the decoder use a single flat 65536-entry lookup table.
* Encoding is fully vectorized (gather codes/lengths per symbol, one bulk
  word-plane pack in :class:`~repro.encoding.bitstream.BitWriter`).
* Decoding dispatches between two kernels. Small streams use a tight scalar
  loop (16-bit window per symbol, C-level ``bytes`` indexing, plain-list
  table lookups). Large streams use a batched NumPy kernel
  (:meth:`HuffmanCode.decode_vectorized`): phase 1 looks up only the
  codeword length of the 16-bit window at *every* bit position, in one
  vectorized pass over a ``uint8`` table, then many chains are walked in
  lockstep from evenly spaced anchor bit positions. Chains started at wrong
  positions resynchronize with the true codeword chain after a few symbols
  (the classic Huffman self-synchronization property), so a final stitch
  pass only has to follow the true chain at anchor granularity, copying
  whole spans of already-walked codeword starts. Symbols are gathered
  once, at those starts. Equal-length codebooks skip the
  chains entirely (codeword boundaries are known in closed form), and a
  scalar fallback keeps pathological non-synchronizing streams correct.
  The scalar loop is retained as the differential-testing oracle.
* The serialized form stores only (symbol, length) pairs — sorted symbols as
  zigzag-delta varints plus 4-bit length nibbles — and both sides rebuild the
  canonical codebook deterministically.
* Codebook work after counting costs O(used symbols), not O(alphabet).
  Quantization codes cluster around the radius, so a 32.8k-65.5k-entry
  alphabet typically uses a few hundred ids. One bool scan of the counts
  finds them; lengths, the canonical order and the codes are then built
  once, over those ids; ``serialize`` reuses them; the decode table is one
  ``np.repeat`` over the canonical order, because canonical codes tile the
  16-bit window space in that order.
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

# Vectorized-decode tuning knobs. Streams shorter than _VECTOR_MIN_SYMBOLS
# decode faster in the scalar loop (the NumPy kernel has ~1 ms of fixed
# setup); anchors are spaced ~_ANCHOR_SYMS codewords apart, and every chain
# walks _SLACK_BITS extra bits so a wrongly-started chain has room to
# resynchronize before its span is needed.
_VECTOR_MIN_SYMBOLS = 2048
_ANCHOR_SYMS = 256
_SLACK_BITS = 96
_MAX_STEPS = 640
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
        self.lengths = np.asarray(lengths, dtype=np.uint8)
        self._used = np.flatnonzero(self.lengths) if used is None else used
        used_len = self.lengths[self._used]
        if used_len.size and int(used_len.max()) > MAX_CODE_LENGTH:
            raise ValueError("code length exceeds MAX_CODE_LENGTH")
        kraft = int((1 << (MAX_CODE_LENGTH - used_len.astype(np.int64))).sum())
        if kraft > 1 << MAX_CODE_LENGTH:
            raise ValueError("code lengths violate the Kraft inequality")
        order, codes = _canonical_codes(used_len)
        # Symbols and their lengths in canonical (length, symbol) order.
        self._order = self._used[order]
        self._order_len = used_len[order]
        self.codes = np.zeros(self.lengths.size, dtype=np.uint32)
        self.codes[self._order] = codes
        self._decode_sym_np: np.ndarray | None = None
        self._decode_len_np: np.ndarray | None = None
        self._decode_sym: list[int] | None = None
        self._decode_len: list[int] | None = None

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
        return len(self.lengths)

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
        writer.write_varwidth(self.codes[symbols].astype(np.uint64), lens)

    def _decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat tables of the symbol and code length for each 16-bit window.

        Canonical codes tile the window space in canonical order, each
        covering ``2**(16 - length)`` windows, so one ``np.repeat`` per
        table fills it. Windows past the last code (a Kraft-deficient
        code) keep length 0, which decoders read as an invalid prefix.
        """
        if self._decode_sym_np is None:
            size = 1 << MAX_CODE_LENGTH
            widths = 1 << (MAX_CODE_LENGTH - self._order_len.astype(np.int64))
            n = int(widths.sum())
            sym_t = np.zeros(size, dtype=np.int64)
            len_t = np.zeros(size, dtype=np.uint8)
            sym_t[:n] = np.repeat(self._order, widths)
            len_t[:n] = np.repeat(self._order_len, widths)
            self._decode_sym_np = sym_t
            self._decode_len_np = len_t
        return self._decode_sym_np, self._decode_len_np

    def decode(self, data: bytes, n_symbols: int, bit_offset: int = 0) -> tuple[np.ndarray, int]:
        """Decode ``n_symbols`` codewords from ``data`` starting at ``bit_offset``.

        Returns ``(symbols, new_bit_offset)``. Large streams dispatch to the
        batched NumPy kernel (:meth:`decode_vectorized`), small ones to the
        scalar loop (:meth:`decode_scalar`); both produce identical output.
        """
        if n_symbols >= _VECTOR_MIN_SYMBOLS:
            return self.decode_vectorized(data, n_symbols, bit_offset)
        return self.decode_scalar(data, n_symbols, bit_offset)

    def decode_scalar(self, data: bytes, n_symbols: int, bit_offset: int = 0) -> tuple[np.ndarray, int]:
        """Scalar reference decoder (one table lookup per symbol).

        Kept as the differential-testing oracle for the vectorized kernel and
        as the fast path for short streams.
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
        if n_symbols and bit_offset >= nbits:
            raise EOFError(_EOF_MSG)
        buf = bytes(data) + b"\x00\x00\x00"
        out = [0] * n_symbols
        pos = bit_offset
        for i in range(n_symbols):
            byte = pos >> 3
            w = (((buf[byte] << 16) | (buf[byte + 1] << 8) | buf[byte + 2]) >> (8 - (pos & 7))) & 0xFFFF
            ln = len_t[w]
            if ln == 0 or pos + ln > nbits:
                raise EOFError(_EOF_MSG)
            out[i] = sym_t[w]
            pos += ln
        return np.array(out, dtype=np.int64), pos

    def decode_vectorized(self, data: bytes, n_symbols: int, bit_offset: int = 0) -> tuple[np.ndarray, int]:
        """Batched NumPy decoder (anchor chains + self-synchronization).

        Phases, all vectorized except a short stitch loop:

        1. decode the 16-bit window at *every* bit position of the stream in
           one pass, yielding a per-position codeword length (``uint8``);
           symbols are gathered later, at the true codeword starts only;
        2. equal-length codebooks finish immediately (codeword boundaries
           are ``offset + k * L``);
        3. otherwise walk one decode chain per anchor (anchors every
           ``~_ANCHOR_SYMS`` codewords) in lockstep, recording the visited
           bit positions — chains started mid-codeword resynchronize with
           the true chain within a few symbols;
        4. stitch: follow the true chain at anchor granularity, copying each
           chain's already-decoded span; single-symbol scalar steps patch
           the rare sync gaps, and persistent sync failure falls back to the
           scalar loop for the remainder (correct for adversarial streams).
        """
        if n_symbols == 0:
            return np.zeros(0, dtype=np.int64), bit_offset
        sym_np, len_np = self._decode_tables()

        data = bytes(data)
        nbits = len(data) * 8
        if self._order.size == 0 or bit_offset >= nbits:
            raise EOFError(_EOF_MSG)
        min_len = int(self._order_len[0])
        max_len_used = int(self._order_len[-1])

        # n symbols span at most 16n bits; never touch (or allocate) more.
        nb = min(nbits, bit_offset + MAX_CODE_LENGTH * n_symbols)
        pad = _MAX_STEPS * MAX_CODE_LENGTH + MAX_CODE_LENGTH
        if nb + pad >= 2**31:  # keep int32 position arithmetic exact
            return self.decode_scalar(data, n_symbols, bit_offset)
        nbytes_eff = (nb + 7) // 8
        buf = np.frombuffer(data[:nbytes_eff] + b"\x00\x00\x00", dtype=np.uint8).astype(np.int32)

        def window_at(pos: np.ndarray) -> np.ndarray:
            byte = pos >> 3
            return (((buf[byte] << 16) | (buf[byte + 1] << 8) | buf[byte + 2])
                    >> (8 - (pos & 7))) & 0xFFFF

        # --- equal-length fast path (covers 1-symbol codebooks) --------- #
        if min_len == max_len_used:
            step = min_len
            end = bit_offset + step * n_symbols
            if end > nbits:
                raise EOFError(_EOF_MSG)
            pos = bit_offset + step * np.arange(n_symbols, dtype=np.int32)
            w = window_at(pos)
            if (len_np[w] == 0).any():
                raise EOFError(_EOF_MSG)
            return sym_np[w], end

        # --- per-bit-position window decode ------------------------------ #
        # The 24-bit word starting at each byte, broadcast over the 8 bit
        # phases, yields the 16-bit decode window at every bit position
        # without any gather.
        w24 = (buf[:-2] << 16) | (buf[1:-1] << 8) | buf[2:]
        shifts = np.arange(8, 0, -1, dtype=np.int32)
        w_all = ((w24[:, None] >> shifts[None, :]) & 0xFFFF).ravel()[:nb]
        # Padded lengths: walking chains may briefly run past the stream
        # end; invalid/pad positions advance 1 bit and flag length 0.
        # Symbols are gathered only at the final codeword starts.
        len_ext = np.zeros(nb + pad, dtype=np.uint8)
        np.take(len_np, w_all, out=len_ext[:nb])  # 0 marks an invalid prefix
        len_walk = np.maximum(len_ext, 1)

        # --- anchor chain walk (positions only) -------------------------- #
        avg_len = max(min_len, min(MAX_CODE_LENGTH, (nb - bit_offset) / n_symbols))
        gap = max(min_len, int(round(_ANCHOR_SYMS * avg_len)))
        n_chains = max(1, -(-(nb - bit_offset) // gap))
        anchors = (bit_offset + gap * np.arange(n_chains, dtype=np.int64)).astype(np.int32)
        target = np.minimum(anchors + np.int32(gap + _SLACK_BITS), np.int32(nb))

        pos_recs = [anchors]
        cur = anchors
        steps = 0
        while True:
            cur = cur + len_walk[cur]
            pos_recs.append(cur)
            steps += 1
            if steps >= _MAX_STEPS:
                break
            if steps % 8 == 0 and (cur >= target).all():
                break
        n_steps = steps
        pos_mat = np.ascontiguousarray(np.array(pos_recs).T)  # (n_chains, n_steps+1)

        # --- stitch along the true chain --------------------------------- #
        # Record only the codeword start positions here; symbols are
        # gathered and the stream validated in one batched pass afterwards.
        # Every recorded position lies on the true decode chain, so on any
        # validation failure the scalar oracle (re-run from the start) is
        # guaranteed to raise EOFError at the exact failing symbol.
        pos_all = np.empty(n_symbols, dtype=np.int32)
        count = 0
        p = bit_offset
        n_scalar_steps = 0
        while count < n_symbols:
            if p >= nb:
                raise EOFError(_EOF_MSG)
            k = (p - bit_offset) // gap
            if k >= n_chains:
                k = n_chains - 1
            row = pos_mat[k]
            j = int(row.searchsorted(p))
            if j < n_steps and row[j] == p:
                take = min(n_steps - j, n_symbols - count)
                pos_all[count : count + take] = row[j : j + take]
                count += take
                p = int(row[j + take])
            else:
                # Sync gap: the chain covering this region has not merged
                # with the true chain yet. Step one symbol.
                ln_s = int(len_ext[p])
                if ln_s == 0:
                    return self.decode_scalar(data, n_symbols, bit_offset)
                pos_all[count] = p
                count += 1
                p += ln_s
                n_scalar_steps += 1
                if n_scalar_steps > 4096 and n_scalar_steps * 4 > count:
                    # Pathological stream that refuses to resynchronize:
                    # finish with the scalar loop rather than limping along.
                    prefix = pos_all[:count]
                    if count and int(len_ext[prefix].min()) == 0:
                        return self.decode_scalar(data, n_symbols, bit_offset)
                    rest, p = self.decode_scalar(data, n_symbols - count, p)
                    out = np.empty(n_symbols, dtype=np.int64)
                    out[:count] = sym_np[w_all[prefix]]
                    out[count:] = rest
                    return out, p

        ln_all = len_ext[pos_all]
        if int(ln_all.min()) == 0 or p > nbits:
            # Invalid window or overrun on the true chain: the oracle raises
            # EOFError at the exact failing symbol.
            return self.decode_scalar(data, n_symbols, bit_offset)
        return sym_np[w_all[pos_all]], p

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
        lens = self.lengths[used] - 1  # 1..16 -> 0..15
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
        lengths = np.zeros(alphabet, dtype=np.uint8)
        lengths[symbols] = lens[:n_used] + 1
        return cls(lengths, symbols), pos
