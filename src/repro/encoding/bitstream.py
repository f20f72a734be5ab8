"""MSB-first bit-level I/O.

Every entropy coder in this repository (Huffman, ZFP's embedded coder,
SPERR's set-partitioning coder) serializes through these two classes.

Design notes (per the HPC-Python guides: vectorize the hot paths, keep
scalar paths allocation-free):

* ``BitWriter`` buffers scalar writes in plain Python lists and turns bulk
  variable-width writes (the Huffman encode path) into a word-plane pack:
  each codeword is shifted to its bit offset inside two 32-bit words, and
  each of the two planes is summed into the output with one
  ``np.bincount`` (codewords never overlap, so the sums are exact bitwise
  ORs). Encoding a million codewords costs a handful of array operations
  over the codewords, none over the individual output bits.
* ``BitReader`` unpacks the buffer to a byte-per-bit representation once and
  serves scalar reads from a plain ``bytes`` object (O(1) C-level indexing,
  no per-read NumPy dispatch) and bulk raw-bit reads from the NumPy bit
  array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]

_MAX_WRITE_BITS = 64
_PACK_BLOCK = 1 << 15  # codewords per pack block: keeps the block's arrays in cache


class BitWriter:
    """Append-only MSB-first bit stream writer.

    Bits are flushed into bytes only at :meth:`getvalue` time; the final byte
    is zero-padded on the right.
    """

    def __init__(self) -> None:
        # Finished boolean segments (one uint8 0/1 array per bulk write).
        self._segments: list[np.ndarray] = []
        # Pending scalar writes (value, nbits) awaiting conversion.
        self._pend_vals: list[int] = []
        self._pend_lens: list[int] = []
        self._nbits = 0

    # ------------------------------------------------------------------ #
    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return self._nbits

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` least-significant bits of ``value``, MSB first.

        ``value`` must be non-negative and fit in ``nbits`` (<= 64) bits.
        Writing zero bits is a no-op.
        """
        if nbits == 0:
            return
        if nbits < 0 or nbits > _MAX_WRITE_BITS:
            raise ValueError(f"nbits must be in 0..{_MAX_WRITE_BITS}, got {nbits}")
        if value < 0 or (nbits < 64 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._pend_vals.append(value)
        self._pend_lens.append(nbits)
        self._nbits += nbits

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self.write(1 if bit else 0, 1)

    def write_varwidth(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Append ``codes[i]`` using ``lengths[i]`` bits each (bulk path).

        This is the Huffman encoder's hot path; see :func:`_pack_words`.
        Widths above 32 bits are split into a high and a low part first, so
        one kernel serves every width 1..64. Equal-length batches instead
        expand into an (n, width) bit matrix and flatten row-major: its
        cost is per output bit, the pack's per codeword, and the matrix is
        ~10x faster on the 1-bit codes of a two-symbol Huffman book.
        """
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        lengths = np.asarray(lengths, dtype=np.uint8).ravel()
        if codes.shape != lengths.shape:
            raise ValueError("codes and lengths must have the same shape")
        if codes.size == 0:
            return
        self._flush_pending()
        max_len = int(lengths.max())
        if max_len == 0:
            return
        if max_len > _MAX_WRITE_BITS:
            raise ValueError(f"code length {max_len} exceeds {_MAX_WRITE_BITS}")
        if int(lengths.min()) == max_len:
            shifts = np.arange(max_len - 1, -1, -1, dtype=np.uint64)
            bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1))
            self._segments.append(bits.astype(np.uint8).ravel())
            self._nbits += codes.size * max_len
            return
        if max_len > 32:
            codes, lengths = _split_wide(codes, lengths)
        bits, total = _pack_words(codes, lengths)
        self._segments.append(bits)
        self._nbits += total

    def write_bool_array(self, bits: np.ndarray) -> None:
        """Append a raw array of bits (0/1 values, one bit each)."""
        arr = np.asarray(bits).astype(np.uint8).ravel()
        if arr.size == 0:
            return
        self._flush_pending()
        self._segments.append(arr)
        self._nbits += arr.size

    # ------------------------------------------------------------------ #
    def _flush_pending(self) -> None:
        if not self._pend_vals:
            return
        vals = np.array(self._pend_vals, dtype=np.uint64)
        lens = np.array(self._pend_lens, dtype=np.uint8)
        self._pend_vals = []
        self._pend_lens = []
        # write_varwidth counts bits again, so subtract the pending count.
        self._nbits -= int(lens.sum(dtype=np.int64))
        self.write_varwidth(vals, lens)

    def getvalue(self) -> bytes:
        """Pack all written bits into bytes (right-padded with zero bits)."""
        self._flush_pending()
        if not self._segments:
            return b""
        allbits = np.concatenate(self._segments) if len(self._segments) > 1 else self._segments[0]
        self._segments = [allbits]
        return np.packbits(allbits).tobytes()


def _pack_words(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack codewords of 0..32 bits MSB-first; returns ``(bits, total)``.

    ``bits`` holds one uint8 0/1 per output bit. Codeword ``i`` starts at
    bit ``s`` of the batch. Shifted to ``(code << (64 - L)) >> (s & 31)``,
    it sits MSB-first at bit ``s & 31`` of a 64-bit value (the left shift
    also drops any bits above ``L``), whose high half adds into 32-bit
    word ``s >> 5`` and low half into the next word, each plane with one
    ``np.bincount``. Codewords never share a bit, so every word sums to
    less than 2**32 and the float64 sums are exact. The codewords go
    through in blocks of ``_PACK_BLOCK``, so each pass stays in cache.
    """
    ln = lengths.astype(np.int64)
    ends = np.cumsum(ln)
    total = int(ends[-1])
    n_words = (total + 31) // 32
    # Two spare words: the low plane of the last codeword (or an empty
    # codeword at the very end) may land past the last output word.
    words = np.zeros(n_words + 2, dtype=np.float64)
    for b in range(0, codes.size, _PACK_BLOCK):
        blk_len = ln[b : b + _PACK_BLOCK]
        starts = ends[b : b + _PACK_BLOCK] - blk_len
        v = (codes[b : b + _PACK_BLOCK] << (64 - blk_len).astype(np.uint64)) \
            >> (starts & 31).astype(np.uint64)
        word = starts >> 5
        w0 = int(word[0])
        word -= w0
        m = int(word[-1]) + 2
        part = np.bincount(word, weights=v >> np.uint64(32), minlength=m)
        part[1:] += np.bincount(word, weights=v & np.uint64(0xFFFFFFFF), minlength=m - 1)
        words[w0 : w0 + m] += part
    packed = words[:n_words].astype(">u4").view(np.uint8)
    return np.unpackbits(packed)[:total], total


def _split_wide(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write each code wider than 32 bits as its high part, then its low 32 bits."""
    wide = lengths > 32
    reps = 1 + wide.astype(np.int64)
    codes = np.repeat(codes, reps)
    lengths = np.repeat(lengths, reps)
    hi = (np.cumsum(reps) - reps)[wide]
    codes[hi] >>= np.uint64(32)
    lengths[hi] -= np.uint8(32)
    codes[hi + 1] &= np.uint64(0xFFFFFFFF)
    lengths[hi + 1] = 32
    return codes, lengths


class BitReader:
    """MSB-first bit stream reader over a ``bytes`` buffer."""

    def __init__(self, data: bytes, *, bit_length: int | None = None) -> None:
        self._data = bytes(data)
        self._bits = np.unpackbits(np.frombuffer(self._data, dtype=np.uint8))
        # bytes of 0x00/0x01 for O(1) scalar access without NumPy dispatch.
        self._b01 = self._bits.tobytes()
        self._pos = 0
        self._limit = len(self._bits) if bit_length is None else int(bit_length)
        if self._limit > len(self._bits):
            raise ValueError("bit_length exceeds available data")

    # ------------------------------------------------------------------ #
    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._limit - self._pos

    def seek(self, bit_position: int) -> None:
        if bit_position < 0 or bit_position > self._limit:
            raise ValueError("seek out of range")
        self._pos = bit_position

    def read(self, nbits: int) -> int:
        """Read ``nbits`` bits and return them as a non-negative int."""
        if nbits == 0:
            return 0
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        end = self._pos + nbits
        if end > self._limit:
            raise EOFError(f"attempt to read past end of bit stream ({end} > {self._limit})")
        acc = 0
        b = self._b01
        for i in range(self._pos, end):
            acc = (acc << 1) | b[i]
        self._pos = end
        return acc

    def read_bit(self) -> int:
        """Read a single bit."""
        if self._pos >= self._limit:
            raise EOFError("attempt to read past end of bit stream")
        bit = self._b01[self._pos]
        self._pos += 1
        return bit

    def read_bool_array(self, n: int) -> np.ndarray:
        """Read ``n`` raw bits as a uint8 0/1 array (vectorized)."""
        self._check(n)
        out = self._bits[self._pos : self._pos + n].copy()
        self._pos += n
        return out

    def _check(self, nbits: int) -> None:
        if self._pos + nbits > self._limit:
            raise EOFError("attempt to read past end of bit stream")
