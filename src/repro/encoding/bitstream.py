"""MSB-first bit-level I/O.

Every entropy coder in this repository (Huffman, ZFP's embedded coder,
SPERR's set-partitioning coder) serializes through these two classes.

* ``BitWriter`` keeps every write as items of at most 64 bits (codes and
  their widths) and turns them into bytes in one kernel, never holding a
  byte per bit. A bulk write merges adjacent items in pairs while the
  widest is at most 32 bits (:func:`_merge`), so 16-bit Huffman codes
  reach :func:`_pack` as 64-bit groups, a quarter as many. The pack
  places every item in 64-bit words from a prefix sum of the widths and
  ORs each word's items with one ``np.bitwise_or.reduceat``.
* ``BitReader`` unpacks the buffer to a byte-per-bit representation once and
  serves scalar reads from a plain ``bytes`` object (O(1) C-level indexing,
  no per-read NumPy dispatch) and bulk raw-bit reads from the NumPy bit
  array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]

_MAX_WRITE_BITS = 64


class BitWriter:
    """Append-only MSB-first bit stream writer.

    Bits are flushed into bytes only at :meth:`getvalue` time; the final byte
    is zero-padded on the right.
    """

    def __init__(self) -> None:
        # Items of at most 64 bits: codes (unsigned) and their widths (uint8).
        self._codes: list[np.ndarray] = []
        self._lens: list[np.ndarray] = []
        # Pending scalar writes (value, nbits) awaiting conversion.
        self._pend_vals: list[int] = []
        self._pend_lens: list[int] = []
        self._pend_bits = 0
        self._nbits = 0  # bits of the stored items

    # ------------------------------------------------------------------ #
    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return self._nbits + self._pend_bits

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
        self._pend_bits += nbits

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self.write(1 if bit else 0, 1)

    def write_varwidth(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Append the low ``lengths[i]`` bits of ``codes[i]`` each (bulk path).

        Codes are cut to their widths in the narrowest unsigned dtype that
        holds the widest, so Huffman's 16-bit code table is never widened.
        """
        codes = np.asarray(codes).ravel()
        if codes.dtype.kind != "u":
            codes = codes.astype(np.uint64)
        lengths = np.asarray(lengths, dtype=np.uint8).ravel()
        if codes.shape != lengths.shape:
            raise ValueError("codes and lengths must have the same shape")
        width = int(lengths.max()) if lengths.size else 0
        if width > _MAX_WRITE_BITS:
            raise ValueError(f"code length {width} exceeds {_MAX_WRITE_BITS}")
        if width == 0:
            return
        one = np.min_scalar_type((1 << width) - 1).type(1)
        cut = codes.astype(one.dtype)
        cut &= (one << lengths) - one
        if width == 1 == int(lengths.min()):
            self._append(*_words_of_bits(cut))
        else:
            self._append(cut, lengths, width)

    def write_bool_array(self, bits: np.ndarray) -> None:
        """Append a raw array of bits (0/1 values, one bit each)."""
        arr = np.asarray(bits).astype(np.uint8).ravel()
        if arr.size:
            self._append(*_words_of_bits(arr))

    # ------------------------------------------------------------------ #
    def _flush_pending(self) -> None:
        if self._pend_vals:
            lens = np.array(self._pend_lens, dtype=np.uint8)
            vals = np.array(self._pend_vals, dtype=np.uint64)
            self._pend_vals, self._pend_lens, self._pend_bits = [], [], 0
            self._append(vals, lens, int(lens.max()))

    def _append(self, codes: np.ndarray, lengths: np.ndarray, width: int) -> None:
        """Store items already cut to their widths, after any pending scalars."""
        self._flush_pending()
        codes, lengths = _merge(codes, lengths, width)
        self._codes.append(codes)
        self._lens.append(lengths)
        self._nbits += int(lengths.sum(dtype=np.int64))

    def getvalue(self) -> bytes:
        """Pack all written bits into bytes (right-padded with zero bits)."""
        self._flush_pending()
        if not self._codes:
            return b""
        if len(self._codes) > 1:
            self._codes = [np.concatenate(self._codes)]
            self._lens = [np.concatenate(self._lens)]
        return _pack(self._codes[0], self._lens[0])


def _words_of_bits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(codes, lengths, 64)``: one-bit items 64 to an item, by ``np.packbits``."""
    buf = np.zeros(-(-bits.size // 64) * 8, dtype=np.uint8)
    packed = np.packbits(bits)
    buf[: packed.size] = packed
    codes = buf.view(">u8").astype(np.uint64)
    lengths = np.full(codes.size, 64, dtype=np.uint8)
    tail = bits.size % 64
    if tail:
        codes[-1] >>= np.uint64(64 - tail)
        lengths[-1] = tail
    return codes, lengths, 64


def _merge(codes: np.ndarray, lengths: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Join adjacent items in pairs while the widest (``width``) is <= 32 bits.

    Each round writes item ``2i`` above item ``2i + 1`` as one item of
    their summed width; an odd last item joins the next round as it is.
    """
    while width <= 32 and codes.size > 1:
        pairs = codes.size // 2
        right = lengths[1::2]
        merged = codes[0::2].astype(np.min_scalar_type((1 << 2 * width) - 1))
        merged[:pairs] <<= right
        merged[:pairs] |= codes[1::2]
        widths = lengths[0::2].copy()
        widths[:pairs] += right
        codes, lengths, width = merged, widths, int(widths.max())
    return codes, lengths


def _pack(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """MSB-first bytes of items of 0..64 bits, right-padded with zero bits.

    Item ``i`` starts at bit ``s`` of the stream: bit ``s & 63`` of
    64-bit word ``s >> 6``. Shifted to the top of a 64-bit value, its
    high part ``top >> (s & 63)`` goes into that word and its spill
    ``top << (64 - (s & 63))`` into the next (NumPy shifts by 64 give 0).
    Items never share a bit, so each word is the OR of the high parts of
    the items that start in it (one ``reduceat``) and the spill of the
    last item of the word before; only a word's last item can spill.
    """
    ends = np.cumsum(lengths, dtype=np.int64)
    total = int(ends[-1])
    starts = ends - lengths
    shift = (starts & 63).astype(np.uint64)
    top = codes.astype(np.uint64, copy=False) << (64 - lengths)
    word = starts >> 6
    tails = np.flatnonzero(word[1:] != word[:-1])
    heads = np.concatenate(([0], tails + 1))
    tails = np.append(tails, codes.size - 1)
    words = np.zeros(int(word[-1]) + 2, dtype=np.uint64)
    words[word[heads]] = np.bitwise_or.reduceat(top >> shift, heads)
    words[word[tails] + 1] |= top[tails] << (64 - shift[tails])
    return words.astype(">u8").tobytes()[: (total + 7) // 8]


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
