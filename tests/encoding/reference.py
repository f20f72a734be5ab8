"""Reference implementations of the compress-side entropy kernels.

Straightforward forms of the LZ match index (a stable argsort) and greedy
parse (one loop step per input byte or match), of the ``BitWriter``
(one array entry per output bit) and of the Huffman codebook build
(a binary heap for the code lengths, a per-symbol loop for the canonical
codes and for the decode table). They are the differential oracles for
the packed-key sort and the array parse in ``repro.encoding.lz``, the
merge-and-pack kernel in ``repro.encoding.bitstream`` and the two-queue,
first-code-per-length and canonical-order ``np.repeat`` builds in
``repro.encoding.huffman``: those must return the same arrays and write
the same bytes on every input.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.encoding.bitstream import _MAX_WRITE_BITS
from repro.encoding.varint import encode_uvarint


def prev_occurrence_reference(data: bytes) -> np.ndarray:
    """``prev[i]`` = nearest ``j < i`` with the same 4-byte shingle, else -1.

    One stable argsort over the shingle values: equal values end up adjacent
    in position order, so each position's sorted predecessor is its nearest
    earlier occurrence.
    """
    a = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    v = a[:-3] | (a[1:-2] << np.uint32(8)) | (a[2:-1] << np.uint32(16)) | (a[3:] << np.uint32(24))
    order = np.argsort(v, kind="stable")
    sv = v[order]
    same = sv[1:] == sv[:-1]
    prev = np.full(v.size, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def lz_compress_reference(data: bytes) -> bytes:
    """``lz_compress`` as a plain greedy loop over the input bytes.

    At each position with an earlier occurrence of its shingle at most
    65535 bytes back, take the common prefix with the nearest one (compared
    byte by byte) as a match, else take one literal; a match's sub-4 tail
    modulo 131 goes back to the input. The block is stored unless its
    tokens plus 10 bytes come out shorter than the input.
    """
    data = bytes(data)
    n = len(data)
    tokens = bytearray()
    if n >= 16:
        prev = prev_occurrence_reference(data)
        literals = bytearray()

        def flush() -> None:
            for s in range(0, len(literals), 128):
                run = literals[s : s + 128]
                tokens.append(len(run) - 1)
                tokens.extend(run)
            literals.clear()

        i = 0
        while i < n:
            j = int(prev[i]) if i < prev.size else -1
            if j < 0 or i - j > 65535:
                literals.append(data[i])
                i += 1
                continue
            length = 4
            while i + length < n and data[j + length] == data[i + length]:
                length += 1
            flush()
            off = i - j
            q, r = divmod(length, 131)
            tokens.extend(bytes((0x80 | 127, off & 0xFF, off >> 8)) * q)
            if r >= 4:
                tokens.extend((0x80 | (r - 4), off & 0xFF, off >> 8))
            else:
                length -= r
            i += length
        flush()
    header = bytearray()
    if n >= 16 and len(tokens) + 10 < n:
        header.append(1)
        encode_uvarint(n, header)
        return bytes(header) + bytes(tokens)
    header.append(0)
    encode_uvarint(n, header)
    return bytes(header) + data


class ReferenceBitWriter:
    """``BitWriter`` that expands every output bit explicitly.

    Each write becomes one uint8 0/1 per bit; ``getvalue`` packs them all.
    """

    def __init__(self) -> None:
        self._bits: list[np.ndarray] = []
        self.bit_length = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or nbits > _MAX_WRITE_BITS:
            raise ValueError(f"nbits must be in 0..{_MAX_WRITE_BITS}, got {nbits}")
        if value < 0 or (nbits < 64 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._append(np.array([(value >> (nbits - 1 - i)) & 1 for i in range(nbits)],
                              dtype=np.uint8))

    def write_bit(self, bit: int) -> None:
        self.write(1 if bit else 0, 1)

    def write_varwidth(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        codes = np.asarray(codes).ravel().astype(np.uint64)
        lengths = np.asarray(lengths, dtype=np.uint8).ravel()
        if codes.shape != lengths.shape:
            raise ValueError("codes and lengths must have the same shape")
        if lengths.size and int(lengths.max()) > _MAX_WRITE_BITS:
            raise ValueError(f"code length {int(lengths.max())} exceeds {_MAX_WRITE_BITS}")
        ends = np.cumsum(lengths.astype(np.int64))
        total = int(ends[-1]) if ends.size else 0
        # Output bit t belongs to code i with starts[i] <= t < ends[i] and is
        # bit (ends[i] - 1 - t) of that code, counting from the LSB.
        shifts = (np.repeat(ends, lengths) - 1 - np.arange(total, dtype=np.int64)).astype(np.uint64)
        self._append(((np.repeat(codes, lengths) >> shifts) & np.uint64(1)).astype(np.uint8))

    def write_bool_array(self, bits: np.ndarray) -> None:
        self._append((np.asarray(bits).astype(np.uint8).ravel() != 0).astype(np.uint8))

    def _append(self, bits: np.ndarray) -> None:
        self._bits.append(bits)
        self.bit_length += bits.size

    def getvalue(self) -> bytes:
        return np.packbits(np.concatenate(self._bits)).tobytes() if self._bits else b""


def huffman_lengths_reference(freqs: np.ndarray) -> np.ndarray:
    """Unrestricted Huffman code lengths, built on a heap.

    The heap holds ``(weight, tiebreak, node)``: leaves tie-break by symbol
    index, merged nodes by creation count starting at ``len(freqs)``, so
    every pop order is fixed. Depths come from a final tree traversal.
    """
    syms = np.flatnonzero(freqs)
    lengths = np.zeros(len(freqs), dtype=np.int64)
    if len(syms) == 0:
        return lengths
    if len(syms) == 1:
        lengths[syms[0]] = 1
        return lengths
    heap: list[tuple[int, int, object]] = [
        (int(freqs[s]), int(s), int(s)) for s in syms
    ]
    heapq.heapify(heap)
    counter = len(freqs)
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, counter, [n1, n2]))
        counter += 1
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, list):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = depth
    return lengths


def canonical_codes_reference(lengths: np.ndarray) -> np.ndarray:
    """Canonical codes, one symbol at a time in (length, symbol) order."""
    codes = np.zeros(len(lengths), dtype=np.uint32)
    used = np.flatnonzero(lengths)
    if len(used) == 0:
        return codes
    order = used[np.lexsort((used, lengths[used]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for s in order:
        ln = int(lengths[s])
        code <<= ln - prev_len
        codes[s] = code
        code += 1
        prev_len = ln
    return codes


def decode_table_reference(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat 16-bit-window decode tables, one symbol's code range at a time.

    Returns ``(symbol, length)`` per window: each symbol's code, shifted to
    16 bits, starts a run of ``2**(16 - length)`` windows; windows no code
    covers keep length 0.
    """
    lengths = np.asarray(lengths)
    codes = canonical_codes_reference(lengths)
    size = 1 << 16
    sym_t = np.zeros(size, dtype=np.int64)
    len_t = np.zeros(size, dtype=np.uint8)
    for s in np.flatnonzero(lengths):
        ln = int(lengths[s])
        start = int(codes[s]) << (16 - ln)
        count = 1 << (16 - ln)
        sym_t[start : start + count] = s
        len_t[start : start + count] = ln
    return sym_t, len_t
