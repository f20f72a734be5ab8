"""Reference implementations of the compress-side entropy kernels.

Straightforward forms of the LZ match index (a stable argsort) and of the
``BitWriter`` bulk write (one array entry per output bit). They are the
differential oracles for the packed-key sort in ``repro.encoding.lz`` and
the word-plane pack in ``repro.encoding.bitstream``: those must return the
same arrays and write the same bytes on every input.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitstream import _MAX_WRITE_BITS, BitWriter


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


class ReferenceBitWriter(BitWriter):
    """``BitWriter`` whose bulk path expands every output bit explicitly."""

    def write_varwidth(self, codes: np.ndarray, lengths: np.ndarray) -> None:
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
        ends = np.cumsum(lengths.astype(np.int64))
        total = int(ends[-1])
        # Output bit t belongs to code i with starts[i] <= t < ends[i] and is
        # bit (ends[i] - 1 - t) of that code, counting from the LSB.
        shifts = (np.repeat(ends, lengths) - 1 - np.arange(total, dtype=np.int64)).astype(np.uint64)
        bits_v = (np.repeat(codes, lengths) >> shifts) & np.uint64(1)
        self._segments.append(bits_v.astype(np.uint8))
        self._nbits += total
