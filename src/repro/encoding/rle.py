"""Run-length coding of boolean bitmaps.

Used for mask bitmaps: spatial fields with long homogeneous runs, where
run-length + varint + LZ gives near-entropy sizes without a Huffman table.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
)

__all__ = ["pack_bitmap", "unpack_bitmap"]


def pack_bitmap(bits: np.ndarray) -> bytes:
    """Compress a boolean array: run-length encode, varint, then LZ."""
    flat = np.asarray(bits).astype(bool).ravel()
    payload = bytearray()
    encode_uvarint(flat.size, payload)
    if flat.size == 0:
        return lz_compress(bytes(payload))
    first = int(flat[0])
    payload.append(first)
    # Boundaries between runs.
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    edges = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(edges)
    encode_uvarint(len(runs), payload)
    payload += encode_uvarint_array(runs.astype(np.uint64))
    return lz_compress(bytes(payload))


def unpack_bitmap(blob: bytes, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Inverse of :func:`pack_bitmap`; optionally reshape the result."""
    payload = lz_decompress(blob)
    size, pos = decode_uvarint(payload, 0)
    if size == 0:
        out = np.zeros(0, dtype=bool)
    else:
        first = payload[pos]
        pos += 1
        n_runs, pos = decode_uvarint(payload, pos)
        runs, pos = decode_uvarint_array(payload, n_runs, pos)
        if int(runs.sum()) != size:
            raise ValueError("bitmap runs do not sum to declared size")
        values = (np.arange(n_runs) % 2) == (0 if first else 1)
        out = np.repeat(values, runs.astype(np.int64))
    if shape is not None:
        out = out.reshape(shape)
    return out
