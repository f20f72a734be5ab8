"""Shared serialization helpers for SZ-family code streams.

Every prediction-based compressor here (SZ3, QoZ, CliZ) stores three kinds
of payload: a Huffman-coded quantization-code stream, an exact
unpredictable-value list, and small metadata. These helpers give them one
consistent, LZ-post-processed wire format (Huffman + LZ = the SZ3 pipeline
with our from-scratch Zstd stand-in).
"""

from __future__ import annotations

import numpy as np

from repro.encoding.container import CorruptStreamError
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.multihuffman import read_section, write_section
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.obs import span as profile_stage

__all__ = [
    "encode_code_stream",
    "decode_code_stream",
    "encode_floats",
    "decode_floats",
    "encode_bits",
    "decode_bits",
]


def encode_code_stream(codes: np.ndarray) -> bytes:
    """Huffman-encode an int code stream as one section and LZ the result."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    payload = bytearray()
    with profile_stage("huffman.encode", nbytes=codes.size * 8):
        write_section(codes, payload)
    with profile_stage("lz.compress", nbytes=len(payload)):
        return lz_compress(bytes(payload))


def decode_code_stream(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_code_stream`."""
    with profile_stage("lz.decompress", nbytes=len(blob)):
        payload = lz_decompress(blob)
    with profile_stage("huffman.decode", nbytes=len(payload)):
        codes, pos = read_section(payload)
    if pos != len(payload):
        raise CorruptStreamError(
            f"code stream has {len(payload) - pos} trailing bytes")
    return codes


def encode_floats(values: np.ndarray) -> bytes:
    """Serialize a float64 array losslessly (raw IEEE bytes + LZ)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    with profile_stage("lz.compress", nbytes=arr.nbytes):
        return lz_compress(arr.tobytes())


def decode_floats(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_floats`."""
    with profile_stage("lz.decompress", nbytes=len(blob)):
        raw = lz_decompress(blob)
    return np.frombuffer(raw, dtype=np.float64).copy()


def encode_bits(bits: list[int] | np.ndarray) -> bytes:
    """Serialize a short 0/1 sequence (e.g. QoZ per-step fit choices)."""
    arr = np.asarray(bits, dtype=np.uint8)
    out = bytearray()
    encode_uvarint(arr.size, out)
    if arr.size:
        out += np.packbits(arr).tobytes()
    return bytes(out)


def decode_bits(blob: bytes) -> list[int]:
    """Inverse of :func:`encode_bits`."""
    n, pos = decode_uvarint(blob, 0)
    if n == 0:
        return []
    bits = np.unpackbits(np.frombuffer(blob[pos:], dtype=np.uint8))[:n]
    return bits.astype(int).tolist()
