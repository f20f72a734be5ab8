"""Shared serialization helpers for SZ-family code streams.

Every prediction-based compressor here (SZ3, QoZ, CliZ) stores three kinds
of payload: a Huffman-coded quantization-code stream, an exact
unpredictable-value list, and small metadata. These helpers give them one
consistent, LZ-post-processed wire format (Huffman + LZ = the SZ3 pipeline
with our from-scratch Zstd stand-in).
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitstream import BitWriter
from repro.encoding.codebook import active_cache
from repro.encoding.container import CorruptStreamError
from repro.encoding.huffman import HuffmanCode
from repro.encoding.lz import lz_compress, lz_decompress
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
    """Huffman-encode an int code stream and LZ the result."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    payload = bytearray()
    encode_uvarint(codes.size, payload)
    if codes.size:
        with profile_stage("huffman.encode", nbytes=codes.size * 8):
            cache = active_cache()
            if cache is not None:
                code = cache.code_for("stream", codes)
            else:
                code = HuffmanCode.from_symbols(codes)
            table = code.serialize()
            encode_uvarint(len(table), payload)
            payload += table
            writer = BitWriter()
            code.encode(codes, writer)
            encode_uvarint(writer.bit_length, payload)
            payload += writer.getvalue()
    with profile_stage("lz.compress", nbytes=len(payload)):
        return lz_compress(bytes(payload))


def decode_code_stream(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_code_stream`."""
    with profile_stage("lz.decompress", nbytes=len(blob)):
        payload = lz_decompress(blob)
    n, pos = decode_uvarint(payload, 0)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    table_len, pos = decode_uvarint(payload, pos)
    code, _ = HuffmanCode.deserialize(payload[pos : pos + table_len])
    pos += table_len
    bit_len, pos = decode_uvarint(payload, pos)
    if len(payload) - pos != (bit_len + 7) // 8:
        raise CorruptStreamError(
            f"code stream holds {len(payload) - pos} bytes for {bit_len} bits")
    with profile_stage("huffman.decode", nbytes=len(payload) - pos):
        codes, end = code.decode(payload[pos:], n)
    if end != bit_len:
        raise CorruptStreamError(
            f"code stream decoded to {end} bits, header says {bit_len}")
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
