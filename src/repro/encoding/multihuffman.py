"""Multi-Huffman encoding — CliZ's quantization-bin group coder (§VI-E).

CliZ classifies quantization bins into groups (concentrated vs dispersed
positions) and encodes each group with its own Huffman tree. Rather than
interleaving codewords from different trees (which would force a per-symbol
table switch in the decoder), symbols are stably partitioned by group, each
partition is coded contiguously with its own canonical table, and the
decoder scatters them back using the same group map — bit-identical
information content, vectorized scatter/gather.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitstream import BitWriter
from repro.encoding.container import CorruptStreamError
from repro.encoding.huffman import HuffmanCode
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.obs import inc_counter, observe, span

__all__ = [
    "encode_grouped",
    "decode_grouped",
    "write_section",
    "read_section",
]


def write_section(symbols: np.ndarray, out: bytearray) -> None:
    """Append one self-describing Huffman section for ``symbols`` to ``out``.

    Layout: symbol count, then (for a non-empty section) the length of
    the serialized table, the table, the payload's bit length, and the
    payload. The tree is built from ``symbols`` alone.
    """
    encode_uvarint(symbols.size, out)
    if symbols.size == 0:
        return
    code = HuffmanCode.from_symbols(symbols)
    table = code.serialize()
    encode_uvarint(len(table), out)
    out += table
    writer = BitWriter()
    code.encode(symbols, writer)
    encode_uvarint(writer.bit_length, out)
    out += writer.getvalue()


def read_section(buf: bytes, pos: int = 0,
                 expected: int | None = None) -> tuple[np.ndarray, int]:
    """Inverse of :func:`write_section`; returns ``(symbols, new_pos)``.

    Raises :class:`CorruptStreamError` if the count differs from
    ``expected`` (when given), the payload runs past ``buf``, or the
    decode ends anywhere but at the stored bit length.
    """
    n, pos = decode_uvarint(buf, pos)
    if expected is not None and n != expected:
        raise CorruptStreamError(
            f"Huffman section holds {n} symbols, expected {expected}")
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    table_len, pos = decode_uvarint(buf, pos)
    code, _ = HuffmanCode.deserialize(buf[pos : pos + table_len])
    pos += table_len
    bit_len, pos = decode_uvarint(buf, pos)
    n_bytes = (bit_len + 7) // 8
    if len(buf) - pos < n_bytes:
        raise CorruptStreamError(
            f"Huffman section holds {len(buf) - pos} bytes for {bit_len} bits")
    symbols, end = code.decode(buf[pos : pos + n_bytes], n)
    if end != bit_len:
        raise CorruptStreamError(
            f"Huffman section decoded to {end} bits, header says {bit_len}")
    return symbols, pos + n_bytes


def encode_grouped(symbols: np.ndarray, groups: np.ndarray, n_groups: int) -> bytes:
    """Encode ``symbols`` with one Huffman tree per group.

    Parameters
    ----------
    symbols:
        Non-negative symbol array.
    groups:
        Group index per symbol (same length, values in ``0..n_groups-1``).
    n_groups:
        Number of groups; empty groups are allowed.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    groups = np.asarray(groups, dtype=np.int64).ravel()
    if symbols.shape != groups.shape:
        raise ValueError("symbols and groups must have the same length")
    if symbols.size and (groups.min() < 0 or groups.max() >= n_groups):
        raise ValueError("group indices out of range")
    out = bytearray()
    encode_uvarint(n_groups, out)
    encode_uvarint(symbols.size, out)
    inc_counter("multihuffman.encode.calls")
    observe("multihuffman.n_groups", n_groups, buckets=[1, 2, 4, 8, 16, 32])
    with span("multihuffman.encode", nbytes=symbols.size * 8):
        blob = bytes(_encode_groups(symbols, groups, n_groups, out))
    if symbols.size:
        observe("multihuffman.bits_per_symbol", len(blob) * 8.0 / symbols.size)
    return blob


def _encode_groups(symbols: np.ndarray, groups: np.ndarray, n_groups: int,
                   out: bytearray) -> bytearray:
    for g in range(n_groups):
        write_section(symbols[groups == g], out)
    return out


def decode_grouped(blob: bytes, groups: np.ndarray, pos: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_grouped`; requires the same group map.

    Returns ``(symbols, new_pos)``. A stream whose counts disagree with
    the group map, or any corrupt section, raises
    :class:`CorruptStreamError`.
    """
    groups = np.asarray(groups, dtype=np.int64).ravel()
    n_groups, pos = decode_uvarint(blob, pos)
    total, pos = decode_uvarint(blob, pos)
    if total != groups.size:
        raise CorruptStreamError(
            f"group map length {groups.size} does not match stream ({total})")
    out = np.zeros(total, dtype=np.int64)
    with span("multihuffman.decode", nbytes=len(blob) - pos):
        for g in range(n_groups):
            sel = groups == g
            out[sel], pos = read_section(blob, pos, expected=int(sel.sum()))
    return out, pos

