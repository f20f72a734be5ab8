"""Lossless coding substrates: bit I/O, Huffman, multi-Huffman, LZ77, RLE, container."""

from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.container import Container
from repro.encoding.huffman import HuffmanCode
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.multihuffman import decode_grouped, encode_grouped
from repro.encoding.rangecoder import RangeModel, rc_decode, rc_encode
from repro.encoding.rle import pack_bitmap, unpack_bitmap

__all__ = [
    "BitReader",
    "BitWriter",
    "Container",
    "HuffmanCode",
    "lz_compress",
    "lz_decompress",
    "encode_grouped",
    "decode_grouped",
    "RangeModel",
    "rc_encode",
    "rc_decode",
    "pack_bitmap",
    "unpack_bitmap",
]
