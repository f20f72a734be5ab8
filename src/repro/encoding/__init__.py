"""Lossless coding substrates: bit I/O, Huffman, multi-Huffman, LZ77, RLE, container.

Importing this package (every codec does) also pins glibc's malloc
thresholds for the process, see :func:`_pin_malloc_thresholds`;
:func:`_release_free_heap` is the process pools' worker initializer.
"""

import ctypes

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

# glibc mallopt parameters (malloc.h) and the values pinned for them.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


def _pin_malloc_thresholds() -> None:
    """Serve codec-sized arrays from the reused heap, not fresh mmaps.

    glibc maps every block above its mmap threshold (128 KiB at start)
    with its own ``mmap`` and unmaps it on free, so each call's arrays
    cost fresh zeroed pages. The threshold also rises to the largest such
    block freed so far, so which arrays pay depends on what some earlier
    call allocated. Fixed thresholds make every array under 32 MiB reuse
    heap memory, and the heap is trimmed back only past 64 MiB of free
    top. Where ``mallopt`` does not exist (not glibc), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _release_free_heap() -> None:
    """Hand the heap's free pages back to the OS (glibc ``malloc_trim(0)``).

    A forked pool worker inherits its parent's heap, free blocks
    included, as copy-on-write pages; reusing one copies the page. Once
    trimmed, the worker's first touch of that memory maps a zero-filled
    page instead of copying the parent's. Process pools call this once
    per worker as their initializer. Where ``malloc_trim`` does not exist
    (not glibc), nothing changes.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    trim(0)


_pin_malloc_thresholds()
