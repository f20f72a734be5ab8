"""The codec frame, and shared serialization helpers for SZ-family streams.

**The frame.** Every registered codec (CliZ and the eight baselines)
shares one input contract and one container discipline:

* :func:`codec_input` validates the array (``check_array``), takes a
  float64 working copy (``ensure_float``), validates the mask
  (``check_mask``) and resolves the error bound
  (:func:`resolve_error_bound`).
* :class:`Codec` is the base class. Its traced ``compress`` tags a
  container with ``codec_name`` and the input's ``shape``/``dtype``; its
  traced ``decompress`` rejects another codec's tag and restores the
  recorded dtype. A codec supplies only its transform, as the private
  hooks ``_encode(inp, container)`` (add header fields and sections) and
  ``_decode(container)`` (return the float64 reconstruction). Options a
  codec takes are keyword arguments of its hooks.

**The helpers.** Every prediction-based compressor here (SZ3, SZ2, QoZ,
CliZ) stores three kinds of payload: a Huffman-coded quantization-code
stream, an exact unpredictable-value list, and small metadata. These
helpers give them one consistent, LZ-post-processed wire format (Huffman
+ LZ = the SZ3 pipeline with our from-scratch Zstd stand-in); the
precision trimmers (BitGrooming, DigitRounding) store their floats with
:func:`encode_floats` too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.encoding.container import Container, CorruptStreamError
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.multihuffman import read_section, write_section
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.obs import span, traced_compress, traced_decompress
from repro.utils.validation import check_array, check_error_bound, check_mask, ensure_float

__all__ = [
    "Codec",
    "CodecInput",
    "codec_input",
    "resolve_error_bound",
    "encode_code_stream",
    "decode_code_stream",
    "encode_floats",
    "decode_floats",
    "encode_bits",
    "decode_bits",
]


def resolve_error_bound(data: np.ndarray, abs_eb: float | None, rel_eb: float | None,
                        mask: np.ndarray | None = None) -> float:
    """Turn (absolute | relative) user bounds into one absolute bound.

    Relative bounds are scaled by the value range of *valid* points, the
    convention used throughout the paper's evaluation.
    """
    if (abs_eb is None) == (rel_eb is None):
        raise ValueError("specify exactly one of abs_eb / rel_eb")
    if abs_eb is not None:
        return check_error_bound(abs_eb, name="abs_eb")
    rel = check_error_bound(rel_eb, name="rel_eb")
    vals = data[mask] if mask is not None else data
    if vals.size == 0:
        raise ValueError(
            "mask excludes every point: cannot resolve a relative error bound "
            "against an empty value range (pass abs_eb, or a mask with at "
            "least one True entry)"
        )
    rng = float(np.max(vals) - np.min(vals))
    if rng <= 0.0:
        return rel  # constant field: any positive bound works
    return rel * rng


class CodecInput:
    """A compress call's arguments after the input contract.

    ``data`` is the float64 working copy, ``dtype`` the caller's dtype
    (decompression restores it) and ``mask`` the validated mask or None.
    ``eb`` is the absolute bound, resolved from ``abs_eb``/``rel_eb`` on
    first read, so a codec told its precision another way (BitGrooming's
    ``keep_bits``) needs no bound.
    """

    def __init__(self, data: np.ndarray, dtype: np.dtype, mask: np.ndarray | None,
                 abs_eb: float | None, rel_eb: float | None) -> None:
        self.data = data
        self.dtype = dtype
        self.mask = mask
        self._bounds = (abs_eb, rel_eb)

    @cached_property
    def eb(self) -> float:
        return resolve_error_bound(self.data, *self._bounds, self.mask)


def codec_input(data: np.ndarray, *, abs_eb: float | None = None,
                rel_eb: float | None = None,
                mask: np.ndarray | None = None) -> CodecInput:
    """The input contract every codec, ``predict`` and the tuner share."""
    arr = check_array(data)
    work = ensure_float(arr)
    return CodecInput(work, arr.dtype, check_mask(mask, work.shape), abs_eb, rel_eb)


class Codec:
    """Base of every registered codec: the frame around its transform."""

    codec_name: str

    @traced_compress
    def compress(self, data: np.ndarray, *, abs_eb: float | None = None,
                 rel_eb: float | None = None, mask: np.ndarray | None = None,
                 **options) -> bytes:
        """Compress ``data`` under an error bound; returns a blob.

        ``options`` go to the codec's ``_encode`` (an unknown one raises
        ``TypeError``).
        """
        inp = codec_input(data, abs_eb=abs_eb, rel_eb=rel_eb, mask=mask)
        container = Container(self.codec_name, {
            "shape": list(inp.data.shape),
            "dtype": inp.dtype.str,
        })
        self._encode(inp, container, **options)
        return container.to_bytes()

    @traced_decompress
    def decompress(self, blob: bytes, **options) -> np.ndarray:
        """Reconstruct the array, in its original dtype, from a blob."""
        container = Container.from_bytes(blob)
        if container.codec != self.codec_name:
            raise ValueError(f"expected a {self.codec_name!r} stream, "
                             f"got codec {container.codec!r}")
        work = self._decode(container, **options)
        return work.astype(np.dtype(container.header["dtype"]), copy=False)

    def _encode(self, inp: CodecInput, container: Container) -> None:
        raise NotImplementedError

    def _decode(self, container: Container) -> np.ndarray:
        raise NotImplementedError


def encode_code_stream(codes: np.ndarray) -> bytes:
    """Huffman-encode an int code stream as one section and LZ the result."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    payload = bytearray()
    with span("huffman.encode", nbytes=codes.size * 8):
        write_section(codes, payload)
    with span("lz.compress", nbytes=len(payload)):
        return lz_compress(bytes(payload))


def decode_code_stream(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_code_stream`."""
    with span("lz.decompress", nbytes=len(blob)):
        payload = lz_decompress(blob)
    with span("huffman.decode", nbytes=len(payload)):
        codes, pos = read_section(payload)
    if pos != len(payload):
        raise CorruptStreamError(
            f"code stream has {len(payload) - pos} trailing bytes")
    return codes


def encode_floats(values: np.ndarray) -> bytes:
    """Serialize a float64 array losslessly (raw IEEE bytes + LZ)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    with span("lz.compress", nbytes=arr.nbytes):
        return lz_compress(arr.tobytes())


def decode_floats(blob: bytes) -> np.ndarray:
    """Inverse of :func:`encode_floats`."""
    with span("lz.decompress", nbytes=len(blob)):
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
