"""Bit Grooming [Zender, GMD 2016] — precision-trimming lossy compression.

One of the compressors the climate community evaluated against CliZ's
lineage (Underwood et al., DRBSD'22, cited as [17]/[30] in the paper).
Bit Grooming keeps a number of *significant decimal digits* (NSD) by
masking low-order mantissa bits, alternating **bit shave** (clear to 0) and
**bit set** (set to 1) across consecutive values so the quantization stays
statistically unbiased. The groomed floats compress well under a lossless
backend (our LZ77 here, like NCO's DEFLATE).

The error behaviour is *relative per value* (digits of precision), not an
absolute bound; :meth:`BitGrooming.compress` maps a requested relative
error bound to the equivalent number of kept mantissa bits.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import Codec, CodecInput, decode_floats, encode_floats
from repro.encoding.container import Container

__all__ = ["BitGrooming", "groom", "bits_for_relative_error"]

_MANTISSA_BITS = 52  # float64 working precision


def bits_for_relative_error(rel: float) -> int:
    """Mantissa bits needed so per-value relative error <= ``rel``."""
    if not (0 < rel < 1):
        raise ValueError("relative error must be in (0, 1)")
    # keeping m mantissa bits gives relative error <= 2^-(m+1)
    m = int(np.ceil(-np.log2(rel) - 1))
    return int(np.clip(m, 1, _MANTISSA_BITS))


def groom(values: np.ndarray, keep_bits: int) -> np.ndarray:
    """Alternately shave/set the dropped mantissa bits (unbiased rounding)."""
    if not (1 <= keep_bits <= _MANTISSA_BITS):
        raise ValueError(f"keep_bits must be in 1..{_MANTISSA_BITS}")
    work = np.asarray(values, dtype=np.float64).ravel()
    bits = work.view(np.uint64).copy()
    drop = np.uint64(_MANTISSA_BITS - keep_bits)
    mask_clear = ~((np.uint64(1) << drop) - np.uint64(1))
    mask_set = (np.uint64(1) << drop) - np.uint64(1)
    shaved = bits & mask_clear
    setted = bits | mask_set
    out = np.where(np.arange(bits.size) % 2 == 0, shaved, setted)
    # never "set" bits on exact zeros (it would invent tiny values)
    out = np.where(bits == 0, bits, out)
    return out.view(np.float64).reshape(np.asarray(values).shape)


class BitGrooming(Codec):
    """NSD-style precision trimming + LZ backend (baseline).

    ``compress(data, keep_bits=m)`` keeps ``m`` mantissa bits instead of
    deriving them from an error bound (none is needed then).
    """

    codec_name = "bitgroom"
    pointwise_bound = False  # the guarantee is relative-per-value

    def _encode(self, inp: CodecInput, container: Container, *,
                keep_bits: int | None = None) -> None:
        work, mask = inp.data, inp.mask
        if keep_bits is None:
            # translate the bound into per-value relative precision against
            # the largest magnitude (conservative for absolute bounds)
            vals = np.abs(work[mask] if mask is not None else work)
            peak = float(vals.max()) or 1.0
            keep_bits = bits_for_relative_error(min(max(inp.eb / peak, 2.0 ** -52), 0.5))
        container.header["keep_bits"] = int(keep_bits)
        container.add_section("data", encode_floats(groom(work, keep_bits)))

    def _decode(self, container: Container) -> np.ndarray:
        return decode_floats(container.section("data")).reshape(container.header["shape"])
