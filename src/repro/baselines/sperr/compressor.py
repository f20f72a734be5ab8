"""SPERR compressor facade: DWT + quantize + SPECK + outlier correction.

Pipeline (after Li et al.'s SPERR): multi-level CDF 9/7 wavelet transform;
uniform scalar quantization of the coefficients with step ``q`` tied to the
tolerance; SPECK set-partitioning coding of the integer magnitudes; then an
explicit **outlier pass** — the encoder reconstructs, finds the points
whose error still exceeds the bound (the 9/7 transform is only
near-orthogonal, so coefficient-domain control cannot certify a pointwise
bound), and stores exact-quantized corrections for them. The decoder
applies the corrections, making the pointwise bound unconditional.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.sperr.speck import speck_decode, speck_encode
from repro.baselines.sperr.wavelet import dwt_forward, dwt_inverse, max_dwt_levels
from repro.core.codec import Codec, CodecInput
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.container import Container
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
)

__all__ = ["SPERR"]

#: Coefficient quantization step as a fraction of the tolerance. Larger is
#: cheaper but produces more outliers; 1.0 is a good balance empirically.
_Q_FACTOR = 1.0


class SPERR(Codec):
    """SPERR-style wavelet compressor with guaranteed pointwise bound.

    ``decompress(blob, preview_planes=k)`` decodes only the k most
    significant bit planes of the coefficient stream (the SPECK stream is
    embedded, so any prefix is a valid coarse reconstruction). Previews
    skip the outlier corrections and therefore do NOT honour the error
    bound: they are for progressive browsing, matching SPERR's
    multi-resolution use.
    """

    codec_name = "sperr"

    # ------------------------------------------------------------------ #
    def _encode(self, inp: CodecInput, container: Container) -> None:
        work, tol = inp.data, inp.eb
        levels = max_dwt_levels(work.shape)
        q = tol * _Q_FACTOR

        coeffs = dwt_forward(work, levels)
        # Keep quantized magnitudes inside int64: on pathological inputs
        # (e.g. CESM ~1e36 fill values with a tiny tolerance) the quantum is
        # widened and the outlier pass absorbs the loss — mirroring how real
        # SPERR degrades on fill-valued climate fields.
        max_coef = float(np.abs(coeffs).max()) if coeffs.size else 0.0
        if max_coef > 0:
            q = max(q, max_coef / 2.0 ** 52)
        ints = np.rint(coeffs / q).astype(np.int64)

        writer = BitWriter()
        n_planes = speck_encode(ints, writer)

        # ---- outlier correction ---------------------------------------- #
        rec = dwt_inverse(ints.astype(np.float64) * q, levels)
        resid = (work - rec).ravel()
        bad = np.flatnonzero(~(np.abs(resid) <= tol))  # catches NaN too
        # store the exact original values for outliers: unconditional bound
        out = bytearray()
        encode_uvarint(len(bad), out)
        if len(bad):
            deltas = np.diff(bad, prepend=0)
            out += encode_uvarint_array(deltas.astype(np.uint64))
            out += work.ravel()[bad].tobytes()
        container.header.update(tol=tol, q=float(q), levels=levels, n_planes=n_planes,
                                bit_length=writer.bit_length)
        container.add_section("stream", writer.getvalue())
        container.add_section("outliers", lz_compress(bytes(out)))

    # ------------------------------------------------------------------ #
    def _decode(self, container: Container, *, preview_planes: int | None = None) -> np.ndarray:
        header = container.header
        shape = tuple(header["shape"])
        reader = BitReader(container.section("stream"), bit_length=header["bit_length"])
        ints = speck_decode(shape, header["n_planes"], reader,
                            stop_after=preview_planes)
        work = dwt_inverse(ints.astype(np.float64) * header["q"], header["levels"])
        if preview_planes is not None and preview_planes < header["n_planes"]:
            return work

        payload = lz_decompress(container.section("outliers"))
        n_bad, pos = decode_uvarint(payload, 0)
        if n_bad:
            deltas, pos = decode_uvarint_array(payload, n_bad, pos)
            idx = np.cumsum(deltas.astype(np.int64))
            exact = np.frombuffer(payload[pos : pos + 8 * n_bad], dtype=np.float64)
            flat = work.ravel()
            flat[idx] = exact
        return work
