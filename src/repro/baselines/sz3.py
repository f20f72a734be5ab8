"""SZ3 baseline — dynamic spline interpolation + Huffman + LZ.

A faithful reimplementation of the SZ3 pipeline [Zhao et al., ICDE'21;
Liang et al., SZ3 framework] on our shared substrate: multigrid spline
interpolation with per-(level, dim) linear/cubic selection (SZ3's "dynamic"
fitting), linear-scale quantization, a single Huffman tree, and an LZ
backend. Unlike CliZ it has no mask awareness, no dimension
permutation/fusion search, no periodic extraction and no bin
classification — which is exactly the gap the paper measures.

SZ3 accepts a ``mask`` argument only to resolve relative error bounds over
valid points (so comparisons are apples-to-apples); the mask does not
influence compression, and CESM-style fill values flow through the
predictor as ordinary (pathological) data.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import (
    Codec,
    CodecInput,
    decode_bits,
    decode_code_stream,
    decode_floats,
    encode_bits,
    encode_code_stream,
    encode_floats,
)
from repro.encoding.container import Container
from repro.prediction.interpolation import InterpSpec, interp_compress, interp_decompress

__all__ = ["SZ3"]


class SZ3(Codec):
    """SZ3-style error-bounded lossy compressor (baseline).

    Parameters
    ----------
    fitting:
        ``'auto'`` (default; SZ3's dynamic per-level selection), ``'linear'``
        or ``'cubic'``.
    """

    codec_name = "sz3"

    def __init__(self, fitting: str = "auto") -> None:
        if fitting not in ("auto", "linear", "cubic"):
            raise ValueError(f"unknown fitting {fitting!r}")
        self.fitting = fitting

    # ------------------------------------------------------------------ #
    def _encode(self, inp: CodecInput, container: Container) -> None:
        spec = InterpSpec(order=tuple(range(inp.data.ndim)), fitting=self.fitting)
        res = interp_compress(inp.data, inp.eb, spec)
        container.header.update(eb=inp.eb, fitting=self.fitting)
        container.add_section("codes", encode_code_stream(res.codes))
        container.add_section("unpred", encode_floats(res.unpredictable))
        if self.fitting == "auto":
            container.add_section("fits", encode_bits(res.fit_choices))

    def _decode(self, container: Container) -> np.ndarray:
        header = container.header
        shape = tuple(header["shape"])
        fitting = header["fitting"]
        spec = InterpSpec(order=tuple(range(len(shape))), fitting=fitting)
        codes = decode_code_stream(container.section("codes"))
        unpred = decode_floats(container.section("unpred"))
        fits = decode_bits(container.section("fits")) if fitting == "auto" else None
        return interp_decompress(shape, header["eb"], spec, codes, unpred,
                                 fit_choices=fits)
