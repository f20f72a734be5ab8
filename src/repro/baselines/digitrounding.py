"""Digit Rounding — adaptive power-of-two quantization of floats.

The second precision-trimming compressor in the community evaluation the
paper cites (Underwood et al., DRBSD'22). Unlike Bit Grooming's fixed
mantissa mask, Digit Rounding rounds each value to a power-of-two quantum
chosen from the requested *absolute* bound, which (a) gives a true
pointwise error bound and (b) aligns the binary representations of nearby
values so the lossless backend finds long matches.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import Codec, CodecInput, decode_floats, encode_floats
from repro.encoding.container import Container

__all__ = ["DigitRounding", "round_to_quantum"]


def round_to_quantum(values: np.ndarray, abs_eb: float) -> np.ndarray:
    """Round to the largest power-of-two quantum with error <= ``abs_eb``."""
    if abs_eb <= 0 or not np.isfinite(abs_eb):
        raise ValueError("abs_eb must be finite and positive")
    quantum = 2.0 ** np.floor(np.log2(2.0 * abs_eb))  # rounding error <= q/2 <= eb
    work = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        rounded = np.rint(work / quantum) * quantum
    # huge values (e.g. CESM fills) can overflow the division: keep them
    rounded = np.where(np.isfinite(rounded), rounded, work)
    return rounded


class DigitRounding(Codec):
    """Error-bounded power-of-two rounding + LZ backend (baseline)."""

    codec_name = "digitround"
    pointwise_bound = True

    def _encode(self, inp: CodecInput, container: Container) -> None:
        container.header["eb"] = inp.eb
        container.add_section("data", encode_floats(round_to_quantum(inp.data, inp.eb)))

    def _decode(self, container: Container) -> np.ndarray:
        return decode_floats(container.section("data")).reshape(container.header["shape"])
