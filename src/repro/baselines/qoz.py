"""QoZ 1.1 baseline — quality-oriented SZ3 with level-wise bound tuning.

QoZ [Liu et al., SC'22] extends SZ3's interpolation with (a) dynamic
per-level predictor selection and (b) *level-wise error bounds*: points on
coarse interpolation levels are referenced by many later predictions, so
compressing them more precisely (eb / alpha^depth, floored at eb / beta)
improves overall rate-distortion. QoZ tunes (alpha, beta) per dataset by
compressing a sampled block under each candidate and scoring quality versus
rate; we score ``PSNR - 6.02 * bitrate`` (the memoryless-Gaussian
rate-distortion slope of ~6 dB/bit), which reproduces QoZ's
better-PSNR-at-equal-bitrate behaviour.
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
from repro.prediction.interpolation import (
    InterpSpec,
    interp_compress,
    interp_decompress,
    max_level,
)

__all__ = ["QoZ"]

#: (alpha, beta) candidates, after QoZ's own defaults.
_AB_CANDIDATES = ((1.0, 1.0), (1.25, 2.0), (1.5, 4.0), (2.0, 4.0))


def _level_factors(n_levels: int, alpha: float, beta: float) -> tuple[float, ...]:
    """Coarsest-first eb factors: eb/alpha^depth floored at eb/beta."""
    out = []
    for idx in range(n_levels):
        depth_from_finest = n_levels - 1 - idx
        out.append(max(1.0 / (alpha ** depth_from_finest), 1.0 / beta))
    return tuple(out)


def _sample_block(data: np.ndarray, target: int = 20000) -> np.ndarray:
    """A central block of roughly ``target`` points for (alpha, beta) tuning."""
    shape = data.shape
    frac = min(1.0, (target / data.size) ** (1.0 / data.ndim))
    slices = []
    for n in shape:
        side = max(2, int(round(n * frac)))
        start = max(0, (n - side) // 2)
        slices.append(slice(start, start + side))
    return np.ascontiguousarray(data[tuple(slices)])


class QoZ(Codec):
    """QoZ 1.1-style compressor (baseline)."""

    codec_name = "qoz"

    # ------------------------------------------------------------------ #
    def _tune_ab(self, work: np.ndarray, eb: float) -> tuple[float, float]:
        """Pick (alpha, beta) maximizing PSNR - 6.02 * bitrate on a sample."""
        sample = _sample_block(work)
        levels = max_level(sample.shape)
        span = float(sample.max() - sample.min()) or 1.0
        best_score, best_ab = -np.inf, _AB_CANDIDATES[0]
        for alpha, beta in _AB_CANDIDATES:
            spec = InterpSpec(order=tuple(range(sample.ndim)), fitting="auto",
                              level_eb_factors=_level_factors(levels, alpha, beta))
            res = interp_compress(sample, eb, spec)
            mse = float(((res.reconstructed - sample) ** 2).mean())
            psnr = 20 * np.log10(span / np.sqrt(mse)) if mse > 0 else 200.0
            freqs = np.bincount(res.codes)
            p = freqs[freqs > 0] / res.codes.size
            bitrate = float(-(p * np.log2(p)).sum())
            score = psnr - 6.02 * bitrate
            if score > best_score:
                best_score, best_ab = score, (alpha, beta)
        return best_ab

    def _encode(self, inp: CodecInput, container: Container) -> None:
        work, eb = inp.data, inp.eb
        alpha, beta = self._tune_ab(work, eb)
        levels = max_level(work.shape)
        spec = InterpSpec(order=tuple(range(work.ndim)), fitting="auto",
                          level_eb_factors=_level_factors(levels, alpha, beta))
        res = interp_compress(work, eb, spec)
        container.header.update(eb=eb, alpha=alpha, beta=beta)
        container.add_section("codes", encode_code_stream(res.codes))
        container.add_section("unpred", encode_floats(res.unpredictable))
        container.add_section("fits", encode_bits(res.fit_choices))

    def _decode(self, container: Container) -> np.ndarray:
        header = container.header
        shape = tuple(header["shape"])
        levels = max_level(shape)
        spec = InterpSpec(order=tuple(range(len(shape))), fitting="auto",
                          level_eb_factors=_level_factors(levels, header["alpha"], header["beta"]))
        codes = decode_code_stream(container.section("codes"))
        unpred = decode_floats(container.section("unpred"))
        fits = decode_bits(container.section("fits"))
        return interp_decompress(shape, header["eb"], spec, codes, unpred, fit_choices=fits)
