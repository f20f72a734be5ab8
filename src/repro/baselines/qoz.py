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
    decode_bits,
    decode_code_stream,
    decode_floats,
    encode_bits,
    encode_code_stream,
    encode_floats,
)
from repro.core.compressor import resolve_error_bound
from repro.encoding.container import Container
from repro.obs import traced_compress, traced_decompress
from repro.prediction.interpolation import (
    InterpSpec,
    interp_compress,
    interp_decompress,
    max_level,
)
from repro.utils.validation import check_array, check_mask, ensure_float

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


class QoZ:
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

    @traced_compress
    def compress(self, data: np.ndarray, *, abs_eb: float | None = None,
                 rel_eb: float | None = None, mask: np.ndarray | None = None) -> bytes:
        arr = check_array(data)
        orig_dtype = arr.dtype
        work = ensure_float(arr)
        mask = check_mask(mask, work.shape)
        eb = resolve_error_bound(work, abs_eb, rel_eb, mask)
        alpha, beta = self._tune_ab(work, eb)
        levels = max_level(work.shape)
        spec = InterpSpec(order=tuple(range(work.ndim)), fitting="auto",
                          level_eb_factors=_level_factors(levels, alpha, beta))
        res = interp_compress(work, eb, spec)
        container = Container(self.codec_name, {
            "shape": list(work.shape),
            "dtype": orig_dtype.str,
            "eb": eb,
            "alpha": alpha,
            "beta": beta,
        })
        container.add_section("codes", encode_code_stream(res.codes))
        container.add_section("unpred", encode_floats(res.unpredictable))
        container.add_section("fits", encode_bits(res.fit_choices))
        return container.to_bytes()

    @traced_decompress
    def decompress(self, blob: bytes) -> np.ndarray:
        container = Container.from_bytes(blob)
        if container.codec != self.codec_name:
            raise ValueError(f"not a QoZ stream (codec {container.codec!r})")
        header = container.header
        shape = tuple(header["shape"])
        levels = max_level(shape)
        spec = InterpSpec(order=tuple(range(len(shape))), fitting="auto",
                          level_eb_factors=_level_factors(levels, header["alpha"], header["beta"]))
        codes = decode_code_stream(container.section("codes"))
        unpred = decode_floats(container.section("unpred"))
        fits = decode_bits(container.section("fits"))
        work = interp_decompress(shape, header["eb"], spec, codes, unpred, fit_choices=fits)
        return work.astype(np.dtype(header["dtype"]), copy=False)
