"""Rate metrics and rate-distortion curve containers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["bit_rate", "compression_ratio", "RatePoint", "RateDistortionCurve"]

#: The paper reports bit rates against single-precision inputs (32 bits).
SOURCE_BITS = 32


def compression_ratio(n_values: int, compressed_bytes: int) -> float:
    """R = S / S' with S in source-precision bytes."""
    if compressed_bytes <= 0:
        raise ValueError("compressed size must be positive")
    return n_values * SOURCE_BITS / 8.0 / compressed_bytes


def bit_rate(n_values: int, compressed_bytes: int) -> float:
    """Average bits per value in the compressed representation."""
    if n_values <= 0:
        raise ValueError("n_values must be positive")
    return compressed_bytes * 8.0 / n_values


@dataclass
class RatePoint:
    """One (error bound -> rate/distortion) measurement."""

    eb: float
    bit_rate: float
    compression_ratio: float
    psnr: float
    ssim: float


@dataclass
class RateDistortionCurve:
    """A compressor's rate-distortion curve on one dataset."""

    compressor: str
    dataset: str
    points: list[RatePoint] = field(default_factory=list)

    def add(self, point: RatePoint) -> None:
        self.points.append(point)

    def sorted_by_rate(self) -> list[RatePoint]:
        return sorted(self.points, key=lambda p: p.bit_rate)

    def ratio_at_psnr(self, target_psnr: float) -> float:
        """Interpolated compression ratio achieving a target PSNR.

        Interpolates log(CR) against PSNR: compression ratios span decades
        and rate-distortion curves are near-linear in (PSNR, log CR), so
        linear-CR interpolation would systematically overestimate between
        coarse sweep points.
        """
        pts = sorted(self.points, key=lambda p: p.psnr)
        psnrs = np.array([p.psnr for p in pts])
        log_ratios = np.log(np.array([p.compression_ratio for p in pts]))
        return float(np.exp(np.interp(target_psnr, psnrs, log_ratios)))
