"""Z-checker-style compression quality assessment.

The climate community judges lossy reconstructions with more than PSNR:
the paper's related work (Tao et al.'s Z-checker [18]; Underwood et al.
[17]) uses Pearson correlation, the Wasserstein distance between value
distributions, SSIM, and error-structure diagnostics. This module bundles
them into one :class:`QualityReport` so a reconstruction can be assessed
with a single call — the per-variable report an archive operator would run
before discarding the originals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.metrics.error import max_abs_error, mean_abs_error, psnr, rmse, value_range
from repro.metrics.ssim import ssim as ssim_metric

__all__ = ["QualityReport", "assess", "pearson_correlation", "wasserstein_distance",
           "error_autocorrelation"]

#: Archive acceptance threshold on the Pearson correlation.
_MIN_PEARSON = 0.99999


def _valid_pair(original, reconstructed, mask):
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    if mask is not None:
        return a[mask], b[mask]
    return a.ravel(), b.ravel()


def pearson_correlation(original, reconstructed, mask=None) -> float:
    """Pearson r between original and reconstructed valid values."""
    a, b = _valid_pair(original, reconstructed, mask)
    if a.size < 2 or a.std() == 0 or b.std() == 0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float(np.corrcoef(a, b)[0, 1])


def wasserstein_distance(original, reconstructed, mask=None) -> float:
    """1-Wasserstein distance between the value distributions."""
    a, b = _valid_pair(original, reconstructed, mask)
    return float(stats.wasserstein_distance(a, b))


def error_autocorrelation(original, reconstructed, mask=None) -> float:
    """Lag-1 autocorrelation of the (flattened) error field.

    Compression artifacts show up as *structured* error: values near ±1
    mean visible banding/blocking, values near 0 mean noise-like error
    (what a good compressor produces).
    """
    a, b = _valid_pair(original, reconstructed, mask)
    err = a - b
    if err.size <= 2:
        return 0.0
    x = err[:-1] - err[:-1].mean()
    y = err[1:] - err[1:].mean()
    denom = np.sqrt((x ** 2).sum() * (y ** 2).sum())
    if denom == 0:
        return 0.0
    return float((x * y).sum() / denom)


@dataclass
class QualityReport:
    """All distortion metrics for one (original, reconstruction) pair."""

    psnr: float
    rmse: float
    max_abs_error: float
    mean_abs_error: float
    value_range: float
    pearson: float
    wasserstein: float
    error_autocorr: float
    ssim: float | None  # None for 1D data

    def passes(self, *, abs_eb: float | None = None) -> bool:
        """Archive acceptance test: bound respected + correlation preserved.

        The Pearson threshold follows the community's 0.99999 rule of thumb
        (Baker et al., HPDC'14).
        """
        ok = self.pearson >= _MIN_PEARSON
        if abs_eb is not None:
            ok = ok and self.max_abs_error <= abs_eb * (1 + 1e-12)
        return ok

    def lines(self) -> list[str]:
        out = [
            f"PSNR            {self.psnr:10.3f} dB",
            f"RMSE            {self.rmse:10.4g}",
            f"max |error|     {self.max_abs_error:10.4g}",
            f"mean |error|    {self.mean_abs_error:10.4g}",
            f"value range     {self.value_range:10.4g}",
            f"Pearson r       {self.pearson:10.7f}",
            f"Wasserstein     {self.wasserstein:10.4g}",
            f"err autocorr    {self.error_autocorr:10.4f}",
        ]
        if self.ssim is not None:
            out.append(f"SSIM            {self.ssim:10.6f}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines())


def assess(original: np.ndarray, reconstructed: np.ndarray,
           mask: np.ndarray | None = None) -> QualityReport:
    """Compute the full quality report for a reconstruction."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    return QualityReport(
        psnr=psnr(a, b, mask),
        rmse=rmse(a, b, mask),
        max_abs_error=max_abs_error(a, b, mask),
        mean_abs_error=mean_abs_error(a, b, mask),
        value_range=value_range(a, mask),
        pearson=pearson_correlation(a, b, mask),
        wasserstein=wasserstein_distance(a, b, mask),
        error_autocorr=error_autocorrelation(a, b, mask),
        ssim=ssim_metric(a, b, mask=mask) if a.ndim >= 2 else None,
    )
