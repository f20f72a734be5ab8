"""Structural similarity (paper Eqs. 4-5), vectorized over sliding windows.

SSIM is computed per 2D slice on the last two axes (the horizontal plane of
a climate field), averaging the per-window index over all windows and all
leading slices. Window means/variances come from box sums via cumulative
sums, so the cost is linear in the number of pixels.

Constants follow Wang et al.: ``c1 = (0.01 L)^2``, ``c2 = (0.03 L)^2`` with
``L`` the valid-data value range.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ssim"]

#: Side of the square sliding window (shorter planes: their own side).
_WINDOW = 8


def _box_sums(img: np.ndarray, w: int) -> np.ndarray:
    """Sums over all w x w windows of the trailing two axes."""
    c = img.cumsum(axis=-1).cumsum(axis=-2)
    padded = np.zeros(img.shape[:-2] + (img.shape[-2] + 1, img.shape[-1] + 1))
    padded[..., 1:, 1:] = c
    return (padded[..., w:, w:] - padded[..., :-w, w:]
            - padded[..., w:, :-w] + padded[..., :-w, :-w])


def ssim(original: np.ndarray, reconstructed: np.ndarray, *,
         mask: np.ndarray | None = None) -> float:
    """Mean SSIM over all sliding windows of every trailing-2D slice.

    ``mask`` (True = valid) restricts the average to windows made entirely
    of valid points; if no window qualifies the full-frame SSIM of valid
    points is approximated by ignoring the mask.
    """
    x = np.asarray(original, dtype=np.float64)
    y = np.asarray(reconstructed, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    if x.ndim < 2:
        raise ValueError("ssim needs at least 2 dimensions")
    w = min(_WINDOW, x.shape[-1], x.shape[-2])
    vals = x[mask] if mask is not None else x
    data_range = float(vals.max() - vals.min())
    if data_range == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    n = float(w * w)

    if mask is not None:
        # Zero the invalid points before the cumulative sums: CESM-style
        # ~1e36 fill values would otherwise poison every window downstream
        # of a fill through catastrophic cancellation. Fully-valid windows
        # (the only ones averaged below) are unaffected.
        m_bool = np.asarray(mask, dtype=bool)
        x = np.where(m_bool, x, 0.0)
        y = np.where(m_bool, y, 0.0)

    sx = _box_sums(x, w)
    sy = _box_sums(y, w)
    sxx = _box_sums(x * x, w)
    syy = _box_sums(y * y, w)
    sxy = _box_sums(x * y, w)
    mx = sx / n
    my = sy / n
    vx = np.maximum(sxx / n - mx * mx, 0.0)
    vy = np.maximum(syy / n - my * my, 0.0)
    cxy = sxy / n - mx * my
    score = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))

    if mask is not None:
        m = np.asarray(mask, dtype=bool).astype(np.float64)
        full = _box_sums(m, w) >= n  # windows fully inside the valid region
        if full.any():
            return float(score[full].mean())
    return float(score.mean())
