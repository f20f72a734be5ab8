"""Argument validation helpers shared by every public entry point.

These keep error messages consistent across the compressors and fail fast on
malformed input instead of producing silently-wrong compressed streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_array", "check_error_bound", "check_mask", "ensure_float"]

#: Highest supported dimensionality (the paper's datasets are 2D-4D).
_MAX_NDIM = 4


def check_array(data: np.ndarray, *, name: str = "data") -> np.ndarray:
    """Validate a numeric input array and return it as a C-contiguous ndarray.

    Parameters
    ----------
    data:
        Input array; must be a real floating/integer ndarray with
        ``1 <= ndim <= 4`` and a positive number of elements.
    name:
        Name used in error messages.
    """
    arr = np.asarray(data)
    if arr.ndim < 1 or arr.ndim > _MAX_NDIM:
        raise ValueError(f"{name} must have 1..{_MAX_NDIM} dimensions, got {arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.floating) and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must be a real numeric array, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr)


def ensure_float(data: np.ndarray) -> np.ndarray:
    """Return ``data`` as float64 (the working precision of the compressors).

    float64 working precision keeps quantizer round-trips exact for
    float32 inputs; the container records the original dtype so decompression
    restores it.
    """
    arr = np.asarray(data)
    if arr.dtype == np.float64:
        return np.ascontiguousarray(arr)
    return np.ascontiguousarray(arr, dtype=np.float64)


def check_error_bound(eb: float, *, name: str = "error_bound") -> float:
    """Validate an absolute error bound (must be a finite positive float)."""
    val = float(eb)
    if not np.isfinite(val) or val <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {eb!r}")
    return val


def check_mask(mask, shape, *, name: str = "mask") -> np.ndarray | None:
    """Validate a validity mask: bool array matching ``shape``.

    ``True`` means the grid point carries valid data. ``None`` passes through
    (no mask). A mask with no valid point at all is rejected: there would be
    nothing to compress.
    """
    if mask is None:
        return None
    m = np.asarray(mask)
    if m.shape != tuple(shape):
        raise ValueError(f"{name} shape {m.shape} does not match data shape {tuple(shape)}")
    m = m.astype(bool, copy=False)
    if not m.any():
        raise ValueError(f"{name} marks every point invalid; nothing to compress")
    return np.ascontiguousarray(m)
