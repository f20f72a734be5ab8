"""Multi-level CDF 9/7 discrete wavelet transform via lifting.

The biorthogonal 9/7 wavelet (JPEG2000's lossy filter, and SPERR's) is
implemented as the standard four lifting steps plus scaling. Boundaries use
clamped (repeat-edge) neighbour indexing inside each lifting step — every
step modifies one parity from the other, so the transform inverts to
floating-point round-off for *any* length, including odd lengths.

Multi-level decomposition follows the Mallat layout: after each level the
approximation coefficients occupy the leading ``ceil(n / 2)`` slots of each
axis and the next level transforms only that corner. All 1D passes are
vectorized across the remaining axes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dwt_forward", "dwt_inverse", "max_dwt_levels"]

_A1 = -1.586134342059924
_A2 = -0.052980118572961
_A3 = 0.882911075530934
_A4 = 0.443506852043971
_K = 1.230174104914001
_MAX_DWT_LEVELS = 4


def max_dwt_levels(shape: tuple[int, ...]) -> int:
    """Deepest decomposition, at most ``_MAX_DWT_LEVELS``, with every axis
    keeping >= 4 approx samples."""
    levels = 0
    dims = list(shape)
    while levels < _MAX_DWT_LEVELS and all(n >= 8 for n in dims):
        dims = [(n + 1) // 2 for n in dims]
        levels += 1
    return levels


def _lift_axis_forward(arr: np.ndarray, axis: int) -> None:
    """One 9/7 level along ``axis`` of the leading region, in place.

    On output the approximation (even) samples occupy the first
    ``ceil(n/2)`` positions and details the rest.
    """
    n = arr.shape[axis]
    if n < 2:
        return
    moved = np.moveaxis(arr, axis, -1)
    s = np.ascontiguousarray(moved[..., 0::2])  # even
    d = np.ascontiguousarray(moved[..., 1::2])  # odd
    ns, nd = s.shape[-1], d.shape[-1]

    def right(x, limit):  # x[i+1] with clamped edge
        return x[..., np.minimum(np.arange(limit) + 1, x.shape[-1] - 1)]

    def left(x, limit):  # x[i-1] with clamped edge
        return x[..., np.maximum(np.arange(limit) - 1, 0)]

    d += _A1 * (s[..., :nd] + right(s, nd))
    s += _A2 * (left(d, ns)[..., :ns] + d[..., np.minimum(np.arange(ns), nd - 1)])
    d += _A3 * (s[..., :nd] + right(s, nd))
    s += _A4 * (left(d, ns)[..., :ns] + d[..., np.minimum(np.arange(ns), nd - 1)])
    s *= _K
    d *= 1.0 / _K
    moved[..., :ns] = s
    moved[..., ns:] = d


def _lift_axis_inverse(arr: np.ndarray, axis: int) -> None:
    """Exact mirror of :func:`_lift_axis_forward`."""
    n = arr.shape[axis]
    if n < 2:
        return
    moved = np.moveaxis(arr, axis, -1)
    ns = (n + 1) // 2
    nd = n - ns
    s = np.ascontiguousarray(moved[..., :ns])
    d = np.ascontiguousarray(moved[..., ns:])

    def right(x, limit):
        return x[..., np.minimum(np.arange(limit) + 1, x.shape[-1] - 1)]

    def left(x, limit):
        return x[..., np.maximum(np.arange(limit) - 1, 0)]

    s *= 1.0 / _K
    d *= _K
    s -= _A4 * (left(d, ns)[..., :ns] + d[..., np.minimum(np.arange(ns), nd - 1)])
    d -= _A3 * (s[..., :nd] + right(s, nd))
    s -= _A2 * (left(d, ns)[..., :ns] + d[..., np.minimum(np.arange(ns), nd - 1)])
    d -= _A1 * (s[..., :nd] + right(s, nd))
    out = np.empty_like(moved)
    out[..., 0::2] = s
    out[..., 1::2] = d
    moved[...] = out


def dwt_forward(data: np.ndarray, levels: int) -> np.ndarray:
    """Forward multi-level 9/7 DWT (returns a new float64 array)."""
    out = np.array(data, dtype=np.float64, copy=True)
    shape = out.shape
    dims = list(shape)
    for _ in range(levels):
        region = tuple(slice(0, n) for n in dims)
        view = out[region]
        for axis in range(out.ndim):
            if dims[axis] >= 2:
                _lift_axis_forward(view, axis)
        dims = [(n + 1) // 2 for n in dims]
    return out


def dwt_inverse(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Inverse of :func:`dwt_forward`."""
    out = np.array(coeffs, dtype=np.float64, copy=True)
    if levels == 0:
        return out
    shape = out.shape
    # region sizes per level, outermost first
    sizes = [list(shape)]
    for _ in range(levels - 1):
        sizes.append([(n + 1) // 2 for n in sizes[-1]])
    for dims in reversed(sizes):
        region = tuple(slice(0, n) for n in dims)
        view = out[region]
        for axis in range(out.ndim - 1, -1, -1):
            if dims[axis] >= 2:
                _lift_axis_inverse(view, axis)
    return out
