"""SZ2-style baseline: block-wise linear-regression prediction.

SZ2 [Liang et al., Big Data 2018] — the prediction-based generation before
SZ3 — splits the array into small blocks and predicts each block either
with a first-order Lorenzo stencil or with a *linear regression plane*
fitted per block; residuals go through the same linear quantization +
Huffman + LZ stack.

This reimplementation uses the regression predictor for every block (the
"SZ2-R" variant): the plane coefficients come from the original data via a
closed-form least-squares fit — vectorized across all blocks at once — and
predictions depend only on the stored coefficients, never on neighbouring
reconstructed values, so the whole compressor is NumPy-parallel. Lorenzo
block mode (sequential by construction) is not implemented.

Coefficients are quantized (as in SZ2) so both sides predict identically;
the pointwise bound is guaranteed by the shared quantizer.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import (
    decode_code_stream,
    decode_floats,
    encode_code_stream,
    encode_floats,
)
from repro.core.compressor import resolve_error_bound
from repro.encoding.container import Container
from repro.obs import traced_compress, traced_decompress
from repro.quantization.linear import DEFAULT_RADIUS, UNPREDICTABLE, LinearQuantizer
from repro.utils.validation import check_array, check_mask, ensure_float

__all__ = ["SZ2", "fit_block_planes", "predict_from_planes"]

_BLOCK = 6  # SZ2's default block side


def _block_grid(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((n + _BLOCK - 1) // _BLOCK for n in shape)


def _gather(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Edge-padded (n_blocks, BLOCK^d) matrix of blocks (replicate edges)."""
    shape = data.shape
    d = data.ndim
    grid = _block_grid(shape)
    padded_shape = tuple(g * _BLOCK for g in grid)
    padded = np.empty(padded_shape, dtype=np.float64)
    padded[tuple(slice(0, n) for n in shape)] = data
    for axis, n in enumerate(shape):
        pn = padded.shape[axis]
        if pn > n:
            src = tuple(slice(None) if a != axis else slice(n - 1, n) for a in range(d))
            dst = tuple(slice(None) if a != axis else slice(n, pn) for a in range(d))
            padded[dst] = padded[src]
    inter = padded.reshape(tuple(v for g in grid for v in (g, _BLOCK)))
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
    blocks = np.transpose(inter, order).reshape(int(np.prod(grid)), _BLOCK ** d)
    return np.ascontiguousarray(blocks), grid


def _scatter(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    d = len(shape)
    grid = _block_grid(shape)
    inter = blocks.reshape(grid + (_BLOCK,) * d)
    order = []
    for i in range(d):
        order.extend([i, d + i])
    padded = np.transpose(inter, order).reshape(tuple(g * _BLOCK for g in grid))
    return np.ascontiguousarray(padded[tuple(slice(0, n) for n in shape)])


def _design_matrix(ndim: int) -> np.ndarray:
    """(BLOCK^d, ndim+1) design matrix [1, i0, i1, ...] for the plane fit."""
    coords = np.meshgrid(*[np.arange(_BLOCK, dtype=np.float64)] * ndim, indexing="ij")
    cols = [np.ones(_BLOCK ** ndim)] + [c.ravel() for c in coords]
    return np.stack(cols, axis=1)


def fit_block_planes(blocks: np.ndarray, ndim: int) -> np.ndarray:
    """Least-squares plane coefficients per block, vectorized.

    Returns (n_blocks, ndim+1): intercept + one slope per dimension.
    """
    design = _design_matrix(ndim)
    pinv = np.linalg.pinv(design)  # (ndim+1, BLOCK^d), shared by every block
    return blocks @ pinv.T


def predict_from_planes(coeffs: np.ndarray, ndim: int) -> np.ndarray:
    """Evaluate the planes on the block grid: (n_blocks, BLOCK^d)."""
    design = _design_matrix(ndim)
    return coeffs @ design.T


class SZ2:
    """SZ2-style regression-predictor compressor (baseline)."""

    codec_name = "sz2"
    pointwise_bound = True

    def __init__(self, radius: int = DEFAULT_RADIUS) -> None:
        self.radius = radius

    # ------------------------------------------------------------------ #
    @traced_compress
    def compress(self, data: np.ndarray, *, abs_eb: float | None = None,
                 rel_eb: float | None = None, mask: np.ndarray | None = None) -> bytes:
        arr = check_array(data)
        orig_dtype = arr.dtype
        work = ensure_float(arr)
        mask = check_mask(mask, work.shape)
        eb = resolve_error_bound(work, abs_eb, rel_eb, mask)

        blocks, grid = _gather(work)
        coeffs = fit_block_planes(blocks, work.ndim)
        # Quantize the coefficients (SZ2 stores them reduced-precision) so
        # encoder and decoder share the exact same predictor.
        cq = eb / _BLOCK  # slope quantum: accumulates to < eb over a block
        qcoeffs = np.rint(coeffs / cq) * cq
        preds = predict_from_planes(qcoeffs, work.ndim)

        quant = LinearQuantizer(eb, radius=self.radius)
        codes, rec = quant.quantize(blocks, preds)
        unpred = blocks.ravel()[codes.ravel() == UNPREDICTABLE]

        container = Container(self.codec_name, {
            "shape": list(work.shape),
            "dtype": orig_dtype.str,
            "eb": eb,
            "radius": self.radius,
        })
        container.add_section("codes", encode_code_stream(codes.ravel()))
        container.add_section("coeffs", encode_floats(qcoeffs.ravel()))
        container.add_section("unpred", encode_floats(unpred))
        return container.to_bytes()

    @traced_decompress
    def decompress(self, blob: bytes) -> np.ndarray:
        container = Container.from_bytes(blob)
        if container.codec != self.codec_name:
            raise ValueError(f"not an SZ2 stream (codec {container.codec!r})")
        header = container.header
        shape = tuple(header["shape"])
        d = len(shape)
        grid = _block_grid(shape)
        n_blocks = int(np.prod(grid))
        size = _BLOCK ** d
        codes = decode_code_stream(container.section("codes")).reshape(n_blocks, size)
        qcoeffs = decode_floats(container.section("coeffs")).reshape(n_blocks, d + 1)
        unpred = decode_floats(container.section("unpred"))
        preds = predict_from_planes(qcoeffs, d)
        quant = LinearQuantizer(header["eb"], radius=header["radius"])
        rec = quant.dequantize(codes.ravel(), preds.ravel(), unpred).reshape(n_blocks, size)
        work = _scatter(rec, shape)
        return work.astype(np.dtype(header["dtype"]), copy=False)
