"""TTHRESH-style Tucker/HOSVD tensor compression.

TTHRESH [Ballester-Ripoll et al., TVCG 2019] is the dimension-reduction
representative in the paper's taxonomy (§II): a higher-order SVD
decomposes the tensor into a small core and per-mode factor matrices, and
the (strongly energy-concentrated) core is quantized.

This reimplementation keeps the algorithmic skeleton:

1. HOSVD via SVD of each mode unfolding (truncated adaptively),
2. greedy core truncation to an RMSE target — TTHRESH, like the original,
   targets *mean* error, not a pointwise bound (``pointwise_bound=False``),
3. uniform quantization of the surviving core coefficients + sparse index
   coding, factors stored in float32, everything LZ-post-processed.

The error target maps the requested bound to an RMSE budget
(``rmse ~ eb / 3``), which lands distortion in the same regime as the
error-bounded codecs for rate-distortion comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import Codec, CodecInput
from repro.encoding.container import Container
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.varint import (
    decode_uvarint,
    decode_uvarint_array,
    encode_uvarint,
    encode_uvarint_array,
    zigzag_decode,
    zigzag_encode,
)

__all__ = ["TTHRESH", "hosvd", "tucker_reconstruct"]

#: RMSE budget as a fraction of the requested bound (``rmse ~ eb / 3``).
_RMSE_FRACTION = 1.0 / 3.0


def _unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _mode_multiply(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    moved = np.moveaxis(tensor, mode, 0)
    shape = moved.shape
    out = matrix @ moved.reshape(shape[0], -1)
    return np.moveaxis(out.reshape((matrix.shape[0],) + shape[1:]), 0, mode)


def hosvd(tensor: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Full higher-order SVD: core + orthonormal factor per mode."""
    factors = []
    core = np.asarray(tensor, dtype=np.float64)
    for mode in range(tensor.ndim):
        u, _, _ = np.linalg.svd(_unfold(tensor, mode), full_matrices=False)
        factors.append(u)
    for mode, u in enumerate(factors):
        core = _mode_multiply(core, u.T, mode)
    return core, factors


def tucker_reconstruct(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`hosvd` (with possibly truncated core/factors)."""
    out = core
    for mode, u in enumerate(factors):
        out = _mode_multiply(out, u, mode)
    return out


class TTHRESH(Codec):
    """HOSVD + core-thresholding compressor (baseline; RMSE-targeted)."""

    codec_name = "tthresh"
    pointwise_bound = False

    # ------------------------------------------------------------------ #
    def _encode(self, inp: CodecInput, container: Container) -> None:
        work, eb = inp.data, inp.eb
        rmse_target = eb * _RMSE_FRACTION

        core, factors = hosvd(work)
        flat = core.ravel()
        # Orthonormal factors: core L2 error equals data L2 error. Keep the
        # largest coefficients until the dropped-energy budget is met, then
        # quantize the survivors against the same budget split.
        budget = (rmse_target ** 2) * work.size
        order = np.argsort(np.abs(flat))  # ascending
        cum_energy = np.cumsum(flat[order] ** 2)
        n_drop = int(np.searchsorted(cum_energy, 0.5 * budget, side="right"))
        kept_idx = np.sort(order[n_drop:])

        # Rank truncation (the Tucker payoff): slice core and factors down
        # to the largest surviving index per mode, so low-rank data stores
        # tiny factor matrices instead of full orthogonal bases.
        if kept_idx.size:
            coords = np.unravel_index(kept_idx, core.shape)
            ranks = tuple(int(c.max()) + 1 for c in coords)
        else:
            ranks = (1,) * core.ndim
        core = core[tuple(slice(0, r) for r in ranks)]
        factors = [u[:, :r] for u, r in zip(factors, ranks)]
        flat = np.ascontiguousarray(core).ravel()
        if kept_idx.size:
            kept_idx = np.ravel_multi_index(coords, core.shape)
            sort = np.argsort(kept_idx)
            kept_idx = kept_idx[sort]
        kept = flat[kept_idx]
        # quantize survivors: per-coefficient error q/2, total (q^2/12)*k
        k = max(kept.size, 1)
        q = float(np.sqrt(6.0 * 0.5 * budget / k))
        q = max(q, float(np.abs(kept).max()) / 2.0 ** 40 if kept.size else 1e-300)
        bins = np.rint(kept / q).astype(np.int64)

        payload = bytearray()
        encode_uvarint(kept_idx.size, payload)
        if kept_idx.size:
            deltas = np.diff(kept_idx, prepend=0)
            payload += encode_uvarint_array(deltas.astype(np.uint64))
            payload += encode_uvarint_array(zigzag_encode(bins))

        container.header.update(eb=eb, q=q, factor_shapes=[list(u.shape) for u in factors],
                                core_shape=list(core.shape))
        container.add_section("core", lz_compress(bytes(payload)))
        for mode, u in enumerate(factors):
            container.add_section(f"factor{mode}",
                                  lz_compress(u.astype(np.float32).tobytes()))

    # ------------------------------------------------------------------ #
    def _decode(self, container: Container) -> np.ndarray:
        header = container.header
        core_shape = tuple(header["core_shape"])
        core = np.zeros(int(np.prod(core_shape)))
        payload = lz_decompress(container.section("core"))
        n, pos = decode_uvarint(payload, 0)
        if n:
            deltas, pos = decode_uvarint_array(payload, n, pos)
            idx = np.cumsum(deltas.astype(np.int64))
            bins, pos = decode_uvarint_array(payload, n, pos)
            core[idx] = zigzag_decode(bins) * header["q"]
        core = core.reshape(core_shape)
        factors = []
        for mode, fshape in enumerate(header["factor_shapes"]):
            raw = lz_decompress(container.section(f"factor{mode}"))
            factors.append(np.frombuffer(raw, dtype=np.float32)
                           .reshape(tuple(fshape)).astype(np.float64))
        return tucker_reconstruct(core, factors)
