"""ZFP fixed-accuracy compressor facade.

Per block: block-floating-point scaling against the block's maximum
exponent, the reversible integer decorrelation transform, total-sequency
reordering, negabinary mapping, and embedded group-testing coding of bit
planes down to a tolerance-derived cutoff. Everything except the
data-dependent bit emission is vectorized across all blocks.

Error accounting: with guard bits for transform growth, truncating bit
planes below ``kmin`` leaves each coefficient within ~2^kmin integer ULPs;
the inverse transform redistributes that across the block. ``kmin`` is
chosen ``_SAFETY_PLANES`` planes below the tolerance so the pointwise bound
holds with margin (as in real ZFP's accuracy mode, the tolerance is
honoured conservatively — typical errors land well below it).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.zfp.blocks import (
    BLOCK_SIDE,
    block_grid_shape,
    gather_blocks,
    scatter_blocks,
)
from repro.baselines.zfp.codec import (
    decode_block_planes,
    encode_block_planes,
    from_negabinary,
    plane_masks,
    to_negabinary,
)
from repro.baselines.zfp.transform import (
    forward_transform,
    inverse_transform,
    sequency_order,
)
from repro.core.codec import Codec, CodecInput
from repro.encoding.bitstream import BitReader, BitWriter
from repro.encoding.container import Container

__all__ = ["ZFP"]

#: Fractional precision of the block-fixed-point representation.
_PRECISION = 44
#: Extra planes kept below the tolerance cutoff (transform error margin).
_SAFETY_PLANES = 3
#: Exponent bias for the per-block emax field (12 bits).
_EMAX_BIAS = 2048
_EMAX_BITS = 12


class ZFP(Codec):
    """ZFP-style transform compressor in fixed-accuracy mode (baseline)."""

    codec_name = "zfp"

    # ------------------------------------------------------------------ #
    def _encode(self, inp: CodecInput, container: Container) -> None:
        work = inp.data
        if work.ndim == 4:
            # ZFP's common handling of 4D fields: fold the two leading axes
            # and compress as 3D (the header keeps the original shape).
            container.header["orig_shape"] = list(work.shape)
            work = work.reshape(work.shape[0] * work.shape[1], *work.shape[2:])
            container.header["shape"] = list(work.shape)
        tol = inp.eb
        d = work.ndim
        size = BLOCK_SIDE ** d
        order = sequency_order(d)

        blocks = gather_blocks(work)  # (n_blocks, 4^d) float64
        n_blocks = blocks.shape[0]
        absmax = np.abs(blocks).max(axis=1)
        nonzero = absmax > 0
        emax = np.zeros(n_blocks, dtype=np.int64)
        if nonzero.any():
            emax[nonzero] = np.frexp(absmax[nonzero])[1]  # absmax < 2^emax

        # Block-fixed-point: |value| < 2^emax -> |int| < 2^_PRECISION.
        scale = np.ldexp(1.0, (_PRECISION - emax).astype(np.int64))
        ints = np.rint(blocks * scale[:, None]).astype(np.int64)
        forward_transform(ints, d)
        ints = ints[:, order]
        nb = to_negabinary(ints)

        # Tolerance -> per-block minimum plane. Integer ULP = 2^(emax - P);
        # keep planes with weight >= tol -> kmin ~ log2(tol) + P - emax.
        with np.errstate(divide="ignore"):
            kmin = np.floor(np.log2(tol)).astype(np.int64) + _PRECISION - emax - _SAFETY_PLANES
        n_planes_full = _PRECISION + 2 * d + 2  # guard bits: 4x growth/dim + sign
        kmin = np.clip(kmin, 0, n_planes_full)
        masks = plane_masks(nb, n_planes_full)

        writer = BitWriter()
        masks_list = masks.tolist()
        kmin_list = kmin.tolist()
        for b in range(n_blocks):
            if not nonzero[b]:
                writer.write_bit(0)
                continue
            writer.write_bit(1)
            writer.write(int(emax[b]) + _EMAX_BIAS, _EMAX_BITS)
            km = kmin_list[b]
            if km >= n_planes_full:
                continue
            encode_block_planes(masks_list[b], size, n_planes_full, writer, kmin=km)

        container.header.update(tol=tol, precision=_PRECISION, n_planes=n_planes_full,
                                bit_length=writer.bit_length)
        container.add_section("stream", writer.getvalue())

    # ------------------------------------------------------------------ #
    def _decode(self, container: Container) -> np.ndarray:
        header = container.header
        shape = tuple(header["shape"])
        tol = header["tol"]
        precision = header["precision"]
        n_planes_full = header["n_planes"]
        d = len(shape)
        size = BLOCK_SIDE ** d
        order = sequency_order(d)
        inv_order = np.argsort(order)

        reader = BitReader(container.section("stream"), bit_length=header["bit_length"])
        n_blocks = int(np.prod(block_grid_shape(shape)))
        planes_mat = np.zeros((n_blocks, n_planes_full), dtype=np.uint64)
        emax = np.zeros(n_blocks, dtype=np.int64)
        log_tol = int(np.floor(np.log2(tol)))
        for b in range(n_blocks):
            if not reader.read_bit():
                continue
            emax[b] = reader.read(_EMAX_BITS) - _EMAX_BIAS
            km = log_tol + precision - int(emax[b]) - _SAFETY_PLANES
            km = min(max(km, 0), n_planes_full)
            if km >= n_planes_full:
                continue
            planes = decode_block_planes(size, n_planes_full, reader, kmin=km)
            planes_mat[b, km:] = planes[km:]
        # reassemble negabinary coefficients, vectorized across blocks
        nb = np.zeros((n_blocks, size), dtype=np.uint64)
        shifts = np.arange(size, dtype=np.uint64)[None, :]
        for k in range(n_planes_full):
            col = planes_mat[:, k]
            if not col.any():
                continue
            nb |= ((col[:, None] >> shifts) & np.uint64(1)) << np.uint64(k)

        ints = from_negabinary(nb)
        ints = ints[:, inv_order]
        inverse_transform(ints, d)
        scale = np.ldexp(1.0, (emax - precision).astype(np.int64))
        blocks = ints.astype(np.float64) * scale[:, None]
        work = scatter_blocks(blocks, shape)
        if "orig_shape" in header:
            work = work.reshape(tuple(header["orig_shape"]))
        return work
