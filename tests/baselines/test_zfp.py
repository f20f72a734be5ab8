"""Tests for the ZFP baseline (blocks, transform, codec, compressor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines import ZFP
from repro.baselines.zfp.blocks import block_grid_shape, gather_blocks, scatter_blocks
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
from repro.encoding.bitstream import BitReader, BitWriter


class TestBlocks:
    def test_grid_shape(self):
        assert block_grid_shape((8, 9, 4)) == (2, 3, 1)

    @pytest.mark.parametrize("shape", [(7,), (8,), (9, 10), (5, 6, 7)])
    def test_gather_scatter_roundtrip(self, shape):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(shape)
        blocks = gather_blocks(data)
        assert blocks.shape == (int(np.prod(block_grid_shape(shape))), 4 ** len(shape))
        np.testing.assert_array_equal(scatter_blocks(blocks, shape), data)

    def test_padding_replicates_edge(self):
        data = np.arange(5.0)
        blocks = gather_blocks(data)
        np.testing.assert_array_equal(blocks[1], [4, 4, 4, 4])


class TestTransform:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_exact_inverse(self, ndim):
        rng = np.random.default_rng(1)
        blocks = rng.integers(-2**40, 2**40, (50, 4 ** ndim)).astype(np.int64)
        original = blocks.copy()
        forward_transform(blocks, ndim)
        assert not np.array_equal(blocks, original)  # it does something
        inverse_transform(blocks, ndim)
        np.testing.assert_array_equal(blocks, original)

    def test_constant_block_concentrates_at_dc(self):
        blocks = np.full((1, 64), 1024, dtype=np.int64)
        forward_transform(blocks, 3)
        reordered = blocks[0][sequency_order(3)]
        assert reordered[0] == 1024
        assert (reordered[1:] == 0).all()

    def test_linear_ramp_energy_in_low_sequency(self):
        ramp = np.arange(64, dtype=np.int64).reshape(1, 64) * 1024
        forward_transform(ramp, 3)
        reordered = np.abs(ramp[0][sequency_order(3)])
        assert reordered[:8].sum() > reordered[8:].sum()

    def test_sequency_order_is_permutation(self):
        for d in (1, 2, 3):
            order = sequency_order(d)
            assert sorted(order.tolist()) == list(range(4 ** d))
            assert order[0] == 0  # DC first

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_inverse_property(self, seed):
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 4))
        blocks = rng.integers(-2**45, 2**45, (10, 4 ** ndim)).astype(np.int64)
        original = blocks.copy()
        inverse_transform(forward_transform(blocks, ndim), ndim)
        np.testing.assert_array_equal(blocks, original)


class TestCodec:
    def test_negabinary_roundtrip(self):
        vals = np.array([0, 1, -1, 2, -2, 2**50, -2**50], dtype=np.int64)
        np.testing.assert_array_equal(from_negabinary(to_negabinary(vals)), vals)

    def test_negabinary_magnitude_monotone_planes(self):
        """Small values must clear high negabinary planes (embedded order)."""
        small = to_negabinary(np.array([3, -3], dtype=np.int64))
        assert (small < (1 << 10)).all()

    def test_plane_masks_values(self):
        nb = np.array([[0b101, 0b011]], dtype=np.uint64)
        masks = plane_masks(nb, 3)
        # plane 0: coeff0 bit=1, coeff1 bit=1 -> 0b11
        assert masks[0, 0] == 0b11
        assert masks[0, 1] == 0b10
        assert masks[0, 2] == 0b01

    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_plane_coder_roundtrip(self, seed, size, n_planes, kmin):
        kmin = min(kmin, n_planes)
        rng = np.random.default_rng(seed)
        planes = [int(rng.integers(0, 1 << size, dtype=np.uint64)) for _ in range(n_planes)]
        w = BitWriter()
        encode_block_planes(planes, size, n_planes, w, kmin=kmin)
        r = BitReader(w.getvalue(), bit_length=w.bit_length)
        dec = decode_block_planes(size, n_planes, r, kmin=kmin)
        assert dec[kmin:] == planes[kmin:]
        assert all(v == 0 for v in dec[:kmin])
        assert r.bits_remaining == 0


class TestCompressor:
    @pytest.mark.parametrize("shape", [(100,), (33, 47), (10, 20, 24)])
    def test_tolerance_respected(self, shape):
        rng = np.random.default_rng(2)
        grids = np.meshgrid(*[np.linspace(0, 4, n) for n in shape], indexing="ij")
        data = sum(np.sin(g) for g in grids) + 0.001 * rng.standard_normal(shape)
        tol = 1e-3
        blob = ZFP().compress(data, abs_eb=tol)
        dec = ZFP().decompress(blob)
        assert np.abs(dec - data).max() <= tol

    def test_zero_blocks_are_cheap(self):
        data = np.zeros((32, 32))
        blob = ZFP().compress(data, abs_eb=1e-6)
        assert len(blob) < 300

    def test_wide_dynamic_range(self):
        """Block-floating-point handles magnitudes spanning many decades."""
        data = np.ones((16, 16))
        data[:8] *= 1e-8
        data[8:] *= 1e8
        tol = 1.0
        dec = ZFP().decompress(ZFP().compress(data, abs_eb=tol))
        assert np.abs(dec - data).max() <= tol

    def test_four_d_folds_leading_axes(self):
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.standard_normal((5, 6, 7, 8)), axis=-1)
        blob = ZFP().compress(data, abs_eb=0.1)
        dec = ZFP().decompress(blob)
        assert dec.shape == data.shape
        assert np.abs(dec - data).max() <= 0.1

    def test_four_d_compress_is_one_traced_call(self):
        # The fold happens inside the codec, not by compressing again:
        # one ``compress`` span, one call, and the caller's bytes counted once.
        data = np.arange(2 * 3 * 8 * 8, dtype=np.float64).reshape(2, 3, 8, 8)
        with obs.run() as run:
            blob = ZFP().compress(data, abs_eb=0.1)
        assert [sp.name for sp in run.spans()] == ["compress"]
        assert run.metrics.counter("zfp.compress.calls").value == 1
        assert run.metrics.counter("zfp.compress.bytes_in").value == data.nbytes == 3072
        assert run.metrics.counter("zfp.compress.bytes_out").value == len(blob)

    def test_five_d_rejected(self):
        with pytest.raises(ValueError):
            ZFP().compress(np.zeros((2,) * 5), abs_eb=0.1)

    def test_smaller_tolerance_bigger_stream(self):
        rng = np.random.default_rng(3)
        data = np.cumsum(rng.standard_normal((40, 40)), axis=0)
        b1 = ZFP().compress(data, abs_eb=1e-1)
        b2 = ZFP().compress(data, abs_eb=1e-4)
        assert len(b2) > len(b1)

    def test_float32_restored(self):
        data = np.outer(np.sin(np.arange(20) / 3), np.ones(20)).astype(np.float32)
        dec = ZFP().decompress(ZFP().compress(data, abs_eb=1e-3))
        assert dec.dtype == np.float32

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(3, 12)) for _ in range(int(rng.integers(1, 4))))
        data = rng.standard_normal(shape) * float(rng.uniform(0.1, 100))
        tol = float(rng.uniform(1e-4, 0.5))
        dec = ZFP().decompress(ZFP().compress(data, abs_eb=tol))
        assert np.abs(dec - data).max() <= tol
