"""Tests for dimension permutation and fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dims import (
    Layout,
    apply_layout,
    enumerate_fusions,
    enumerate_layouts,
    layout_name,
    undo_layout,
)


class TestLayout:
    def test_identity(self):
        lay = Layout.identity(3)
        assert lay.perm == (0, 1, 2)
        assert lay.fusion == (1, 1, 1)

    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError):
            Layout((0, 0, 1), (1, 1, 1))

    def test_bad_fusion_rejected(self):
        with pytest.raises(ValueError):
            Layout((0, 1, 2), (2, 2))

    def test_fused_shape(self):
        lay = Layout((2, 0, 1), (1, 2))
        assert lay.fused_shape((4, 5, 6)) == (6, 20)

    def test_dict_roundtrip(self):
        lay = Layout((1, 0), (2,))
        assert Layout.from_dict(lay.to_dict()) == lay

    def test_equality_and_hash(self):
        assert Layout((0, 1), (1, 1)) == Layout((0, 1), (1, 1))
        assert len({Layout((0, 1), (1, 1)), Layout((0, 1), (1, 1))}) == 1


class TestApplyUndo:
    def test_pure_permutation(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        lay = Layout((2, 0, 1), (1, 1, 1))
        out = apply_layout(data, lay)
        assert out.shape == (4, 2, 3)
        np.testing.assert_array_equal(out, np.transpose(data, (2, 0, 1)))
        np.testing.assert_array_equal(undo_layout(out, data.shape, lay), data)

    def test_fusion_is_reshape_of_permuted(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        lay = Layout((0, 1, 2), (2, 1))
        out = apply_layout(data, lay)
        assert out.shape == (6, 4)
        np.testing.assert_array_equal(out, data.reshape(6, 4))

    def test_full_fusion(self):
        data = np.arange(12.0).reshape(3, 4)
        out = apply_layout(data, Layout((1, 0), (2,)))
        assert out.shape == (12,)
        np.testing.assert_array_equal(out, data.T.ravel())

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_layout(np.zeros((2, 2)), Layout.identity(3))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        layouts = enumerate_layouts(ndim)
        lay = layouts[int(rng.integers(0, len(layouts)))]
        data = rng.standard_normal(shape)
        out = apply_layout(data, lay)
        assert out.shape == lay.fused_shape(shape)
        np.testing.assert_array_equal(undo_layout(out, shape, lay), data)


class TestEnumeration:
    def test_fusion_counts(self):
        assert len(enumerate_fusions(1)) == 1
        assert len(enumerate_fusions(2)) == 2
        assert len(enumerate_fusions(3)) == 4  # paper's four fusion options
        assert len(enumerate_fusions(4)) == 8

    def test_3d_layout_count_matches_paper(self):
        # 6 sequences x 4 fusions = 24 (paper §VII-C2 counts 192 = 24*2*2*2)
        assert len(enumerate_layouts(3)) == 24

    def test_max_layouts_cap(self):
        assert len(enumerate_layouts(3, max_layouts=5)) == 5

    def test_all_fusions_partition(self):
        for f in enumerate_fusions(4):
            assert sum(f) == 4

    def test_names(self):
        assert layout_name(Layout((0, 1, 2), (1, 1, 1))) == "012"
        assert layout_name(Layout((2, 0, 1), (1, 2))) == "201 fuse 1&2"
        assert layout_name(Layout((0, 1, 2), (3,))) == "012 fuse 0&1&2"
