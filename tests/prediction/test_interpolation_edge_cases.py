"""Edge-case tests for the interpolation engine beyond the basic roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction import InterpSpec, interp_compress, interp_decompress
from repro.prediction.interpolation import traversal_indices
from repro.quantization.linear import UNPREDICTABLE


def roundtrip(data, eb, spec, mask=None):
    res = interp_compress(data, eb, spec, mask=mask)
    dec = interp_decompress(data.shape, eb, spec, res.codes, res.unpredictable,
                            mask=mask, fit_choices=res.fit_choices or None)
    return res, dec


class TestDegenerateShapes:
    @pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 7), (7, 1), (1, 1, 9), (2, 1, 2)])
    def test_unit_axes(self, shape):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(shape)
        res, dec = roundtrip(data, 0.01, InterpSpec(order=tuple(range(len(shape)))))
        assert np.abs(dec - data).max() <= 0.01

    def test_power_of_two_plus_minus_one(self):
        for n in (15, 16, 17, 31, 32, 33):
            data = np.sin(np.arange(n) / 3.0)
            res, dec = roundtrip(data, 1e-4, InterpSpec(order=(0,)))
            assert np.abs(dec - data).max() <= 1e-4, n

    def test_extreme_aspect_ratio(self):
        rng = np.random.default_rng(1)
        data = np.cumsum(rng.standard_normal((2, 500)), axis=1)
        res, dec = roundtrip(data, 1e-3, InterpSpec(order=(0, 1)))
        assert np.abs(dec - data).max() <= 1e-3


class TestNumericalExtremes:
    def test_tiny_values_tiny_bound(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((9, 9)) * 1e-20
        eb = 1e-24
        res, dec = roundtrip(data, eb, InterpSpec(order=(0, 1)))
        assert np.abs(dec - data).max() <= eb

    def test_huge_values(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((9, 9)) * 1e20
        eb = 1e16
        res, dec = roundtrip(data, eb, InterpSpec(order=(0, 1)))
        assert np.abs(dec - data).max() <= eb

    def test_mixed_sign_offsets(self):
        data = np.array([[1e10, -1e10], [-1e10, 1e10]], dtype=np.float64)
        res, dec = roundtrip(data, 1.0, InterpSpec(order=(0, 1)))
        assert np.abs(dec - data).max() <= 1.0

    def test_radius_two_forces_unpredictables(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((8, 8)) * 100
        spec = InterpSpec(order=(0, 1), radius=2)
        res, dec = roundtrip(data, 1e-9, spec)
        assert (res.codes == UNPREDICTABLE).mean() > 0.9
        np.testing.assert_array_equal(dec, data)  # everything stored exactly


class TestLevelEbFactors:
    def test_tighter_coarse_levels_reduce_rmse(self):
        rng = np.random.default_rng(5)
        data = np.cumsum(np.cumsum(rng.standard_normal((33, 33)), 0), 1)
        eb = 0.5
        plain = interp_compress(data, eb, InterpSpec(order=(0, 1)))
        tight = interp_compress(data, eb, InterpSpec(order=(0, 1),
                                                     level_eb_factors=(0.1, 0.2, 0.5)))
        rmse_plain = np.sqrt(((plain.reconstructed - data) ** 2).mean())
        rmse_tight = np.sqrt(((tight.reconstructed - data) ** 2).mean())
        assert rmse_tight < rmse_plain

    def test_factors_shorter_than_levels_ok(self):
        data = np.sin(np.arange(100) / 5.0)
        spec = InterpSpec(order=(0,), level_eb_factors=(0.5,))
        res, dec = roundtrip(data, 1e-3, spec)
        assert np.abs(dec - data).max() <= 1e-3


class TestMaskEdgeCases:
    def test_single_valid_point(self):
        data = np.full((6, 6), 3.5)
        mask = np.zeros((6, 6), dtype=bool)
        mask[3, 4] = True
        res, dec = roundtrip(data, 0.1, InterpSpec(order=(0, 1)), mask=mask)
        assert res.codes.size == 1
        assert abs(dec[3, 4] - 3.5) <= 0.1

    def test_checkerboard_mask(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((12, 12))
        mask = (np.add.outer(np.arange(12), np.arange(12)) % 2).astype(bool)
        res, dec = roundtrip(data, 0.05, InterpSpec(order=(0, 1)), mask=mask)
        assert np.abs(dec - data)[mask].max() <= 0.05

    def test_mask_row_of_valid(self):
        data = np.sin(np.arange(64) / 4.0)[None, :] * np.ones((8, 1))
        mask = np.zeros((8, 64), dtype=bool)
        mask[4] = True
        res, dec = roundtrip(data, 1e-3, InterpSpec(order=(0, 1)), mask=mask)
        assert np.abs(dec - data)[mask].max() <= 1e-3


class TestStreamConsumption:
    """Decoding must use up both streams exactly."""

    @staticmethod
    def _stream(masked):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((10, 13)) * 50.0
        mask = rng.random(data.shape) > 0.3 if masked else None
        spec = InterpSpec(order=(0, 1))
        res = interp_compress(data, 1e-4, spec, mask=mask)
        assert res.unpredictable.size > 0
        return data.shape, spec, res, mask

    @pytest.mark.parametrize("masked", [False, True])
    def test_trailing_unpredictable_values_rejected(self, masked):
        shape, spec, res, mask = self._stream(masked)
        padded = np.concatenate([res.unpredictable, [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="unpredictable stream has 3 unconsumed values"):
            interp_decompress(shape, 1e-4, spec, res.codes, padded, mask=mask)

    @pytest.mark.parametrize("masked", [False, True])
    def test_trailing_codes_rejected(self, masked):
        shape, spec, res, mask = self._stream(masked)
        padded = np.concatenate([res.codes, [spec.radius]])
        with pytest.raises(ValueError, match="code stream has 1 unconsumed entries"):
            interp_decompress(shape, 1e-4, spec, padded, res.unpredictable, mask=mask)


class TestTraversal:
    def test_full_cover_without_mask(self):
        for shape in [(7,), (5, 9), (3, 4, 5)]:
            idx = traversal_indices(shape, tuple(range(len(shape))))
            assert sorted(idx.tolist()) == list(range(int(np.prod(shape))))

    def test_masked_cover(self):
        rng = np.random.default_rng(7)
        shape = (6, 8)
        mask = rng.random(shape) > 0.4
        mask[0, 0] = True
        idx = traversal_indices(shape, (0, 1), mask)
        assert sorted(idx.tolist()) == sorted(np.flatnonzero(mask.ravel()).tolist())

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_cover_property(self, seed):
        rng = np.random.default_rng(seed)
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 9)) for _ in range(ndim))
        order = tuple(rng.permutation(ndim).tolist())
        idx = traversal_indices(shape, order)
        assert sorted(idx.tolist()) == list(range(int(np.prod(shape))))
