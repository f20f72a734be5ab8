"""Tests for the error-bounded linear quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import DEFAULT_RADIUS, UNPREDICTABLE, LinearQuantizer


class TestConstruction:
    @pytest.mark.parametrize("eb", [0.0, -1.0, np.nan, np.inf])
    def test_bad_error_bound_rejected(self, eb):
        with pytest.raises(ValueError):
            LinearQuantizer(eb)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            LinearQuantizer(0.1, radius=1)

    def test_alphabet_size(self):
        assert LinearQuantizer(0.1, radius=16).alphabet_size == 32


class TestQuantize:
    def test_error_bound_always_honoured(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 100, 10000)
        preds = values + rng.normal(0, 5, 10000)
        q = LinearQuantizer(0.01)
        codes, rec = q.quantize(values, preds)
        assert np.abs(rec - values).max() <= 0.01

    def test_perfect_prediction_gives_center_code(self):
        q = LinearQuantizer(0.5)
        codes, rec = q.quantize(np.array([3.0]), np.array([3.0]))
        assert codes[0] == DEFAULT_RADIUS
        assert rec[0] == 3.0

    def test_large_residual_escapes_to_unpredictable(self):
        q = LinearQuantizer(1e-6, radius=8)
        codes, rec = q.quantize(np.array([1e6]), np.array([0.0]))
        assert codes[0] == UNPREDICTABLE
        assert rec[0] == 1e6  # exact

    def test_nonfinite_prediction_escapes(self):
        q = LinearQuantizer(0.1)
        codes, rec = q.quantize(np.array([1.0]), np.array([np.inf]))
        assert codes[0] == UNPREDICTABLE
        assert rec[0] == 1.0

    def test_huge_masked_style_values_stay_finite(self):
        """Values like 2^122 (CESM fill values) must not crash or emit NaN."""
        q = LinearQuantizer(0.1)
        codes, rec = q.quantize(np.array([2.0 ** 122]), np.array([0.0]))
        assert codes[0] == UNPREDICTABLE
        assert np.isfinite(rec[0])

    def test_code_range(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 10, 1000)
        q = LinearQuantizer(0.05, radius=256)
        codes, _ = q.quantize(values, np.zeros(1000))
        assert codes.min() >= 0
        assert codes.max() < 512


class TestDequantize:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 3, 500)
        preds = values + rng.normal(0, 0.5, 500)
        q = LinearQuantizer(0.02)
        codes, rec = q.quantize(values, preds)
        unpred = values[codes == UNPREDICTABLE]
        rec2 = q.dequantize(codes, preds, unpred)
        np.testing.assert_allclose(rec2, rec)

    def test_missing_unpredictables_raise(self):
        q = LinearQuantizer(1e-9, radius=4)
        codes, _ = q.quantize(np.array([100.0, 200.0]), np.zeros(2))
        assert (codes == UNPREDICTABLE).all()
        with pytest.raises(ValueError):
            q.dequantize(codes, np.zeros(2), np.array([100.0]))


@given(st.floats(min_value=1e-8, max_value=1e3),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_bound_property(eb, seed):
    """For any eb and data, |x - x̂| <= eb pointwise after quantization."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 10, 200) * rng.choice([1, 1e4, 1e-4], 200)
    preds = values + rng.normal(0, 2, 200)
    q = LinearQuantizer(eb, radius=64)
    codes, rec = q.quantize(values, preds)
    assert np.abs(rec - values).max() <= eb
    unpred = values[codes == UNPREDICTABLE]
    rec2 = q.dequantize(codes, preds, unpred)
    np.testing.assert_allclose(rec2, rec)
