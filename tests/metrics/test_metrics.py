"""Tests for PSNR, SSIM and rate metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    RateDistortionCurve,
    RatePoint,
    bit_rate,
    compression_ratio,
    max_abs_error,
    mean_abs_error,
    psnr,
    rmse,
    ssim,
    value_range,
)


class TestPointwise:
    def test_rmse_known(self):
        a = np.array([0.0, 0.0, 0.0, 0.0])
        b = np.array([1.0, -1.0, 1.0, -1.0])
        assert rmse(a, b) == 1.0

    def test_psnr_formula(self):
        """Paper Eq. 3 on a hand-computable case."""
        a = np.array([0.0, 10.0])
        b = np.array([1.0, 10.0])
        expected = 20 * np.log10(10.0 / np.sqrt(0.5))
        assert psnr(a, b) == pytest.approx(expected)

    def test_psnr_perfect_is_inf(self):
        a = np.arange(10.0)
        assert psnr(a, a.copy()) == float("inf")

    def test_psnr_with_mask_ignores_fill(self):
        a = np.array([0.0, 1.0, 9.97e36])
        b = np.array([0.0, 0.9, 0.0])
        mask = np.array([True, True, False])
        p = psnr(a, b, mask)
        # without the mask the 1e36 fill dominates; with it, PSNR is the
        # plain two-point computation
        assert p == pytest.approx(20 * np.log10(1.0 / np.sqrt(0.005)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    def test_max_and_mean_abs(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 3.0])
        assert max_abs_error(a, b) == 3.0
        assert mean_abs_error(a, b) == 2.0

    def test_value_range(self):
        assert value_range(np.array([-2.0, 5.0])) == 7.0

    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_psnr_monotone_in_error(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(100) * 10
        noise = rng.standard_normal(100)
        small = psnr(a, a + scale * 0.1 * noise)
        large = psnr(a, a + scale * noise)
        assert small >= large


class TestSSIM:
    def test_identical_is_one(self):
        img = np.random.default_rng(0).random((32, 32))
        assert ssim(img, img.copy()) == pytest.approx(1.0)

    def test_degrades_with_noise(self):
        rng = np.random.default_rng(1)
        img = np.outer(np.sin(np.arange(64) / 8.0), np.cos(np.arange(64) / 6.0))
        lo = ssim(img, img + 0.01 * rng.standard_normal(img.shape))
        hi = ssim(img, img + 0.3 * rng.standard_normal(img.shape))
        assert 0 <= hi < lo <= 1

    def test_3d_averages_slices(self):
        rng = np.random.default_rng(2)
        vol = rng.random((4, 24, 24))
        assert ssim(vol, vol.copy()) == pytest.approx(1.0)

    def test_mask_restricts_windows(self):
        rng = np.random.default_rng(3)
        img = rng.random((32, 32))
        bad = img.copy()
        bad[:16] += 100.0  # destroy the top half
        mask = np.zeros(img.shape, dtype=bool)
        mask[16:] = True
        with_mask = ssim(img, bad, mask=mask)
        without = ssim(img, bad)
        assert with_mask > without

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros(5), np.zeros(5))

    def test_fill_values_do_not_poison_valid_windows(self):
        """Regression: ~1e36 fills upstream of a window used to wipe out the
        box-sum precision and force SSIM to exactly 1.0 under a mask."""
        rng = np.random.default_rng(9)
        img = np.sin(np.arange(40) / 5.0)[:, None] * np.ones(40)
        bad = img + 0.3 * rng.standard_normal(img.shape)
        x = img.copy()
        y = bad.copy()
        mask = np.ones(img.shape, dtype=bool)
        mask[:10] = False
        x[:10] = 9.96921e36
        y[:10] = 9.96921e36
        score = ssim(x, y, mask=mask)
        clean = ssim(img[10:], bad[10:])
        assert score < 0.99
        assert score == pytest.approx(clean, abs=0.1)

    def test_constant_images(self):
        img = np.full((16, 16), 3.0)
        assert ssim(img, img.copy()) == 1.0

    def test_against_naive_reference(self):
        """Box-filter implementation equals the direct windowed formula."""
        rng = np.random.default_rng(4)
        x = rng.random((12, 13))
        y = x + 0.1 * rng.standard_normal((12, 13))
        w = 8  # ssim's window
        span = x.max() - x.min()
        c1, c2 = (0.01 * span) ** 2, (0.03 * span) ** 2
        scores = []
        for i in range(12 - w + 1):
            for j in range(13 - w + 1):
                wx = x[i:i+w, j:j+w]
                wy = y[i:i+w, j:j+w]
                mx, my = wx.mean(), wy.mean()
                vx, vy = wx.var(), wy.var()
                cxy = ((wx - mx) * (wy - my)).mean()
                scores.append(((2*mx*my + c1) * (2*cxy + c2))
                              / ((mx*mx + my*my + c1) * (vx + vy + c2)))
        assert ssim(x, y) == pytest.approx(np.mean(scores))


class TestRate:
    def test_compression_ratio(self):
        assert compression_ratio(1000, 500) == pytest.approx(8.0)

    def test_bit_rate(self):
        assert bit_rate(1000, 500) == pytest.approx(4.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            compression_ratio(10, 0)
        with pytest.raises(ValueError):
            bit_rate(0, 10)

    def test_curve_interpolation(self):
        curve = RateDistortionCurve("cliz", "SSH")
        curve.add(RatePoint(1e-2, 1.0, 32.0, 50.0, 0.9))
        curve.add(RatePoint(1e-3, 2.0, 16.0, 70.0, 0.99))
        # CR interpolates geometrically (log-CR vs PSNR)
        assert curve.ratio_at_psnr(60.0) == pytest.approx(np.sqrt(32.0 * 16.0))
