"""Differential tests: the fused interpolation engine vs the two-pass oracle.

:func:`interp_compress` runs one predict+quantize loop for masked and
unmasked data alike; it must be *bit-identical* to
:func:`tests.prediction.reference.interp_compress_reference` — same code
stream, same unpredictable values, same reconstruction (zero signs and NaN
payloads included), same auto-fit choices — and :func:`interp_decompress`
must replay every stream to that reconstruction. The matrix covers every
layout, fitting mode and error-bound factor, unmasked and with masks laid
out like CliZ's (fragmented coastlines, empty, single-point, all-valid),
with non-finite and huge fill values on both sides of the mask. This
mirrors the pattern of fuzzing the vectorized Huffman decoder against its
retained scalar oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dims import apply_layout, enumerate_layouts
from repro.datasets.topography import synth_topography, threshold_mask
from repro.prediction import InterpSpec, interp_compress, interp_decompress
from tests.prediction.reference import interp_compress_reference

FITTINGS = ("linear", "cubic", "auto")


def smooth_field(shape, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    out = sum(np.sin(g * (i + 1)) for i, g in enumerate(grids))
    return np.asarray(out + noise * rng.standard_normal(shape), dtype=np.float64)


def bits(a):
    """Bit patterns of a float64 array: tells -0.0 from 0.0, NaN payloads apart."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_identical(data, eb, spec, mask=None):
    fused = interp_compress(data, eb, spec, mask=mask)
    oracle = interp_compress_reference(data, eb, spec, mask=mask)
    np.testing.assert_array_equal(fused.codes, oracle.codes)
    np.testing.assert_array_equal(bits(fused.unpredictable), bits(oracle.unpredictable))
    np.testing.assert_array_equal(bits(fused.reconstructed), bits(oracle.reconstructed))
    assert fused.fit_choices == oracle.fit_choices
    # and the stream decodes back to the (shared) reconstruction
    choices = fused.fit_choices if spec.fitting == "auto" else None
    dec = interp_decompress(data.shape, eb, spec, fused.codes,
                            fused.unpredictable, mask=mask,
                            fit_choices=choices)
    np.testing.assert_array_equal(bits(dec), bits(fused.reconstructed))
    return fused


def coastline_mask(shape, seed=0, valid_fraction=0.65):
    """An SSH-like ocean mask: thresholded fractal terrain over the first two
    axes, repeated along the rest."""
    topo = synth_topography(shape[:2], seed=seed)
    valid = threshold_mask(topo, valid_fraction)
    return np.broadcast_to(valid.reshape(shape[:2] + (1,) * (len(shape) - 2)),
                           shape).copy()


class TestAllLayouts:
    """Every 3D (perm, fusion) layout: the shapes the CliZ tuner explores."""

    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_every_layout_matches_oracle(self, fitting):
        data = smooth_field((12, 10, 14), seed=1)
        for layout in enumerate_layouts(3):
            laid = apply_layout(data, layout)
            spec = InterpSpec(order=tuple(range(laid.ndim)), fitting=fitting)
            assert_identical(laid, 1e-3, spec)

    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_every_layout_masked_matches_oracle(self, fitting):
        """CliZ lays the mask out with the data, fused dims included."""
        data = smooth_field((12, 10, 14), seed=11)
        mask = coastline_mask(data.shape, seed=11)
        for layout in enumerate_layouts(3):
            laid = apply_layout(data, layout)
            lmask = apply_layout(mask, layout)
            spec = InterpSpec(order=tuple(range(laid.ndim)), fitting=fitting)
            assert_identical(laid, 1e-3, spec, mask=lmask)

    def test_permuted_orders_match_oracle(self):
        data = smooth_field((9, 16, 11), seed=2)
        for order in [(0, 1, 2), (2, 1, 0), (1, 2, 0)]:
            spec = InterpSpec(order=order, fitting="cubic")
            assert_identical(data, 1e-3, spec)


class TestMaskedUnmasked:
    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_unmasked(self, fitting):
        data = smooth_field((17, 23), seed=3)
        spec = InterpSpec(order=(0, 1), fitting=fitting)
        assert_identical(data, 1e-3, spec)

    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_masked(self, fitting):
        data = smooth_field((17, 23), seed=4)
        rng = np.random.default_rng(4)
        mask = rng.random(data.shape) > 0.3
        spec = InterpSpec(order=(0, 1), fitting=fitting)
        assert_identical(data, 1e-3, spec, mask=mask)

    def test_unpredictable_heavy_stream(self):
        """Tiny eb + heavy noise: lots of escapes, both paths agree."""
        rng = np.random.default_rng(5)
        data = rng.standard_normal((31, 18)) * 100.0
        spec = InterpSpec(order=(0, 1), fitting="cubic")
        fused = assert_identical(data, 1e-9, spec)
        assert fused.unpredictable.size > 0

    def test_nonfinite_values_escape_identically(self):
        data = smooth_field((16, 12), seed=6)
        data[3, 4] = np.inf
        data[7, 7] = np.nan
        spec = InterpSpec(order=(0, 1), fitting="cubic")
        fused = assert_identical(data, 1e-3, spec)
        assert fused.unpredictable.size >= 2


class TestMaskMatrix:
    """Masks of the shapes CliZ meets, against the oracle."""

    @pytest.mark.parametrize("fitting", FITTINGS)
    @pytest.mark.parametrize("seed", [1, 31])
    def test_fragmented_coastline(self, fitting, seed):
        data = smooth_field((24, 20, 40), seed=seed)
        mask = coastline_mask(data.shape, seed=seed)
        assert 0.5 < mask.mean() < 0.8
        spec = InterpSpec(order=(0, 1, 2), fitting=fitting)
        assert_identical(data, 1e-3, spec, mask=mask)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_level_eb_factors_auto(self, order):
        data = smooth_field((17, 33, 12), seed=12, noise=0.1)
        mask = coastline_mask(data.shape, seed=12)
        spec = InterpSpec(order=order, fitting="auto",
                          level_eb_factors=(0.25, 0.5, 0.75))
        fused = assert_identical(data, 1e-3, spec, mask=mask)
        assert set(fused.fit_choices) == {0, 1}  # both fits are exercised

    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_all_false_mask_is_an_empty_stream(self, fitting):
        data = smooth_field((9, 14, 6), seed=13)
        mask = np.zeros(data.shape, dtype=bool)
        spec = InterpSpec(order=(0, 1, 2), fitting=fitting)
        fused = assert_identical(data, 1e-3, spec, mask=mask)
        assert fused.codes.size == 0 and fused.unpredictable.size == 0
        np.testing.assert_array_equal(bits(fused.reconstructed),
                                      bits(np.zeros(data.shape)))

    @pytest.mark.parametrize("point", [(0, 0, 0), (4, 7, 3), (8, 13, 5)])
    def test_single_valid_point(self, point):
        data = smooth_field((9, 14, 6), seed=14)
        mask = np.zeros(data.shape, dtype=bool)
        mask[point] = True
        for fitting in FITTINGS:
            spec = InterpSpec(order=(0, 1, 2), fitting=fitting)
            fused = assert_identical(data, 1e-3, spec, mask=mask)
            assert fused.codes.size == 1

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 2.0 ** 122])
    def test_fill_values_at_masked_points(self, fill):
        """Fill values under the mask never reach the stream."""
        data = smooth_field((16, 12, 18), seed=15)
        mask = coastline_mask(data.shape, seed=15)
        spec = InterpSpec(order=(0, 1, 2), fitting="cubic")
        clean = interp_compress(data, 1e-3, spec, mask=mask)
        filled = data.copy()
        filled[~mask] = fill
        fused = assert_identical(filled, 1e-3, spec, mask=mask)
        np.testing.assert_array_equal(fused.codes, clean.codes)
        np.testing.assert_array_equal(bits(fused.reconstructed),
                                      bits(clean.reconstructed))

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 2.0 ** 122])
    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_fill_values_at_valid_points(self, fill, fitting):
        """Non-finite or huge valid values escape and poison neighbours alike."""
        data = smooth_field((16, 12, 18), seed=16)
        mask = coastline_mask(data.shape, seed=16)
        valid_idx = np.flatnonzero(mask)
        hit = valid_idx[np.linspace(0, valid_idx.size - 1, 7).astype(int)]
        data.ravel()[hit] = fill
        spec = InterpSpec(order=(0, 1, 2), fitting=fitting)
        with np.errstate(invalid="ignore", over="ignore"):
            fused = assert_identical(data, 1e-3, spec, mask=mask)
        assert fused.unpredictable.size >= hit.size

    @pytest.mark.parametrize("fitting", FITTINGS)
    def test_all_true_mask_matches_unmasked_output(self, fitting):
        data = smooth_field((13, 21, 10), seed=17, noise=0.1)
        spec = InterpSpec(order=(1, 2, 0), fitting=fitting,
                          level_eb_factors=(0.5,))
        masked = interp_compress(data, 1e-3, spec,
                                 mask=np.ones(data.shape, dtype=bool))
        plain = interp_compress(data, 1e-3, spec)
        np.testing.assert_array_equal(masked.codes, plain.codes)
        np.testing.assert_array_equal(bits(masked.unpredictable),
                                      bits(plain.unpredictable))
        np.testing.assert_array_equal(bits(masked.reconstructed),
                                      bits(plain.reconstructed))
        assert masked.fit_choices == plain.fit_choices


class TestGeometryEdges:
    """Shapes that stress the interior/edge row split of the fast path."""

    @pytest.mark.parametrize("shape", [
        (1,), (2,), (3,), (4,), (5,), (7,), (8,), (9,), (16,), (17,),
        (1, 1), (1, 9), (2, 2), (3, 1, 4), (5, 6, 7, 2),
    ])
    def test_small_and_degenerate_shapes(self, shape):
        data = smooth_field(shape, seed=7)
        for fitting in FITTINGS:
            spec = InterpSpec(order=tuple(range(len(shape))), fitting=fitting)
            assert_identical(data, 1e-3, spec)

    def test_level_eb_factors_and_radius(self):
        data = smooth_field((33, 14), seed=8)
        spec = InterpSpec(order=(0, 1), fitting="cubic",
                          level_eb_factors=(0.25, 0.5), radius=64)
        assert_identical(data, 1e-3, spec)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
    fitting=st.sampled_from(FITTINGS),
    seed=st.integers(0, 2**16),
    log_eb=st.integers(-6, -1),
    masked=st.booleans(),
)
def test_fuzz_fused_matches_oracle(shape, fitting, seed, log_eb, masked):
    rng = np.random.default_rng(seed)
    data = smooth_field(shape, seed=seed, noise=0.1)
    mask = None
    if masked:
        mask = rng.random(shape) > 0.25
    spec = InterpSpec(order=tuple(range(len(shape))), fitting=fitting)
    assert_identical(data, 10.0 ** log_eb, spec, mask=mask)
