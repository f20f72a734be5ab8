"""Tests for quantization-bin classification (shifting + dispersion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binclass import (
    LAMBDA_DEFAULT,
    BinClassification,
    classify_bins,
    undo_shift,
)
from repro.encoding.multihuffman import decode_grouped, encode_grouped

RADIUS = 64


def make_stream(per_loc_bins, n_reps=50, seed=0):
    """Build (codes, hpos) with each location drawing bins from its list."""
    rng = np.random.default_rng(seed)
    codes, hpos = [], []
    for loc, bins in enumerate(per_loc_bins):
        draws = rng.choice(bins, size=n_reps)
        codes.append(draws + RADIUS)
        hpos.append(np.full(n_reps, loc))
    return np.concatenate(codes).astype(np.int64), np.concatenate(hpos).astype(np.int64)


class TestShifting:
    def test_shift_detected_per_location(self):
        codes, hpos = make_stream([[0, 0, 0, 1], [1, 1, 1, 0], [-1, -1, -1, 0]])
        cls, shifted, _ = classify_bins(codes, hpos, 3, RADIUS)
        np.testing.assert_array_equal(cls.shift_map, [0, 1, -1])
        # after shifting, every location peaks at bin 0
        for loc in range(3):
            bins = shifted[hpos == loc] - RADIUS
            vals, counts = np.unique(bins, return_counts=True)
            assert vals[counts.argmax()] == 0

    def test_unpredictable_codes_never_shifted(self):
        codes = np.array([0, RADIUS + 1, RADIUS + 1, 0])
        hpos = np.zeros(4, dtype=np.int64)
        cls, shifted, _ = classify_bins(codes, hpos, 1, RADIUS)
        assert (shifted[codes == 0] == 0).all()

    def test_shift_inverts_exactly(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(RADIUS - 3, RADIUS + 4, 500).astype(np.int64)
        codes[rng.random(500) < 0.05] = 0
        hpos = rng.integers(0, 20, 500).astype(np.int64)
        cls, shifted, _ = classify_bins(codes, hpos, 20, RADIUS)
        np.testing.assert_array_equal(undo_shift(shifted, hpos, cls), codes)

    def test_collision_guard_protects_escape_code(self):
        # location peaks at +1 (would shift by 1) but contains code 1,
        # which would collide with the escape code after shifting.
        codes = np.array([RADIUS + 1, RADIUS + 1, RADIUS + 1, 1], dtype=np.int64)
        hpos = np.zeros(4, dtype=np.int64)
        cls, shifted, _ = classify_bins(codes, hpos, 1, RADIUS)
        assert cls.shift_map[0] == 0
        assert (shifted == codes).all()

    def test_j_zero_disables_shifting(self):
        codes, hpos = make_stream([[1, 1, 1]])
        cls, shifted, _ = classify_bins(codes, hpos, 1, RADIUS, j=0)
        assert (cls.shift_map == 0).all()
        np.testing.assert_array_equal(shifted, codes)


class TestDispersion:
    def test_concentrated_vs_dispersed_split(self):
        concentrated = [[0] * 9 + [1]] * 5          # f0 = 0.9 > λ
        dispersed = [list(range(-5, 6))] * 5        # f0 ≈ 1/11 < λ
        codes, hpos = make_stream(concentrated + dispersed, n_reps=100)
        cls, _, groups = classify_bins(codes, hpos, 10, RADIUS)
        assert (cls.group_map[:5] == 0).all()
        assert (cls.group_map[5:] == 1).all()

    def test_k_zero_single_group(self):
        codes, hpos = make_stream([[0, 1], [3, -3]])
        cls, _, groups = classify_bins(codes, hpos, 2, RADIUS, k=0)
        assert (groups == 0).all()

    def test_lambda_threshold_effect(self):
        # f0 = 0.5: concentrated under λ=0.4, dispersed under λ=0.6
        loc = [[0, 0, 2, 3]]
        codes, hpos = make_stream(loc, n_reps=400)
        cls1, _, _ = classify_bins(codes, hpos, 1, RADIUS, lam=0.4)
        cls2, _, _ = classify_bins(codes, hpos, 1, RADIUS, lam=0.6)
        assert cls1.group_map[0] == 0
        assert cls2.group_map[0] == 1


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        cls = BinClassification(
            shift_map=rng.integers(-1, 2, 500).astype(np.int64),
            group_map=rng.integers(0, 2, 500).astype(np.int64),
            j=1, k=1,
        )
        cls2 = BinClassification.deserialize(cls.serialize())
        np.testing.assert_array_equal(cls2.shift_map, cls.shift_map)
        np.testing.assert_array_equal(cls2.group_map, cls.group_map)
        assert (cls2.j, cls2.k) == (1, 1)

    def test_spatially_coherent_map_is_small(self):
        """§VI-E: map costs ~log2(6)≈2.6 bits/location at worst; coherent
        maps (the realistic case) compress far below that."""
        shift = np.repeat(np.array([0, 1, -1, 0]), 250)
        group = np.repeat(np.array([0, 1, 0, 1]), 250)
        cls = BinClassification(shift, group, 1, 1)
        assert len(cls.serialize()) * 8 < 1000 * 2.6


class TestEndToEnd:
    def test_classified_encoding_roundtrip(self):
        """Full §VI-E path: classify -> multi-Huffman -> decode -> unshift."""
        rng = np.random.default_rng(3)
        n_loc, reps = 40, 80
        per_loc = []
        for loc in range(n_loc):
            if loc % 2 == 0:
                per_loc.append([0, 0, 0, 0, 1])          # concentrated at 0
            else:
                per_loc.append([1, 1, 1, 1, 2])          # shifted peak at +1
        codes, hpos = make_stream(per_loc, n_reps=reps, seed=3)
        cls, shifted, groups = classify_bins(codes, hpos, n_loc, RADIUS)
        blob = encode_grouped(shifted, groups, cls.n_groups)
        # decoder side: rebuild groups from the map, decode, unshift
        cls2 = BinClassification.deserialize(cls.serialize())
        groups2 = cls2.group_map[hpos]
        shifted2, _ = decode_grouped(blob, groups2)
        recovered = undo_shift(shifted2, hpos, cls2)
        np.testing.assert_array_equal(recovered, codes)


class TestValidation:
    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            classify_bins(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64), 1, RADIUS)

    def test_hpos_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_bins(np.zeros(2, dtype=np.int64) + RADIUS,
                          np.array([0, 5]), 2, RADIUS)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            classify_bins(np.zeros(1, dtype=np.int64) + RADIUS,
                          np.zeros(1, dtype=np.int64), 1, RADIUS, j=-1)


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_shift_roundtrip_property(seed, j, k):
    """classify + undo_shift is the identity for any stream and any (j, k)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    n_loc = int(rng.integers(1, 30))
    codes = rng.integers(1, 2 * RADIUS, n).astype(np.int64)
    codes[rng.random(n) < 0.1] = 0
    hpos = rng.integers(0, n_loc, n).astype(np.int64)
    cls, shifted, groups = classify_bins(codes, hpos, n_loc, RADIUS, j=j, k=k)
    assert shifted.min() >= 0
    if (codes != 0).any():
        assert shifted[codes != 0].min() >= 1
    assert shifted.max() <= 2 * RADIUS - 1
    np.testing.assert_array_equal(undo_shift(shifted, hpos, cls), codes)
    cls2 = BinClassification.deserialize(cls.serialize())
    np.testing.assert_array_equal(cls2.shift_map, cls.shift_map)
    np.testing.assert_array_equal(cls2.group_map, cls.group_map)
