"""Tests for RLE bitmaps/runs, the container format, and multi-Huffman coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.container import Container
from repro.encoding.multihuffman import (
    decode_grouped,
    encode_grouped,
    grouped_cost_bits,
    single_cost_bits,
)
from repro.encoding.rle import pack_bitmap, unpack_bitmap


class TestBitmap:
    def test_empty(self):
        out = unpack_bitmap(pack_bitmap(np.zeros(0, dtype=bool)))
        assert out.size == 0

    def test_all_true(self):
        bits = np.ones(1000, dtype=bool)
        np.testing.assert_array_equal(unpack_bitmap(pack_bitmap(bits)), bits)

    def test_shape_restored(self):
        bits = np.zeros((8, 9), dtype=bool)
        bits[2:5, 3:7] = True
        out = unpack_bitmap(pack_bitmap(bits), shape=(8, 9))
        np.testing.assert_array_equal(out, bits)

    def test_coherent_mask_compresses_well(self):
        """Land/ocean masks have long runs: must compress far below 1 bit/px."""
        y, x = np.mgrid[0:200, 0:300]
        mask = (np.sin(x / 40.0) + np.cos(y / 30.0)) > 0
        blob = pack_bitmap(mask)
        assert len(blob) * 8 < mask.size // 4

    @given(st.lists(st.booleans(), max_size=500))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, bools):
        bits = np.array(bools, dtype=bool)
        np.testing.assert_array_equal(unpack_bitmap(pack_bitmap(bits)), bits)


class TestContainer:
    def test_roundtrip_with_sections(self):
        c = Container("cliz", {"shape": [3, 4], "eb": 0.01})
        c.add_section("bins", b"\x01\x02\x03")
        c.add_section("mask", b"")
        blob = c.to_bytes()
        c2 = Container.from_bytes(blob)
        assert c2.codec == "cliz"
        assert c2.header == {"shape": [3, 4], "eb": 0.01}
        assert c2.section("bins") == b"\x01\x02\x03"
        assert c2.section("mask") == b""
        assert c2.section_names == ["bins", "mask"]

    def test_peek_codec(self):
        blob = Container("sperr").to_bytes()
        assert Container.peek_codec(blob) == "sperr"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            Container.from_bytes(b"XXXX\x01")

    def test_duplicate_section_rejected(self):
        c = Container("x")
        c.add_section("a", b"1")
        with pytest.raises(ValueError):
            c.add_section("a", b"2")

    def test_missing_section_keyerror(self):
        c = Container("x")
        with pytest.raises(KeyError):
            c.section("nope")

    def test_truncated_section_raises(self):
        c = Container("x")
        c.add_section("a", b"12345678")
        blob = c.to_bytes()
        with pytest.raises((EOFError, ValueError)):
            Container.from_bytes(blob[:-4])

    def test_crc_detects_corruption(self):
        c = Container("x", {"k": 1})
        c.add_section("a", b"payload-bytes")
        blob = bytearray(c.to_bytes())
        blob[10] ^= 0xFF
        with pytest.raises(ValueError, match="checksum"):
            Container.from_bytes(bytes(blob))

    def test_crc_detects_truncation(self):
        c = Container("x")
        c.add_section("a", b"12345678")
        blob = c.to_bytes()
        with pytest.raises((EOFError, ValueError)):
            Container.from_bytes(blob[: len(blob) // 2])

    def test_binary_payload_preserved(self):
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 256, 10000, dtype=np.uint8).tobytes()
        c = Container("x")
        c.add_section("blob", payload)
        assert Container.from_bytes(c.to_bytes()).section("blob") == payload


class TestMultiHuffman:
    def test_two_group_roundtrip(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 32, 5000)
        groups = (rng.random(5000) < 0.5).astype(np.int64)
        blob = encode_grouped(symbols, groups, 2)
        decoded, pos = decode_grouped(blob, groups)
        np.testing.assert_array_equal(decoded, symbols)
        assert pos == len(blob)

    def test_empty_group_allowed(self):
        symbols = np.array([1, 2, 3])
        groups = np.zeros(3, dtype=np.int64)
        blob = encode_grouped(symbols, groups, 3)
        decoded, _ = decode_grouped(blob, groups)
        np.testing.assert_array_equal(decoded, symbols)

    def test_empty_input(self):
        blob = encode_grouped(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2)
        decoded, _ = decode_grouped(blob, np.array([], dtype=np.int64))
        assert decoded.size == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            encode_grouped(np.array([1, 2]), np.array([0]), 1)

    def test_out_of_range_group_rejected(self):
        with pytest.raises(ValueError):
            encode_grouped(np.array([1]), np.array([5]), 2)

    def test_wrong_group_map_at_decode_rejected(self):
        symbols = np.array([1, 2, 3, 4])
        groups = np.array([0, 0, 1, 1])
        blob = encode_grouped(symbols, groups, 2)
        with pytest.raises(ValueError):
            decode_grouped(blob, np.array([0, 1, 1, 1]))

    def test_grouping_helps_on_mixed_distributions(self):
        """Two populations with different peaks: split trees beat one tree.

        This is exactly the paper's quantization-bin dispersion scenario.
        """
        rng = np.random.default_rng(1)
        n = 20000
        g = (rng.random(n) < 0.5).astype(np.int64)
        a = np.clip(np.round(rng.normal(0, 0.7, n)), -3, 3).astype(np.int64) + 8
        b = np.clip(np.round(rng.normal(6, 0.7, n)), 3, 9).astype(np.int64) + 8
        symbols = np.where(g == 0, a, b)
        single = single_cost_bits(symbols)
        grouped = grouped_cost_bits(symbols, g, 2)
        assert grouped < single

    def test_cost_includes_map_charge(self):
        symbols = np.zeros(100, dtype=np.int64)
        groups = np.zeros(100, dtype=np.int64)
        base = grouped_cost_bits(symbols, groups, 1)
        charged = grouped_cost_bits(symbols, groups, 1, map_bits_per_entry=2.0, n_map_entries=50)
        assert charged == base + 100.0

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed, n_groups):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 500))
        symbols = rng.integers(0, 64, n)
        groups = rng.integers(0, n_groups, n)
        blob = encode_grouped(symbols, groups, n_groups)
        decoded, _ = decode_grouped(blob, groups)
        np.testing.assert_array_equal(decoded, symbols)
