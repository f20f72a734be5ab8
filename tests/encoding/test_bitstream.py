"""Unit and property tests for MSB-first bit I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import bitstream
from repro.encoding.bitstream import BitReader, BitWriter
from tests.encoding.reference import ReferenceBitWriter


class TestBitWriterBasics:
    def test_empty_writer_yields_empty_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_byte_msb_first(self):
        w = BitWriter()
        w.write(0b10110001, 8)
        assert w.getvalue() == bytes([0b10110001])

    def test_partial_byte_right_padded(self):
        w = BitWriter()
        w.write(0b101, 3)
        assert w.getvalue() == bytes([0b10100000])
        assert w.bit_length == 3

    def test_cross_byte_write(self):
        w = BitWriter()
        w.write(0xABC, 12)
        assert w.getvalue() == bytes([0xAB, 0xC0])

    def test_zero_bit_write_is_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0
        assert w.getvalue() == b""

    def test_write_bit(self):
        w = BitWriter()
        for b in [1, 0, 1, 1]:
            w.write_bit(b)
        assert w.getvalue() == bytes([0b10110000])

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 3)

    def test_nbits_over_64_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(0, 65)

    def test_64bit_write_roundtrip(self):
        w = BitWriter()
        val = (1 << 64) - 3
        w.write(val, 64)
        r = BitReader(w.getvalue())
        assert r.read(64) == val

    def test_getvalue_idempotent(self):
        w = BitWriter()
        w.write(0b1101, 4)
        assert w.getvalue() == w.getvalue()

    def test_write_after_getvalue_continues_stream(self):
        w = BitWriter()
        w.write(0xF, 4)
        _ = w.getvalue()
        w.write(0x0, 4)
        assert w.getvalue() == bytes([0xF0])


class TestBulkPaths:
    def test_varwidth_matches_scalar_writes(self):
        codes = np.array([0b1, 0b10, 0b111, 0b0], dtype=np.uint64)
        lens = np.array([1, 2, 3, 4], dtype=np.uint8)
        w1 = BitWriter()
        w1.write_varwidth(codes, lens)
        w2 = BitWriter()
        for c, l in zip(codes, lens):
            w2.write(int(c), int(l))
        assert w1.getvalue() == w2.getvalue()
        assert w1.bit_length == w2.bit_length == 10

    def test_varwidth_shape_mismatch_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_varwidth(np.array([1, 2], dtype=np.uint64), np.array([1], dtype=np.uint8))

    def test_write_bool_array(self):
        w = BitWriter()
        w.write_bool_array(np.array([1, 0, 1, 0, 1, 0, 1, 0]))
        assert w.getvalue() == bytes([0b10101010])

    def test_read_bool_array_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 777).astype(np.uint8)
        w = BitWriter()
        w.write_bool_array(bits)
        r = BitReader(w.getvalue())
        np.testing.assert_array_equal(r.read_bool_array(777), bits)


class TestBitReader:
    def test_read_past_end_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(EOFError):
            r.read(1)

    def test_bit_length_limit_enforced(self):
        r = BitReader(b"\xff", bit_length=3)
        assert r.read(3) == 0b111
        with pytest.raises(EOFError):
            r.read_bit()

    def test_bit_length_beyond_data_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\xff", bit_length=9)

    def test_seek(self):
        r = BitReader(bytes([0b10110001]))
        r.seek(4)
        assert r.read(4) == 0b0001
        r.seek(0)
        assert r.read(4) == 0b1011

    def test_seek_out_of_range(self):
        r = BitReader(b"\x00")
        with pytest.raises(ValueError):
            r.seek(9)

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00")
        r.read(5)
        assert r.bits_remaining == 11


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**32 - 1),
                          st.integers(min_value=1, max_value=32)), max_size=200))
@settings(max_examples=60, deadline=None)
def test_scalar_roundtrip_property(pairs):
    """Any sequence of (value, width) writes reads back exactly."""
    pairs = [(v & ((1 << n) - 1), n) for v, n in pairs]
    w = BitWriter()
    for v, n in pairs:
        w.write(v, n)
    r = BitReader(w.getvalue(), bit_length=w.bit_length)
    for v, n in pairs:
        assert r.read(n) == v
    assert r.bits_remaining == 0


def _replay(writer_cls, ops) -> tuple[bytes, int]:
    w = writer_cls()
    for op in ops:
        if op[0] == "write":
            w.write(op[1], op[2])
        else:
            w.write_varwidth(op[1], op[2])
    return w.getvalue(), w.bit_length


def _assert_same_as_oracle(ops) -> None:
    assert _replay(BitWriter, ops) == _replay(ReferenceBitWriter, ops)


def _batch(rng, n: int, lo: int, hi: int):
    lengths = rng.integers(lo, hi + 1, n).astype(np.uint8)
    codes = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    codes &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)  # 1 << 64 is 0 in NumPy
    return ("bulk", codes, lengths)


class TestWriterOracle:
    """The word-plane pack must write the bytes the bit-by-bit expansion wrote."""

    @pytest.mark.parametrize("width", range(1, 65))
    def test_equal_length_batches_at_every_offset(self, width):
        rng = np.random.default_rng(width)
        ops = []
        for lead in range(8):  # bulk writes start at every bit phase
            ops.append(("write", (1 << lead) - 1, lead))
            ops.append(_batch(rng, 37, width, width))
        _assert_same_as_oracle(ops)

    @pytest.mark.parametrize("lo,hi", [(1, 16), (1, 32), (20, 40), (1, 64), (33, 64)])
    def test_mixed_widths_with_scalar_writes(self, lo, hi):
        rng = np.random.default_rng(lo * 100 + hi)
        ops = []
        for i in range(6):
            ops.append(("write", int(rng.integers(0, 2**13)), 13))
            ops.append(_batch(rng, 500 + 97 * i, lo, hi))
            ops.append(("write", 2**64 - 1, 64))
        _assert_same_as_oracle(ops)

    def test_zero_lengths_and_wide_values_write_low_bits_only(self):
        codes = np.array([7, 2**40 + 5, 3, 2**64 - 1], dtype=np.uint64)
        lengths = np.array([0, 3, 2, 33], dtype=np.uint8)
        _assert_same_as_oracle([("write", 1, 3), ("bulk", codes, lengths)])

    def test_batches_span_several_pack_blocks(self, monkeypatch):
        monkeypatch.setattr(bitstream, "_PACK_BLOCK", 64)
        rng = np.random.default_rng(9)
        _assert_same_as_oracle([("write", 5, 3), _batch(rng, 1000, 1, 64), _batch(rng, 300, 7, 7)])

    def test_pending_scalar_writes_flush_through_the_pack(self):
        ops = [("write", v % (1 << n), n) for v, n in zip(range(3, 3000, 7), [1, 5, 64, 33, 17, 2] * 100)]
        _assert_same_as_oracle(ops)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                          st.integers(min_value=0, max_value=64)), min_size=1, max_size=300),
       st.integers(min_value=0, max_value=63))
@settings(max_examples=60, deadline=None)
def test_varwidth_matches_oracle_property(pairs, lead):
    codes = np.array([v for v, _ in pairs], dtype=np.uint64)
    lengths = np.array([n for _, n in pairs], dtype=np.uint8)
    _assert_same_as_oracle([("write", 0, lead), ("bulk", codes, lengths)])
