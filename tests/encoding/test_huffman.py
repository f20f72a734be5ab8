"""Tests for canonical length-limited Huffman coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.bitstream import BitWriter
from repro.encoding.huffman import MAX_CODE_LENGTH, HuffmanCode


def roundtrip(symbols, alphabet=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    code = HuffmanCode.from_symbols(symbols, alphabet)
    w = BitWriter()
    code.encode(symbols, w)
    decoded, pos = code.decode(w.getvalue(), symbols.size)
    np.testing.assert_array_equal(decoded, symbols)
    assert pos == w.bit_length
    return code, w


class TestConstruction:
    def test_single_symbol_alphabet(self):
        code = HuffmanCode.from_frequencies(np.array([0, 10, 0]))
        assert code.lengths[1] == 1
        assert code.lengths[0] == 0 and code.lengths[2] == 0

    def test_two_symbols_get_one_bit(self):
        code = HuffmanCode.from_frequencies(np.array([5, 5]))
        assert list(code.lengths) == [1, 1]
        assert sorted(code.codes[:2]) == [0, 1]

    def test_skewed_frequencies_shorter_code_for_frequent(self):
        freqs = np.array([1000, 10, 10, 10, 10])
        code = HuffmanCode.from_frequencies(freqs)
        assert code.lengths[0] == min(code.lengths[code.lengths > 0])

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(1)
        freqs = rng.integers(0, 1000, 300)
        code = HuffmanCode.from_frequencies(freqs)
        used = code.lengths[code.lengths > 0].astype(int)
        assert sum(2.0 ** -used) <= 1.0 + 1e-12

    def test_length_limit_enforced_on_pathological_freqs(self):
        # Fibonacci-like frequencies force deep unrestricted trees.
        freqs = [1, 1]
        for _ in range(40):
            freqs.append(freqs[-1] + freqs[-2])
        code = HuffmanCode.from_frequencies(np.array(freqs))
        assert int(code.lengths.max()) <= MAX_CODE_LENGTH
        used = code.lengths[code.lengths > 0].astype(int)
        assert sum(2.0 ** -used) <= 1.0 + 1e-12

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCode.from_frequencies(np.array([-1, 2]))

    def test_negative_symbol_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCode.from_symbols(np.array([40000, -1, 40002]))

    def test_canonical_codes_are_prefix_free(self):
        rng = np.random.default_rng(2)
        freqs = rng.integers(1, 50, 64)
        code = HuffmanCode.from_frequencies(freqs)
        entries = [(int(code.codes[s]), int(code.lengths[s])) for s in range(64)]
        for i, (c1, l1) in enumerate(entries):
            for j, (c2, l2) in enumerate(entries):
                if i == j:
                    continue
                lo = min(l1, l2)
                assert (c1 >> (l1 - lo)) != (c2 >> (l2 - lo)), "prefix collision"


class TestEncodeDecode:
    def test_simple_roundtrip(self):
        roundtrip([0, 1, 2, 1, 0, 0, 0, 3])

    def test_empty_stream(self):
        code = HuffmanCode.from_frequencies(np.array([1, 1]))
        w = BitWriter()
        code.encode(np.array([], dtype=np.int64), w)
        decoded, pos = code.decode(b"", 0)
        assert decoded.size == 0 and pos == 0

    def test_single_repeated_symbol(self):
        roundtrip(np.full(1000, 7), alphabet=8)

    def test_unknown_symbol_rejected_at_encode(self):
        code = HuffmanCode.from_frequencies(np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            code.encode(np.array([1]), BitWriter())

    def test_truncated_stream_raises(self):
        symbols = np.arange(32).repeat(3)
        code = HuffmanCode.from_symbols(symbols)
        w = BitWriter()
        code.encode(symbols, w)
        data = w.getvalue()[: max(1, w.bit_length // 16)]
        with pytest.raises(EOFError):
            code.decode(data, symbols.size)

    def test_expected_bits_matches_actual(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 16, 5000)
        code = HuffmanCode.from_symbols(symbols)
        w = BitWriter()
        code.encode(symbols, w)
        freqs = np.bincount(symbols, minlength=16)
        assert code.expected_bits(freqs) == w.bit_length

    def test_large_skewed_stream_compresses(self):
        """SZ3-like bin stream: mostly zeros -> close to 1 bit/symbol."""
        rng = np.random.default_rng(4)
        symbols = np.where(rng.random(20000) < 0.9, 0, rng.integers(1, 64, 20000))
        code, w = roundtrip(symbols)
        assert w.bit_length < 0.45 * 8 * symbols.size  # well under 1 byte each


class TestSerialization:
    def test_roundtrip_table(self):
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, 500, 3000)
        code = HuffmanCode.from_symbols(symbols)
        blob = code.serialize()
        code2, pos = HuffmanCode.deserialize(blob)
        assert pos == len(blob)
        np.testing.assert_array_equal(code2.lengths, code.lengths)
        np.testing.assert_array_equal(code2.codes, code.codes)

    def test_sparse_alphabet_table_is_compact(self):
        # alphabet 2^16 but only 8 symbols used: table must stay tiny.
        freqs = np.zeros(65536, dtype=np.int64)
        freqs[[0, 1, 100, 5000, 32768, 60000, 65534, 65535]] = 10
        code = HuffmanCode.from_frequencies(freqs)
        assert len(code.serialize()) < 64

    def test_empty_code_serialization(self):
        code = HuffmanCode(np.zeros(4, dtype=np.uint8))
        code2, _ = HuffmanCode.deserialize(code.serialize())
        assert code2.alphabet_size == 4
        assert not code2.lengths.any()

    def test_truncated_table_raises(self):
        symbols = np.arange(100)
        code = HuffmanCode.from_symbols(symbols)
        blob = code.serialize()
        with pytest.raises(EOFError):
            HuffmanCode.deserialize(blob[: len(blob) // 2])


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=2000))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(symbol_list):
    """Huffman encode/decode is lossless for arbitrary symbol streams."""
    roundtrip(symbol_list)


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_serialized_table_roundtrip_property(alphabet, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.integers(0, 100, alphabet)
    freqs[rng.integers(0, alphabet)] += 1  # ensure at least one symbol
    code = HuffmanCode.from_frequencies(freqs)
    code2, _ = HuffmanCode.deserialize(code.serialize())
    np.testing.assert_array_equal(code2.lengths, code.lengths)
