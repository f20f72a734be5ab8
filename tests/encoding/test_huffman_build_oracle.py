"""The two-queue Huffman build and the vectorised canonical codes against
their oracles in :mod:`tests.encoding.reference`.

Every codebook (and so every output byte) depends on these two functions,
so they must match the heap build and the per-symbol loop exactly, not
just produce an equally good code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCode,
    _canonical_codes,
    _huffman_lengths,
    _limit_lengths,
)
from tests.encoding.reference import canonical_codes_reference, huffman_lengths_reference


def assert_build_matches(freqs) -> None:
    freqs = np.asarray(freqs, dtype=np.int64)
    raw = _huffman_lengths(freqs)
    np.testing.assert_array_equal(raw, huffman_lengths_reference(freqs))
    limited = _limit_lengths(raw, freqs, MAX_CODE_LENGTH)
    codes = _canonical_codes(limited)
    assert codes.dtype == np.uint32
    np.testing.assert_array_equal(codes, canonical_codes_reference(limited))
    np.testing.assert_array_equal(HuffmanCode.from_frequencies(freqs).codes, codes)


class TestLengthsMatchHeap:
    def test_empty_and_all_zero(self):
        assert_build_matches(np.zeros(0, dtype=np.int64))
        assert_build_matches(np.zeros(9, dtype=np.int64))

    @pytest.mark.parametrize("freqs", [[5], [0, 0, 3], [7, 0], [1, 1], [0, 4, 0, 9], [3, 3]])
    def test_one_and_two_symbol_alphabets(self, freqs):
        assert_build_matches(freqs)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 257, 1000])
    def test_all_equal_weights(self, n):
        assert_build_matches(np.full(n, 13))

    @pytest.mark.parametrize("n", [3, 8, 20, 40])
    def test_power_of_two_weights(self, n):
        # merged weights tie leaf weights at every step
        assert_build_matches(1 << np.arange(n, dtype=np.int64))
        assert_build_matches((1 << np.arange(n, dtype=np.int64))[::-1].copy())

    def test_zero_frequency_gaps(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            freqs = rng.integers(0, 6, rng.integers(2, 300))
            freqs[rng.random(freqs.size) < 0.5] = 0
            assert_build_matches(freqs)

    def test_fibonacci_weights_reach_the_length_limit(self):
        fib = [1, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        freqs = np.array(fib, dtype=np.int64)
        assert int(huffman_lengths_reference(freqs).max()) > MAX_CODE_LENGTH
        assert_build_matches(freqs)

    def test_large_skewed_alphabet_reaches_the_length_limit(self):
        rng = np.random.default_rng(11)
        freqs = np.maximum((rng.pareto(0.7, 30000) * 3).astype(np.int64), 1)
        freqs[:20] = 10 ** np.arange(20, dtype=np.int64) % (1 << 40) + 1
        assert int(huffman_lengths_reference(freqs).max()) > MAX_CODE_LENGTH
        assert_build_matches(freqs)

    def test_quantization_code_histogram(self):
        # the shape real CliZ streams have: a peaked, two-sided bin histogram
        rng = np.random.default_rng(3)
        symbols = np.rint(rng.laplace(32768, 6, 200_000)).astype(np.int64)
        assert_build_matches(np.bincount(symbols - symbols.min()))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=0, max_size=120))
    def test_fuzzed_small_weights(self, freqs):
        assert_build_matches(freqs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=600))
    def test_fuzzed_wide_weights(self, freqs):
        assert_build_matches(freqs)


class TestCanonicalCodesMatchLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, MAX_CODE_LENGTH), min_size=0, max_size=200))
    def test_any_length_vector(self, lengths):
        # the loop assigns codes for any lengths, Kraft-valid or not, as long
        # as they fit the uint32 code word
        lengths = np.asarray(lengths, dtype=np.int64)
        np.testing.assert_array_equal(_canonical_codes(lengths),
                                      canonical_codes_reference(lengths))
