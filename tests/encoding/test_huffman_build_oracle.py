"""The two-queue Huffman build, the vectorised canonical codes and the
``np.repeat`` decode table against their oracles in
:mod:`tests.encoding.reference`, and ``from_symbols``, which builds on
the used symbol ids only, against the same builds run over the whole
alphabet.

Every codebook (and so every output byte) depends on these functions,
so they must match the heap build and the per-symbol loops exactly, not
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
from tests.encoding.reference import (
    canonical_codes_reference,
    decode_table_reference,
    huffman_lengths_reference,
)


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """``_canonical_codes`` scattered back to one code per entry."""
    order, sorted_codes = _canonical_codes(lengths)
    assert sorted_codes.dtype == np.uint32
    codes = np.zeros(len(lengths), dtype=np.uint32)
    codes[order] = sorted_codes
    return codes


def assert_build_matches(freqs) -> None:
    freqs = np.asarray(freqs, dtype=np.int64)
    raw = _huffman_lengths(freqs)
    np.testing.assert_array_equal(raw, huffman_lengths_reference(freqs))
    limited = _limit_lengths(raw, freqs, MAX_CODE_LENGTH)
    codes = canonical_codes(limited)
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
        np.testing.assert_array_equal(canonical_codes(lengths),
                                      canonical_codes_reference(lengths))


def _kraft_prefix(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Keep the (id, length) pairs, in draw order, that fit the code space."""
    ids, lens, room = [], [], 1 << MAX_CODE_LENGTH
    for sym, ln in pairs:
        if (1 << (MAX_CODE_LENGTH - ln)) <= room:
            room -= 1 << (MAX_CODE_LENGTH - ln)
            ids.append(sym)
            lens.append(ln)
    return np.asarray(ids, dtype=np.int64), np.asarray(lens, dtype=np.uint8)


def assert_decode_table_matches(lengths: np.ndarray) -> None:
    sym_t, len_t = HuffmanCode(lengths)._decode_tables()
    ref_sym, ref_len = decode_table_reference(lengths)
    np.testing.assert_array_equal(len_t, ref_len)
    np.testing.assert_array_equal(sym_t, ref_sym)


_symbol_ids = st.one_of(st.integers(0, 65535), st.integers(65400, 65535))


class TestDecodeTableMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_symbol_ids, st.integers(1, MAX_CODE_LENGTH)),
                    min_size=0, max_size=300, unique_by=lambda p: p[0]))
    def test_kraft_valid_lengths(self, pairs):
        # mostly Kraft-deficient codes: the windows past the last code stay
        # invalid (length 0)
        ids, lens = _kraft_prefix(pairs)
        lengths = np.zeros(1 << 16, dtype=np.uint8)
        lengths[ids] = lens
        assert_decode_table_matches(lengths)

    @pytest.mark.parametrize("sym", [0, 1, 32768, 65534, 65535])
    def test_single_symbol_code(self, sym):
        lengths = np.zeros(sym + 1, dtype=np.uint8)
        lengths[sym] = 1
        assert_decode_table_matches(lengths)

    def test_empty_code(self):
        assert_decode_table_matches(np.zeros(5, dtype=np.uint8))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1 << 30), min_size=2, max_size=2000))
    def test_complete_codes(self, freqs):
        code = HuffmanCode.from_frequencies(freqs)
        assert_decode_table_matches(code.lengths)


def assert_used_alphabet_build_matches(symbols, alphabet=None) -> None:
    symbols = np.asarray(symbols, dtype=np.int64)
    size = int(symbols.max()) + 1 if alphabet is None else max(alphabet, int(symbols.max()) + 1)
    freqs = np.bincount(symbols, minlength=size)
    code = HuffmanCode.from_symbols(symbols, alphabet)
    # the builds on the full alphabet, zeros included
    lengths = _limit_lengths(_huffman_lengths(freqs), freqs, MAX_CODE_LENGTH)
    np.testing.assert_array_equal(code.lengths, lengths)
    np.testing.assert_array_equal(code.codes, canonical_codes_reference(lengths))
    full = HuffmanCode.from_frequencies(freqs)
    np.testing.assert_array_equal(code.lengths, full.lengths)
    np.testing.assert_array_equal(code.codes, full.codes)
    assert code.serialize() == full.serialize()


class TestFromSymbolsMatchesFullAlphabet:
    def test_quantization_codes_with_far_outliers(self):
        rng = np.random.default_rng(7)
        symbols = np.rint(rng.laplace(32768, 4, 20_000)).astype(np.int64)
        symbols[::997] = 32768 + 300 * np.arange(symbols[::997].size)
        assert_used_alphabet_build_matches(symbols)
        assert_used_alphabet_build_matches(symbols, alphabet=65536)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(32768, 65535), st.integers(1, 40)),
                    min_size=1, max_size=300),
           st.sampled_from([None, 65536]))
    def test_offset_gappy_alphabets(self, runs, alphabet):
        symbols = np.repeat([s for s, _ in runs], [n for _, n in runs])
        assert int(symbols.min()) >= 32768
        assert_used_alphabet_build_matches(symbols, alphabet)
