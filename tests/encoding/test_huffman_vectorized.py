"""Differential tests: vectorized Huffman decoder vs the scalar oracle.

The batched NumPy kernel (``decode``) must be bit-identical to
the scalar loop (``decode_scalar``) on every stream — same symbols, same
final bit position, and the same ``EOFError`` on corrupt/truncated input.
"""

import numpy as np
import pytest

from repro.encoding.bitstream import BitWriter
from repro.encoding.huffman import HuffmanCode


def _encode(symbols, alphabet=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    code = HuffmanCode.from_symbols(symbols, alphabet)
    writer = BitWriter()
    code.encode(symbols, writer)
    return code, writer.getvalue()


def _assert_differential(symbols, alphabet=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    code, data = _encode(symbols, alphabet)
    ref, end_ref = code.decode_scalar(data, symbols.size)
    vec, end_vec = code.decode(data, symbols.size)
    assert np.array_equal(ref, symbols)
    assert np.array_equal(vec, ref)
    assert end_vec == end_ref
    assert vec.dtype == np.int64
    return code, data


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_alphabets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3000, 60_000))
        alphabet = int(rng.integers(2, 700))
        _assert_differential(rng.integers(0, alphabet, n))

    @pytest.mark.parametrize("p_zero", [0.5, 0.9, 0.99, 0.999])
    def test_skewed(self, p_zero):
        rng = np.random.default_rng(int(p_zero * 1000))
        n = 50_000
        syms = np.where(rng.random(n) < p_zero, 0, rng.integers(1, 64, n))
        _assert_differential(syms)

    def test_geometric_and_zipf(self):
        rng = np.random.default_rng(7)
        _assert_differential(np.minimum(rng.geometric(0.3, 30_000) - 1, 40))
        _assert_differential(np.minimum(rng.zipf(1.5, 30_000), 1000) - 1)

    def test_single_symbol_codebook(self):
        # Degenerate 1-symbol alphabet: every codeword is the same 1-bit code.
        _assert_differential(np.full(10_000, 3), alphabet=4)

    def test_two_symbol_extreme_skew(self):
        rng = np.random.default_rng(11)
        _assert_differential((rng.random(40_000) < 0.001).astype(np.int64))

    def test_equal_length_codebook(self):
        # Uniform frequencies => all codewords the same length => the
        # closed-form equal-length fast path.
        rng = np.random.default_rng(13)
        _assert_differential(rng.integers(0, 256, 30_000))

    def test_small_stream_identical(self):
        # decode() runs the state machine at every stream length (there is
        # no scalar-loop threshold), so short streams must agree too.
        rng = np.random.default_rng(19)
        _assert_differential(rng.integers(0, 10, 300))

    def test_dispatcher_matches_both(self):
        rng = np.random.default_rng(23)
        syms = np.where(rng.random(30_000) < 0.9, 0, rng.integers(1, 32, 30_000))
        code, data = _encode(syms)
        out, end = code.decode(data, syms.size)
        ref, end_ref = code.decode_scalar(data, syms.size)
        assert np.array_equal(out, ref)
        assert end == end_ref


class TestTruncation:
    def _truncation_case(self, symbols):
        code, data = _encode(symbols)
        n = len(symbols)
        for cut in (0, 1, len(data) // 4, len(data) // 2, len(data) - 1):
            with pytest.raises(EOFError):
                code.decode_scalar(data[:cut], n)
            with pytest.raises(EOFError):
                code.decode(data[:cut], n)

    def test_truncated_skewed(self):
        rng = np.random.default_rng(29)
        n = 30_000
        self._truncation_case(np.where(rng.random(n) < 0.9, 0, rng.integers(1, 64, n)))

    def test_truncated_uniform(self):
        rng = np.random.default_rng(31)
        self._truncation_case(rng.integers(0, 256, 20_000))

    def test_truncated_single_symbol(self):
        self._truncation_case(np.full(10_000, 1))

    def test_over_read_raises(self):
        # Ask for more symbols than the stream holds.
        rng = np.random.default_rng(37)
        syms = rng.integers(0, 16, 5000)
        code, data = _encode(syms)
        with pytest.raises(EOFError):
            code.decode(data, syms.size + 1000)
        with pytest.raises(EOFError):
            code.decode_scalar(data, syms.size + 1000)

    def test_empty_request_is_fine(self):
        rng = np.random.default_rng(41)
        syms = rng.integers(0, 16, 5000)
        code, data = _encode(syms)
        out, end = code.decode(data, 0)
        assert out.size == 0 and end == 0

    def test_garbage_bytes(self):
        # Random bytes decoded against a sparse codebook must either decode
        # identically in both kernels or raise EOFError in both.
        rng = np.random.default_rng(43)
        syms = np.where(rng.random(20_000) < 0.95, 0, rng.integers(1, 300, 20_000))
        code, _ = _encode(syms)
        for trial in range(5):
            blob = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
            try:
                ref, end_ref = code.decode_scalar(blob, 8000)
            except EOFError:
                with pytest.raises(EOFError):
                    code.decode(blob, 8000)
            else:
                vec, end_vec = code.decode(blob, 8000)
                assert np.array_equal(vec, ref)
                assert end_vec == end_ref
