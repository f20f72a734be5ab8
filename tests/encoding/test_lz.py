"""Tests for the LZ77 lossless backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.encoding import lz
from repro.encoding.bitstream import BitWriter
from repro.encoding.huffman import HuffmanCode
from repro.encoding.lz import lz_compress, lz_decompress
from tests.encoding.reference import prev_occurrence_reference


class TestRoundtrip:
    @pytest.mark.parametrize("data", [
        b"",
        b"a",
        b"abc",
        b"aaaaaaaaaaaaaaaaaaaaaaaa",
        b"abcd" * 100,
        bytes(range(256)) * 4,
        b"\x00" * 10000,
    ])
    def test_exact_roundtrip(self, data):
        assert lz_decompress(lz_compress(data)) == data

    def test_random_bytes_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 50000, dtype=np.uint8).tobytes()
        assert lz_decompress(lz_compress(data)) == data

    def test_overlapping_match_semantics(self):
        # 'abc' repeated: matches overlap their own output.
        data = b"abcabcabcabcabcabcabcabcabcabc"
        assert lz_decompress(lz_compress(data)) == data

    def test_long_runs_chain_tokens(self):
        data = b"x" * 100000
        blob = lz_compress(data)
        assert lz_decompress(blob) == data
        assert len(blob) < 3000


class TestCompressionBehaviour:
    def test_repetitive_data_shrinks(self):
        data = b"climate-data-" * 2000
        assert len(lz_compress(data)) < len(data) // 10

    def test_incompressible_data_bounded_expansion(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        assert len(lz_compress(data)) <= len(data) + 6

    def test_zero_heavy_huffman_stream_shrinks(self):
        """The actual use case: residual redundancy in entropy-coded data."""
        rng = np.random.default_rng(2)
        data = bytes(np.where(rng.random(30000) < 0.95, 0, rng.integers(0, 256, 30000)).astype(np.uint8))
        assert len(lz_compress(data)) < len(data) // 3


class TestErrors:
    def test_empty_blob_raises(self):
        with pytest.raises(EOFError):
            lz_decompress(b"")

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            lz_decompress(b"\x07\x00")

    def test_truncated_stored_block(self):
        blob = lz_compress(b"hi")
        with pytest.raises(EOFError):
            lz_decompress(blob[:-1])

    def test_truncated_compressed_block(self):
        blob = lz_compress(b"abcd" * 100)
        assert blob[0] == 1  # actually compressed
        with pytest.raises((EOFError, ValueError)):
            lz_decompress(blob[: len(blob) - 3])


@given(st.binary(max_size=5000))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(data):
    assert lz_decompress(lz_compress(data)) == data


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=400))
@settings(max_examples=40, deadline=None)
def test_tiled_roundtrip_property(tile, reps):
    data = tile * reps
    blob = lz_compress(data)
    assert lz_decompress(blob) == data
    if len(data) > 2000:
        assert len(blob) < len(data)


def _huffman_output(n: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    syms = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 64, n))
    w = BitWriter()
    HuffmanCode.from_symbols(syms).encode(syms, w)
    return w.getvalue()


def _assert_index_matches(data: bytes) -> None:
    np.testing.assert_array_equal(lz._prev_occurrence(data), prev_occurrence_reference(data))


class TestMatchIndexOracle:
    """The packed-key sort must reproduce the stable-argsort index exactly."""

    @pytest.mark.parametrize("data", [
        *(bytes(range(n)) for n in range(16, 21)),
        *(b"\x00" * n for n in range(16, 21)),
        b"\xff" * 5000,
        b"ab" * 2000,
        b"abc" * 2000,
        b"\x00\x01" * 7 + b"\x00\x00\x01" * 9,
        bytes(range(256)) * 40,
    ])
    def test_edge_inputs(self, data):
        _assert_index_matches(data)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_real_huffman_output(self, seed):
        _assert_index_matches(_huffman_output(20000, seed))

    def test_unpacked_fallback_matches(self, monkeypatch):
        """Inputs with 2**32 shingles or more take the stable argsort branch."""
        data = _huffman_output(5000, 2) + b"abc" * 300
        expect = lz_compress(data)
        monkeypatch.setattr(lz, "_PACK_LIMIT", 0)
        _assert_index_matches(data)
        assert lz_compress(data) == expect


@given(st.binary(min_size=4, max_size=3000))
@settings(max_examples=80, deadline=None)
def test_match_index_matches_oracle_property(data):
    _assert_index_matches(data)


class TestCounters:
    def _counts(self, payloads):
        with obs.run() as run:
            for p in payloads:
                lz_compress(p)
        snap = run.metrics.snapshot()
        return tuple(snap.get(f"lz.{k}", {}).get("value", 0) for k in ("attempted", "kept"))

    def test_stored_fallback_counts_attempt_not_keep(self):
        rng = np.random.default_rng(3)
        noise = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        assert lz_compress(noise)[0] == 0  # stored block
        assert self._counts([noise]) == (1, 0)

    def test_kept_block_counts_both(self):
        assert self._counts([b"climate-data-" * 200, b"tiny"]) == (1, 1)
