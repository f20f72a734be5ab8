"""Tests for the LZ77 lossless backend."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import CliZ
from repro.core.autotune import assemble_sample, mask_aware_anchors, sample_blocks
from repro.datasets import ssh
from repro.encoding import lz
from repro.encoding.bitstream import BitWriter
from repro.encoding.container import Container, CorruptStreamError
from repro.encoding.huffman import HuffmanCode
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.varint import encode_uvarint
from tests.encoding.reference import lz_compress_reference, prev_occurrence_reference


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

    def test_trailing_bytes_after_stored_block(self):
        blob = lz_compress(b"hi")
        assert blob[0] == 0
        with pytest.raises(CorruptStreamError):
            lz_decompress(blob + b"junk")

    def test_trailing_bytes_after_compressed_block(self):
        blob = lz_compress(b"abcd" * 100)
        assert blob[0] == 1
        with pytest.raises(CorruptStreamError):
            lz_decompress(blob + b"\x00")


def _block(n: int, tokens: bytes) -> bytes:
    header = bytearray((1,))
    encode_uvarint(n, header)
    return bytes(header) + tokens


class TestOverlappingMatchDecode:
    """A match shorter-offset than its length repeats the last ``off`` bytes."""

    @pytest.mark.parametrize("off", [1, 2, 3])
    def test_every_token_length(self, off):
        head = bytes(range(7, 7 + off))
        for length in range(4, 132):
            blob = _block(off + length, bytes((off - 1,)) + head
                          + bytes((0x80 | (length - 4), off, 0)))
            want = bytearray(head)
            for _ in range(length):  # byte-wise copy semantics
                want.append(want[-off])
            assert lz_decompress(blob) == bytes(want), (off, length)


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
    """The candidate pairs rebuild the oracle's index, with and without a window."""
    want = prev_occurrence_reference(data)
    for window in (len(data), lz._WINDOW):
        at, src = lz._match_candidates(data, window)
        assert np.all(np.diff(at) > 0)
        got = np.full(want.size, -1, dtype=np.int64)
        got[at] = src
        in_window = np.arange(want.size) - want <= window
        np.testing.assert_array_equal(got, np.where(in_window, want, -1))


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


@contextlib.contextmanager
def _parse(kind: str):
    """Send every input of 16 bytes or more through one of the two parses."""
    saved = lz._VECTOR_MIN_BYTES
    lz._VECTOR_MIN_BYTES = 16 if kind == "arrays" else 1 << 62
    try:
        yield
    finally:
        lz._VECTOR_MIN_BYTES = saved


def _assert_parses_match(data: bytes) -> bytes:
    """Both parses, and the default dispatch, give the oracle's bytes."""
    want = lz_compress_reference(data)
    assert lz_compress(data) == want
    for kind in ("arrays", "loop"):
        with _parse(kind):
            assert lz_compress(data) == want, kind
    assert lz_decompress(want) == bytes(data)
    return want


def _assert_token_passes_match(data: bytes) -> None:
    """The two parses agree on any input, the candidate bound bypassed."""
    if len(data) < 16:
        return
    at, src = lz._match_candidates(data)
    if not at.size:
        return
    loop = bytes(lz._tokens_loop(data, at, src))
    arrays = lz._tokens_arrays(data, at, src)
    if arrays is None:
        assert len(loop) + 10 >= len(data)
    else:
        assert arrays.tobytes() == loop


def _cliz_codes(data, mask) -> bytes:
    blob = CliZ().compress(data, rel_eb=1e-3, mask=mask)
    container = Container.from_bytes(blob)
    name = next(s for s in container.section_names if s.endswith(".codes"))
    return lz_decompress(container.section(name))


small_alphabet = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), max_size=6000).map(bytes))


class TestGreedyParseOracle:
    """The array parse and the loop write the oracle's tokens, byte for byte."""

    @given(st.binary(max_size=6000))
    @settings(max_examples=60, deadline=None)
    def test_binaries(self, data):
        _assert_parses_match(data)
        _assert_token_passes_match(data)

    @given(small_alphabet)
    @settings(max_examples=60, deadline=None)
    def test_small_alphabet_binaries(self, data):
        _assert_parses_match(data)
        _assert_token_passes_match(data)

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=400),
           st.binary(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_tiles(self, tile, reps, tail):
        data = tile * reps + tail
        _assert_parses_match(data)
        _assert_token_passes_match(data)

    @pytest.mark.parametrize("residue", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("full", [1, 2, 70])
    def test_long_runs_by_length_mod_131(self, full, residue):
        length = 131 * full + residue
        # Position 9 matches position 8 for exactly ``length`` bytes; a
        # tail left over (residue < 4) starts the match with the head.
        head = b"\x00\x00\x00\x07\x08\x09\x05\x06"
        data = head + bytes(length + 1) + head[3:] + bytes(range(10, 40))
        blob = _assert_parses_match(data)
        assert blob[0] == 1

    @pytest.mark.parametrize("pattern", [b"a", b"ab", b"abc", b"abcdefg"])
    def test_overlapping_matches(self, pattern):
        data = b"\xff" + pattern * (9000 // len(pattern)) + b"\xfe"
        assert _assert_parses_match(data)[0] == 1

    @pytest.mark.parametrize("distance", [65534, 65535, 65536])
    def test_offsets_at_the_window_edge(self, distance):
        rng = np.random.default_rng(distance)
        block = rng.integers(0, 256, 300, dtype=np.uint8).tobytes()
        data = block + bytes(distance - len(block)) + block
        blob = _assert_parses_match(data)
        assert blob[0] == 1
        far = b"\xff\xff\xff" * 2  # two 131-byte match tokens at offset 65535
        assert (far in blob) == (distance == 65535)

    @pytest.mark.parametrize("data", [b"a" * 16, b"ab" * 8, bytes(range(16)), b"\x00" * 15 + b"\x01"])
    def test_sixteen_bytes(self, data):
        _assert_parses_match(data)

    @pytest.mark.parametrize("zeros, kept", [(15, False), (16, True)])
    def test_stored_when_tokens_plus_ten_reach_n(self, zeros, kept):
        # 11 literals (12 token bytes) + one 3-byte match of zeros - 1 bytes
        data = bytes(range(1, 11)) + bytes(zeros)
        at, src = lz._match_candidates(data)
        tokens = lz._tokens_loop(data, at, src)
        assert len(tokens) + 10 == len(data) - kept
        assert _assert_parses_match(data)[0] == kept

    def test_both_sides_of_the_crossover(self):
        stream = _huffman_output(60000, 4) + b"climate" * 400
        for n in (lz._VECTOR_MIN_BYTES - 1, lz._VECTOR_MIN_BYTES):
            for data in (stream[:n], stream[-n:]):
                _assert_parses_match(data)

    def test_real_ssh_code_stream(self):
        field = ssh(seed=1)
        data = _cliz_codes(field.data, field.mask)
        assert len(data) >= lz._VECTOR_MIN_BYTES
        assert _assert_parses_match(data)[0] == 1

    def test_tuner_sample_stream(self):
        field = ssh(seed=1)
        blocks = sample_blocks(field.data.shape, 0.01,
                               anchors=mask_aware_anchors(field.data.shape, field.mask))
        data = _cliz_codes(assemble_sample(field.data, blocks),
                           assemble_sample(field.mask, blocks))
        assert 1000 <= len(data) < 20000
        _assert_parses_match(data)

