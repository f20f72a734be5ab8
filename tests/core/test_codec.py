"""Tests for the codec frame and the shared stream-codec helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import compressor
from repro.core.codec import (
    Codec,
    codec_input,
    decode_bits,
    decode_code_stream,
    decode_floats,
    encode_bits,
    encode_code_stream,
    encode_floats,
    resolve_error_bound,
)
from repro.encoding.container import Container, CorruptStreamError
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.varint import decode_uvarint, encode_uvarint


class TestCodeStream:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 1000, 5000)
        np.testing.assert_array_equal(decode_code_stream(encode_code_stream(codes)), codes)

    def test_empty(self):
        assert decode_code_stream(encode_code_stream(np.array([], dtype=np.int64))).size == 0

    def test_skewed_stream_compresses(self):
        rng = np.random.default_rng(1)
        codes = np.where(rng.random(30000) < 0.95, 32768, 32768 + rng.integers(-5, 6, 30000))
        blob = encode_code_stream(codes)
        assert len(blob) < codes.size // 4

    def test_shape_flattened(self):
        codes = np.arange(12).reshape(3, 4)
        out = decode_code_stream(encode_code_stream(codes))
        np.testing.assert_array_equal(out, codes.ravel())

    @given(st.lists(st.integers(min_value=0, max_value=70000), max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        codes = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(decode_code_stream(encode_code_stream(codes)), codes)


def _reframe(blob: bytes, *, extra_bits: int = 0, tail: bytes = b"") -> tuple[int, bytes]:
    """Rewrite a code stream's stored ``bit_len`` and/or pad its bit payload.

    Returns the original ``bit_len`` and the re-framed blob.
    """
    payload = lz_decompress(blob)
    n, pos = decode_uvarint(payload, 0)
    table_len, pos = decode_uvarint(payload, pos)
    pos += table_len
    head = payload[:pos]
    bit_len, pos = decode_uvarint(payload, pos)
    out = bytearray(head)
    encode_uvarint(bit_len + extra_bits, out)
    out += payload[pos:] + tail
    return bit_len, lz_compress(bytes(out))


class TestCodeStreamFraming:
    """The stored ``bit_len`` must agree with the decoded bit payload."""

    @pytest.mark.parametrize("n", [1, 5, 100, 3000])
    def test_valid_streams_still_decode(self, n):
        rng = np.random.default_rng(n)
        codes = np.where(rng.random(n) < 0.8, 7, rng.integers(0, 40, n))
        _, blob = _reframe(encode_code_stream(codes))
        np.testing.assert_array_equal(decode_code_stream(blob), codes)

    def test_bit_len_one_too_long_rejected(self):
        codes = np.arange(5)  # 5 codewords of 2-3 bits: 12 bits, not byte-aligned
        bit_len, blob = _reframe(encode_code_stream(codes), extra_bits=1)
        assert bit_len % 8 != 0  # same byte count, so only the end position differs
        with pytest.raises(CorruptStreamError):
            decode_code_stream(blob)

    @pytest.mark.parametrize("n", [100, 3000])
    def test_payload_byte_count_checked(self, n):
        codes = np.random.default_rng(n).integers(0, 40, n)
        _, blob = _reframe(encode_code_stream(codes), tail=b"\x00")
        with pytest.raises(CorruptStreamError):
            decode_code_stream(blob)


class TestFloats:
    def test_exact_roundtrip_incl_specials(self):
        vals = np.array([0.0, -0.0, 1.5, np.pi, 2.0 ** 122, -2.0 ** -1000, np.inf, -np.inf])
        out = decode_floats(encode_floats(vals))
        np.testing.assert_array_equal(out, vals)

    def test_nan_preserved(self):
        out = decode_floats(encode_floats(np.array([np.nan])))
        assert np.isnan(out[0])

    def test_empty(self):
        assert decode_floats(encode_floats(np.array([]))).size == 0

    def test_repetitive_values_compress(self):
        vals = np.zeros(10000)
        # LZ token format floor: ~3 bytes per 131-byte match
        assert len(encode_floats(vals)) < 80000 * 3 / 131 * 1.2

    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        vals = np.array(values, dtype=np.float64)
        np.testing.assert_array_equal(decode_floats(encode_floats(vals)), vals)


class TestBits:
    def test_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert decode_bits(encode_bits(bits)) == bits

    def test_empty(self):
        assert decode_bits(encode_bits([])) == []

    def test_long_sequences(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 999).tolist()
        assert decode_bits(encode_bits(bits)) == bits

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, bits):
        assert decode_bits(encode_bits(bits)) == bits


class TestInputContract:
    def test_float64_copy_and_caller_dtype(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2]
        inp = codec_input(data, rel_eb=0.1)
        assert inp.data.dtype == np.float64 and inp.data.flags["C_CONTIGUOUS"]
        assert inp.dtype == np.float32 and inp.mask is None
        np.testing.assert_array_equal(inp.data, data)

    def test_bound_over_valid_points(self):
        data = np.array([0.0, 1.0, 100.0])
        mask = np.array([1, 1, 0])
        inp = codec_input(data, rel_eb=0.5, mask=mask)
        assert inp.mask.dtype == bool
        assert inp.eb == 0.5

    def test_array_and_mask_checked(self):
        with pytest.raises(ValueError, match="dimensions"):
            codec_input(np.zeros((2,) * 5), abs_eb=1.0)
        with pytest.raises(TypeError):
            codec_input(np.zeros(3, dtype=complex), abs_eb=1.0)
        with pytest.raises(ValueError, match="does not match"):
            codec_input(np.zeros(3), abs_eb=1.0, mask=np.ones(4, dtype=bool))

    def test_bound_resolves_on_first_read(self):
        inp = codec_input(np.zeros(3))  # no bound given: fine until read
        with pytest.raises(ValueError, match="exactly one"):
            inp.eb

    def test_one_resolve_error_bound(self):
        assert compressor.resolve_error_bound is resolve_error_bound


def _codecs():
    return sorted(repro.COMPRESSORS.items())


class TestCodecFrame:
    @pytest.mark.parametrize("name,cls", _codecs())
    def test_every_codec_is_framed(self, name, cls):
        assert issubclass(cls, Codec)
        # baselines carry only their transform; CliZ keeps its own
        # compress (perfbench wraps CliZ.__dict__["compress"])
        assert "decompress" not in cls.__dict__
        assert ("compress" in cls.__dict__) == (name == "cliz")

    @pytest.mark.parametrize("name,cls", _codecs())
    def test_another_codecs_stream_rejected(self, name, cls):
        other = Container("sz3" if name != "sz3" else "zfp", {"dtype": "<f8"})
        with pytest.raises(ValueError, match=f"expected a {name!r} stream"):
            cls().decompress(other.to_bytes())

    def test_unknown_option_raises(self):
        with pytest.raises(TypeError):
            repro.SZ3().compress(np.zeros(8), abs_eb=1.0, keep_bits=3)
        blob = repro.SZ3().compress(np.zeros(8), abs_eb=1.0)
        with pytest.raises(TypeError):
            repro.SZ3().decompress(blob, preview_planes=1)
