"""Additional Huffman edge cases: length limiting, adversarial tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CliZ, Layout, PipelineConfig
from repro.core.codec import decode_code_stream, encode_code_stream
from repro.datasets import load
from repro.encoding.bitstream import BitWriter
from repro.encoding.container import DECODE_ERRORS, Container, CorruptStreamError
from repro.encoding.huffman import MAX_CODE_LENGTH, HuffmanCode
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.multihuffman import decode_grouped, encode_grouped
from repro.encoding.varint import (
    decode_uvarint,
    encode_uvarint,
    encode_uvarint_array,
    zigzag_encode,
)


def _table(alphabet: int, symbols: list[int], lengths: list[int]) -> bytes:
    """A serialized table with arbitrary (possibly invalid) symbol ids."""
    out = bytearray()
    encode_uvarint(len(symbols), out)
    encode_uvarint(alphabet, out)
    out += encode_uvarint_array(zigzag_encode(np.diff(symbols, prepend=0)))
    nib = [ln - 1 for ln in lengths] + [0] * (len(lengths) % 2)
    out += bytes((hi << 4) | lo for hi, lo in zip(nib[0::2], nib[1::2]))
    return bytes(out)


class TestLengthLimiting:
    def test_exact_power_alphabet_uniform(self):
        """Uniform 2^k alphabets get exactly k-bit codes."""
        for k in (1, 3, 6):
            code = HuffmanCode.from_frequencies(np.full(1 << k, 10))
            assert (code.lengths == k).all()

    def test_maximum_alphabet_at_limit(self):
        """2^16 uniform symbols exactly saturate the 16-bit limit."""
        code = HuffmanCode.from_frequencies(np.ones(1 << MAX_CODE_LENGTH, dtype=np.int64))
        assert (code.lengths == MAX_CODE_LENGTH).all()

    def test_extreme_skew_keeps_rare_symbols_decodable(self):
        freqs = np.ones(100, dtype=np.int64)
        freqs[0] = 10 ** 12
        code = HuffmanCode.from_frequencies(freqs)
        assert int(code.lengths.max()) <= MAX_CODE_LENGTH
        symbols = np.concatenate([np.zeros(50, np.int64), np.arange(100)])
        w = BitWriter()
        code.encode(symbols, w)
        decoded, _ = code.decode(w.getvalue(), symbols.size)
        np.testing.assert_array_equal(decoded, symbols)

    def test_geometric_frequencies(self):
        """Powers-of-two frequencies: worst case for unlimited depth."""
        freqs = np.array([1 << min(i, 40) for i in range(30)], dtype=np.int64)
        code = HuffmanCode.from_frequencies(freqs)
        assert int(code.lengths[code.lengths > 0].max()) <= MAX_CODE_LENGTH
        used = code.lengths[code.lengths > 0].astype(int)
        assert sum(2.0 ** -used) <= 1.0 + 1e-12

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_limit_property(self, seed, alphabet):
        rng = np.random.default_rng(seed)
        # log-uniform frequencies stress the depth
        freqs = np.exp(rng.uniform(0, 25, alphabet)).astype(np.int64)
        code = HuffmanCode.from_frequencies(freqs)
        used = code.lengths[code.lengths > 0].astype(int)
        assert used.max() <= MAX_CODE_LENGTH
        assert sum(2.0 ** -used) <= 1.0 + 1e-12


class TestDecodeRobustness:
    def test_all_ones_stream(self):
        code = HuffmanCode.from_frequencies(np.array([1, 1]))
        decoded, _ = code.decode(b"\xff", 8)
        assert decoded.size == 8

    def test_offset_beyond_stream_raises(self):
        code = HuffmanCode.from_frequencies(np.array([1, 1]))
        with pytest.raises(EOFError):
            code.decode(b"\x00", 9)

    def test_decode_empty_alphabet_stream_raises(self):
        code = HuffmanCode(np.zeros(3, dtype=np.uint8))
        with pytest.raises(EOFError):
            code.decode(b"\x00", 1)


class TestCorruptTables:
    @pytest.mark.parametrize("table", [
        _table(8, [-1, 0], [1, 1]),          # negative id
        _table(8, [1, 1, 2], [1, 2, 2]),     # duplicate id
        _table(8, [0, 1, 2], [1, 1, 1]),     # Kraft sum 1.5
        _table(4, [0, 5], [1, 1]),           # id beyond the alphabet
    ], ids=["negative-id", "duplicate-id", "kraft-overfull", "id-out-of-range"])
    def test_rejected_as_value_error(self, table):
        with pytest.raises(ValueError) as info:
            HuffmanCode.deserialize(table)
        assert isinstance(info.value, DECODE_ERRORS)

    @pytest.mark.parametrize("alphabet", [2**31, 2**40])
    def test_huge_declared_alphabet_decodes(self, alphabet):
        # nothing alphabet-sized is allocated on the decode side
        table = _table(alphabet, [3, 1000, alphabet - 1], [1, 2, 2])
        code, pos = HuffmanCode.deserialize(table)
        assert pos == len(table) and code.alphabet_size == alphabet
        assert code.serialize() == table
        decoded, end = code.decode(bytes([0b01011000]), 4)  # 0 10 11 0
        assert decoded.tolist() == [3, 1000, alphabet - 1, 3] and end == 6

    @pytest.mark.parametrize("alphabet", [2**31, 2**40])
    def test_huge_declared_alphabet_still_checked(self, alphabet):
        for table in (_table(alphabet, [0, 1, 2], [1, 1, 1]),     # Kraft sum 1.5
                      _table(alphabet, [5, alphabet], [1, 1])):   # id past the end
            with pytest.raises(ValueError) as info:
                HuffmanCode.deserialize(table)
            assert isinstance(info.value, DECODE_ERRORS)

    def test_valid_crafted_table_accepted(self):
        code, pos = HuffmanCode.deserialize(_table(8, [1, 3, 7], [1, 2, 2]))
        assert pos == len(_table(8, [1, 3, 7], [1, 2, 2]))
        assert list(code.lengths) == [0, 1, 0, 2, 0, 0, 0, 2]


def _resection(blob: bytes, group: int, *, extra_bits: int = 0) -> bytes:
    """Rewrite the stored bit length of section ``group`` of a grouped stream."""
    n_groups, pos = decode_uvarint(blob, 0)
    _total, pos = decode_uvarint(blob, pos)
    for g in range(n_groups):
        count, pos = decode_uvarint(blob, pos)
        if count == 0:
            continue
        table_len, pos = decode_uvarint(blob, pos)
        pos += table_len
        start = pos
        bit_len, pos = decode_uvarint(blob, pos)
        if g == group:
            out = bytearray(blob[:start])
            encode_uvarint(bit_len + extra_bits, out)
            return bytes(out) + blob[pos:]
        pos += (bit_len + 7) // 8
    raise AssertionError(f"no non-empty section {group}")


class TestCorruptGroupedSections:
    """A grouped Huffman stream is checked as strictly as a single-tree one."""

    @staticmethod
    def _stream():
        rng = np.random.default_rng(3)
        groups = rng.integers(0, 3, 600)
        symbols = np.where(rng.random(600) < 0.7, 5, rng.integers(0, 30, 600))
        return symbols, groups, encode_grouped(symbols, groups, 3)

    def test_untouched_stream_decodes_exactly(self):
        symbols, groups, blob = self._stream()
        out, pos = decode_grouped(blob, groups)
        np.testing.assert_array_equal(out, symbols)
        assert pos == len(blob)

    @pytest.mark.parametrize("group", [0, 2])
    def test_bit_len_past_the_payload_rejected(self, group):
        _, groups, blob = self._stream()
        with pytest.raises(CorruptStreamError):
            decode_grouped(_resection(blob, group, extra_bits=40), groups)

    def test_bit_len_off_by_one_rejected(self):
        _, groups, blob = self._stream()
        with pytest.raises(CorruptStreamError):
            decode_grouped(_resection(blob, 1, extra_bits=1), groups)

    def test_single_tree_stream_rejects_the_same_edit(self):
        codes = np.random.default_rng(4).integers(0, 30, 400)
        payload = lz_decompress(encode_code_stream(codes))
        _n, pos = decode_uvarint(payload, 0)
        table_len, pos = decode_uvarint(payload, pos)
        pos += table_len
        bit_len, end = decode_uvarint(payload, pos)
        edited = bytearray(payload[:pos])
        encode_uvarint(bit_len + 40, edited)
        edited += payload[end:]
        with pytest.raises(CorruptStreamError):
            decode_code_stream(lz_compress(bytes(edited)))

    def test_total_mismatch_is_corrupt_stream(self):
        _, groups, blob = self._stream()
        with pytest.raises(CorruptStreamError):
            decode_grouped(blob, groups[:-1])

    def test_group_count_mismatch_is_corrupt_stream(self):
        _, groups, blob = self._stream()
        wrong = groups.copy()
        wrong[np.flatnonzero(wrong == 0)[0]] = 1
        with pytest.raises(CorruptStreamError):
            decode_grouped(blob, wrong)

    def test_trailing_bytes_after_cliz_grouped_codes_rejected(self):
        f = load("SSH", shape=(16, 14, 48))
        cfg = PipelineConfig(Layout((2, 0, 1), (1, 2)), periodic=True,
                             time_axis=2, binclass=True, horiz_axes=(0, 1))
        blob = CliZ(cfg).compress(f.data, rel_eb=1e-3, mask=f.mask)
        src = Container.from_bytes(blob)
        names = [n for n in src.section_names
                 if n.endswith(".codes") and src.has_section(n[:-6] + ".cls")]
        assert names  # the config really takes the grouped path
        edited = Container(src.codec, src.header)
        for name in src.section_names:
            payload = src.section(name)
            if name == names[0]:
                payload = lz_compress(lz_decompress(payload) + b"\x00\x01\x02")
            edited.add_section(name, payload)
        CliZ(cfg).decompress(blob)  # the unedited blob still decodes
        with pytest.raises(CorruptStreamError):
            CliZ(cfg).decompress(edited.to_bytes())
