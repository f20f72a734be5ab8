"""The byte-wise state-machine decoder against the scalar oracle.

``decode_vectorized`` must match ``decode_scalar`` on every input: the
same symbols, the same end bit, and ``EOFError`` on the same inputs.
Codebooks here are drawn directly as code lengths, so they include
single-symbol, Kraft-deficient and never-resynchronising codes that a
frequency build would not produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import huffman
from repro.encoding.bitstream import BitWriter
from repro.encoding.huffman import MAX_CODE_LENGTH, HuffmanCode


def _code(ids, lengths) -> HuffmanCode:
    full = np.zeros(int(max(ids)) + 1, dtype=np.uint8)
    full[np.asarray(ids)] = lengths
    return HuffmanCode(full)


def _stream(code: HuffmanCode, n: int, rng) -> tuple[np.ndarray, bytes]:
    """``n`` symbols drawn with the probabilities the code is built for."""
    used = np.flatnonzero(code.lengths)
    p = 2.0 ** -code.lengths[used].astype(float)
    symbols = rng.choice(used, size=n, p=p / p.sum())
    writer = BitWriter()
    code.encode(symbols, writer)
    return symbols, writer.getvalue()


def _outcome(decode, data, n):
    try:
        symbols, end = decode(data, n)
    except EOFError:
        return "EOFError"
    assert symbols.dtype == np.int64
    return symbols.tolist(), end


def assert_same(code: HuffmanCode, data: bytes, n: int):
    ref = _outcome(code.decode_scalar, data, n)
    assert _outcome(code.decode_vectorized, data, n) == ref
    return ref


def _no_fallback(code: HuffmanCode, monkeypatch) -> None:
    def fail(data, n):
        raise AssertionError("the kernel handed the stream to the scalar loop")
    monkeypatch.setattr(code, "decode_scalar", fail)


@st.composite
def codebooks(draw):
    """Random code lengths that fit the code space, on sparse symbol ids."""
    wanted = draw(st.lists(st.integers(1, MAX_CODE_LENGTH), min_size=1, max_size=400))
    lengths, room = [], 1 << MAX_CODE_LENGTH
    for ln in wanted:
        if (1 << (MAX_CODE_LENGTH - ln)) <= room:
            room -= 1 << (MAX_CODE_LENGTH - ln)
            lengths.append(ln)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.sort(rng.choice(1 << 17, size=len(lengths), replace=False))
    return _code(ids, lengths), rng


@given(codebooks(), st.integers(1, 6000))
@settings(max_examples=150, deadline=None)
def test_random_codebooks(book, n):
    code, rng = book
    symbols, data = _stream(code, n, rng)
    ref = assert_same(code, data, n)
    assert ref[0] == symbols.tolist()
    # a cut anywhere, and asking for more symbols than were written
    assert_same(code, data[: int(rng.integers(0, len(data) + 1))], n)
    assert_same(code, data, n + int(rng.integers(1, 50)))


@given(codebooks(), st.binary(min_size=1, max_size=3000), st.integers(1, 8000))
@settings(max_examples=100, deadline=None)
def test_garbage_input(book, data, n):
    assert_same(book[0], data, n)


class TestShapes:
    def test_single_symbol_code(self):
        code = _code([7], [1])
        assert_same(code, b"\x00" * 300, 2400)
        assert_same(code, b"\x00" * 300, 2401)  # over-read
        assert_same(code, b"\x00" * 299 + b"\x01", 2400)  # an invalid last bit

    @pytest.mark.parametrize("lengths", [[1, 3], [2, 2, 3], [1, 2, 4, 8, 16], [3, 3, 5, 9]])
    def test_kraft_deficient_code(self, lengths):
        rng = np.random.default_rng(len(lengths))
        code = _code(range(len(lengths)), lengths)
        symbols, data = _stream(code, 20_000, rng)
        assert assert_same(code, data, symbols.size)[0] == symbols.tolist()
        # the unused prefixes make random bytes fail part way
        garbage = rng.integers(0, 256, 4000, dtype=np.uint8).tobytes()
        assert_same(code, garbage, 8000)

    def test_truncation_at_every_byte(self):
        # A short stream decoded directly by the kernel: a cut must not be
        # completed by symbols read from the zero padding behind the data.
        rng = np.random.default_rng(5)
        code = _code(range(6), [1, 2, 4, 4, 4, 4])
        symbols, data = _stream(code, 400, rng)
        for cut in range(len(data) + 1):
            assert_same(code, data[:cut], symbols.size)
        for n in range(1, 60):
            assert assert_same(code, data, n)[0] == symbols[:n].tolist()


# Every length a multiple of 3: codeword boundaries keep their bit phase
# mod 3, so a chain guessed in the wrong phase never meets the true path,
# and each repair moves its block's end state: the repairs cascade
# through the whole stream.
NEVER_RESYNC = [3] * 7 + [6] * 7 + [9] * 8


def _spy(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def spy(*args):
        calls.append(name)
        return real(*args)
    monkeypatch.setattr(owner, name, spy)


class TestRepair:
    def test_never_resynchronising_code_finishes_in_scalar_loop(self, monkeypatch):
        rng = np.random.default_rng(3)
        code = _code(range(len(NEVER_RESYNC)), NEVER_RESYNC)
        symbols, data = _stream(code, 20_000, rng)
        ref = HuffmanCode.decode_scalar(code, data, symbols.size)
        calls = []
        _spy(monkeypatch, code, "decode_scalar", calls)
        out, end = code.decode_vectorized(data, symbols.size)
        assert calls == ["decode_scalar"]
        assert np.array_equal(out, symbols) and end == ref[1]
        assert_same(code, data[:-5], symbols.size)

    @pytest.mark.parametrize("scale", [40, 100])
    def test_repairs_cascade_without_the_scalar_loop(self, monkeypatch, scale):
        # Wide codes resynchronise slowly, and smooth stretches repeat one
        # codeword, which a wrongly aligned parse can follow for several
        # blocks: some repairs leave their block with a new end state.
        rng = np.random.default_rng(11)
        symbols = np.rint(rng.laplace(32768, scale, 60_000)).astype(np.int64)
        symbols[20_000:24_000] = 32768 + 3
        code = HuffmanCode.from_symbols(symbols)
        writer = BitWriter()
        code.encode(symbols, writer)
        calls = []
        _no_fallback(code, monkeypatch)
        _spy(monkeypatch, huffman, "_run", calls)
        out, end = code.decode_vectorized(writer.getvalue(), symbols.size)
        assert np.array_equal(out, symbols) and end == writer.bit_length
        assert len(calls) >= 3  # the first walk, then two or more rounds

    def test_no_rounds_left_means_scalar_loop(self, monkeypatch):
        rng = np.random.default_rng(13)
        symbols = np.rint(rng.laplace(32768, 40, 30_000)).astype(np.int64)
        code = HuffmanCode.from_symbols(symbols)
        writer = BitWriter()
        code.encode(symbols, writer)
        monkeypatch.setattr(huffman, "_MAX_ROUNDS", 0)
        calls = []
        _spy(monkeypatch, code, "decode_scalar", calls)
        out, _ = code.decode_vectorized(writer.getvalue(), symbols.size)
        assert calls == ["decode_scalar"] and np.array_equal(out, symbols)
