"""Corruption-tolerant decode: container v2 CRCs, salvage mode, v1 compat."""

import pathlib
import re
import zlib

import numpy as np
import pytest

from repro import decompress
from repro.encoding.container import (
    Container,
    CorruptStreamError,
    SALVAGE_STAGES,
    SalvageReport,
    VERSION,
)
from repro.io.rcdf import RcdfDataset, read_rcdf
from repro.parallel import compress_chunked, decompress_chunked

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def field(shape=(24, 16, 12), seed=1234):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    return (sum(np.sin(g) for g in grids)
            + 0.01 * rng.standard_normal(shape)).astype(np.float64)


def corrupt_section(blob: bytes, name: str) -> bytes:
    """Flip bytes inside section ``name``'s payload in the serialized blob."""
    payload = Container.from_bytes(blob).section(name)
    idx = blob.index(payload)
    buf = bytearray(blob)
    for off in (1, len(payload) // 2, len(payload) - 2):
        buf[idx + off] ^= 0xFF
    return bytes(buf)


class TestContainerV2:
    def test_writes_version_2_with_section_crcs(self):
        c = Container("demo", {"k": 1})
        c.add_section("a", b"payload-a")
        blob = c.to_bytes()
        assert blob[4] == VERSION == 2
        # per-section CRC sits right after the payload
        idx = blob.index(b"payload-a")
        stored = int.from_bytes(blob[idx + 9 : idx + 13], "little")
        assert stored == zlib.crc32(b"payload-a")

    def test_roundtrip(self):
        c = Container("demo", {"k": 1})
        c.add_section("a", b"aaaa")
        c.add_section("b", b"")
        out = Container.from_bytes(c.to_bytes())
        assert out.version == 2 and not out.salvaged
        assert out.section("a") == b"aaaa" and out.section("b") == b""

    def test_strict_rejects_payload_corruption(self):
        c = Container("demo")
        c.add_section("a", b"x" * 64)
        blob = bytearray(c.to_bytes())
        blob[blob.index(b"x" * 64) + 5] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            Container.from_bytes(bytes(blob))

    def test_salvage_isolates_corrupt_section(self):
        c = Container("demo")
        c.add_section("good", b"g" * 32)
        c.add_section("bad", b"b" * 32)
        blob = corrupt_section(c.to_bytes(), "bad")
        out = Container.from_bytes(blob, salvage=True)
        assert out.salvaged
        assert out.section("good") == b"g" * 32
        assert "bad" in out.corrupt_sections
        with pytest.raises(CorruptStreamError):
            out.section("bad")

    def test_salvage_truncated_tail(self):
        c = Container("demo")
        c.add_section("first", b"f" * 32)
        c.add_section("second", b"s" * 32)
        blob = c.to_bytes()[: -40]  # cut into the second section
        with pytest.raises((CorruptStreamError, EOFError)):
            Container.from_bytes(blob)
        out = Container.from_bytes(blob, salvage=True)
        assert out.section("first") == b"f" * 32
        assert not out.has_section("second")
        assert "<tail>" in out.corrupt_sections

    def test_duplicate_section_strict_raises_salvage_keeps_first(self):
        c = Container("demo")
        c.add_section("a", b"one")
        c.add_section("b", b"two")
        blob = bytearray(c.to_bytes())
        i = bytes(blob).index(b"\x01b\x03two")
        blob[i + 1] = ord("a")  # rename section 'b' -> 'a' (a duplicate)
        body = bytes(blob[:-4])
        blob = body + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(CorruptStreamError, match="duplicate"):
            Container.from_bytes(blob)
        out = Container.from_bytes(blob, salvage=True)
        assert out.section("a") == b"one"

    def test_header_must_parse_even_in_salvage(self):
        c = Container("demo", {"k": 1})
        blob = bytearray(c.to_bytes())
        idx = bytes(blob).index(b'{"k":1}')
        blob[idx] = 0xFF
        with pytest.raises(CorruptStreamError):
            Container.from_bytes(bytes(blob), salvage=True)

    def test_bad_magic_and_version(self):
        c = Container("demo")
        blob = bytearray(c.to_bytes())
        with pytest.raises(CorruptStreamError):
            Container.from_bytes(b"XXXX" + bytes(blob[4:]))
        blob[4] = 99
        with pytest.raises(CorruptStreamError, match="version"):
            Container.from_bytes(bytes(blob), salvage=True)


class TestV1Compat:
    """Blobs written before per-section CRCs must keep decoding (version 1)."""

    def test_chunked_v1_fixture_decodes(self):
        blob = (FIXTURES / "chunked_v1.rz").read_bytes()
        assert blob[4] == 1
        expected = np.load(FIXTURES / "chunked_v1_expected.npy")
        assert np.array_equal(decompress(blob), expected)

    def test_chunked_v1_fixture_salvage_mode(self):
        blob = (FIXTURES / "chunked_v1.rz").read_bytes()
        out, report = decompress_chunked(blob, salvage=True)
        assert report.ok and report.total == 4
        assert np.array_equal(out, np.load(FIXTURES / "chunked_v1_expected.npy"))

    def test_rcdf_v1_fixture_reads(self):
        ds = read_rcdf(FIXTURES / "rcdf_v1.rcdf")
        expected = np.load(FIXTURES / "rcdf_v1_temp_expected.npy")
        assert np.array_equal(ds.get("temp").data, expected)
        assert ds.get("ids").data.dtype == np.int32

    def test_v1_has_no_section_crc_so_bitrot_hits_global_crc(self):
        blob = bytearray((FIXTURES / "chunked_v1.rz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises((CorruptStreamError, EOFError)):
            decompress(bytes(blob))


class TestChunkedSalvage:
    def test_clean_blob_reports_ok(self):
        blob = compress_chunked(field(), "sz3", n_chunks=4, abs_eb=1e-3)
        out, report = decompress_chunked(blob, salvage=True)
        assert isinstance(report, SalvageReport)
        assert report.ok and report.total == 4
        assert np.array_equal(out, decompress_chunked(blob))

    def test_corrupt_chunk_nan_filled_rest_intact(self):
        data = field()
        blob = compress_chunked(data, "sz3", axis=0, n_chunks=4, abs_eb=1e-3)
        clean = decompress_chunked(blob)
        bad = corrupt_section(blob, "chunk2")
        with pytest.raises(CorruptStreamError):
            decompress_chunked(bad)
        out, report = decompress_chunked(bad, salvage=True)
        assert report.failed_names == ["chunk2"]
        assert report.failures[0].stage == "crc"
        # chunk2 covers rows 12..18 of the 24-row axis (4 equal chunks)
        assert np.isnan(out[12:18]).all()
        assert np.array_equal(out[:12], clean[:12])
        assert np.array_equal(out[18:], clean[18:])

    def test_truncated_blob_salvages_leading_chunks(self):
        blob = compress_chunked(field(), "sz3", n_chunks=4, abs_eb=1e-3)
        clean = decompress_chunked(blob)
        cut = blob[: int(len(blob) * 0.6)]
        out, report = decompress_chunked(cut, salvage=True)
        assert not report.ok
        assert np.isnan(out).any()
        recovered = ~np.isnan(out)
        assert np.array_equal(out[recovered], clean[recovered])

    def test_integer_chunks_zero_filled_with_note(self):
        data = np.arange(240, dtype=np.int32).reshape(24, 10)
        blob = compress_chunked(data, "bitgroom", n_chunks=4, abs_eb=1.0)
        bad = corrupt_section(blob, "chunk1")
        out, report = decompress_chunked(bad, salvage=True)
        if np.issubdtype(out.dtype, np.integer):
            assert (out[6:12] == 0).all()
            assert any("zero-filled" in n for n in report.notes)

    def test_fault_injected_corruption_surfaces_in_salvage(self):
        data = field()
        blob = compress_chunked(data, "sz3", n_chunks=4, abs_eb=1e-3,
                                faults="seed=5;bitflip:only=1:n=3")
        out, report = decompress_chunked(blob, salvage=True)
        assert report.failed_names == ["chunk1"]
        assert np.isnan(out[6:12]).all()

    def test_report_serializes(self):
        blob = compress_chunked(field(), "sz3", n_chunks=2, abs_eb=1e-3)
        _, report = decompress_chunked(corrupt_section(blob, "chunk0"),
                                       salvage=True)
        d = report.to_dict()
        assert d["recovered"] == 1 and d["total"] == 2 and not d["ok"]
        assert "chunk0" in report.summary()


class TestChunkedHeaderValidation:
    def _blob_with_header(self, **overrides):
        blob = compress_chunked(field(shape=(8, 6, 4)), "sz3", n_chunks=2,
                                abs_eb=1e-3)
        c = Container.from_bytes(blob)
        c.header.update(overrides)
        rebuilt = Container(c.codec, c.header)
        for name in c.section_names:
            rebuilt.add_section(name, c.section(name))
        return rebuilt.to_bytes()

    @pytest.mark.parametrize("overrides", [
        {"n_chunks": 0}, {"n_chunks": "2"}, {"n_chunks": True},
        {"shape": []}, {"shape": [8, -6, 4]}, {"shape": "nope"},
        {"axis": 7}, {"axis": -1}, {"axis": None},
        {"n_chunks": 100},  # more chunks than the split axis has rows
    ])
    def test_tampered_header_fails_clearly(self, overrides):
        blob = self._blob_with_header(**overrides)
        with pytest.raises(CorruptStreamError):
            decompress_chunked(blob)

    def test_not_chunked_codec_rejected(self):
        c = Container("other")
        with pytest.raises(ValueError, match="not a chunked stream"):
            decompress_chunked(c.to_bytes())


class TestRcdfSalvage:
    def _dataset(self):
        rng = np.random.default_rng(7)
        ds = RcdfDataset(attrs={"title": "t"})
        ds.create_dimension("y", 16)
        ds.create_dimension("x", 12)
        ds.add_variable("temp", ("y", "x"),
                        rng.normal(280, 5, (16, 12)).astype(np.float32),
                        codec="sz3", abs_eb=1e-3)
        ds.add_variable("ids", ("y", "x"),
                        np.arange(192, dtype=np.int32).reshape(16, 12))
        return ds

    def test_corrupt_variable_salvaged(self):
        ds = self._dataset()
        blob = ds.to_bytes()
        payload = Container.from_bytes(blob).section("var:temp")
        bad = bytearray(blob)
        bad[blob.index(payload) + 4] ^= 0xFF
        bad = bytes(bad)
        with pytest.raises((CorruptStreamError, EOFError)):
            RcdfDataset.from_bytes(bad).get("temp")
        out = RcdfDataset.from_bytes(bad, salvage=True)
        assert out.salvage_report.failed_names == ["temp"]
        assert np.isnan(out.get("temp").data).all()
        assert out.get("temp").data.shape == (16, 12)
        assert np.array_equal(out.get("ids").data, ds.get("ids").data)

    def test_clean_dataset_salvage_report_ok(self):
        out = RcdfDataset.from_bytes(self._dataset().to_bytes(), salvage=True)
        assert out.salvage_report.ok and out.salvage_report.total == 2

    def test_blank_variable_keeps_metadata(self):
        ds = self._dataset()
        blob = ds.to_bytes()
        payload = Container.from_bytes(blob).section("var:temp")
        bad = bytearray(blob)
        bad[blob.index(payload) + 4] ^= 0xFF
        out = RcdfDataset.from_bytes(bytes(bad), salvage=True)
        var = out.get("temp")
        assert var.dims == ("y", "x") and var.codec == "sz3"
        assert var.abs_eb == 1e-3

    def test_read_rcdf_salvage_flag(self, tmp_path):
        path = tmp_path / "d.rcdf"
        path.write_bytes(self._dataset().to_bytes())
        ds = read_rcdf(path, salvage=True)
        assert ds.salvage_report.ok


def rewrite_section(blob: bytes, name: str, payload: bytes | None = None) -> bytes:
    """Re-serialize ``blob`` with section ``name`` replaced by ``payload``
    (dropped when None); every CRC stays valid."""
    c = Container.from_bytes(blob)
    rebuilt = Container(c.codec, c.header)
    for other in c.section_names:
        if other != name:
            rebuilt.add_section(other, c.section(other))
        elif payload is not None:
            rebuilt.add_section(other, payload)
    return rebuilt.to_bytes()


class TestOneDamagePath:
    """Chunked and RCDF reads classify, fill and count damage the same way."""

    def test_stages_are_checked(self):
        report = SalvageReport()
        with pytest.raises(ValueError, match="unknown salvage stage"):
            report.add("chunk0", "truncated", "never produced")

    def test_doc_lists_the_stages(self):
        text = (pathlib.Path(__file__).parents[1] / "docs" / "ROBUSTNESS.md").read_text()
        table = text.split("\n| stage | meaning |")[1].split("\n\n")[0]
        assert tuple(re.findall(r"^\| `(\w+)` \|", table, re.M)) == SALVAGE_STAGES

    def test_payloads_strict_and_salvage(self):
        c = Container("demo")
        c.add_section("s0", b"zero")
        c.add_section("s1", b"one")
        blob = corrupt_section(rewrite_section(c.to_bytes(), "s0"), "s1")
        salvaged = Container.from_bytes(blob, salvage=True)
        report = SalvageReport()
        got = salvaged.payloads({"a": "s0", "b": "s1"}, report)
        assert got == {}
        assert [(f.name, f.stage) for f in report.failures] == [
            ("a", "missing"), ("b", "crc")]
        with pytest.raises(CorruptStreamError,
                           match="demo stream is missing section 's0'"):
            salvaged.payloads({"a": "s0"})

    def test_rcdf_missing_variable_reads_like_a_missing_chunk(self):
        ds = TestRcdfSalvage()._dataset()
        blob = rewrite_section(ds.to_bytes(), "var:temp")
        with pytest.raises(CorruptStreamError,
                           match="rcdf stream is missing section 'var:temp'"):
            RcdfDataset.from_bytes(blob)
        out = RcdfDataset.from_bytes(blob, salvage=True)
        (failure,) = out.salvage_report.failures
        assert failure.to_dict() == {"name": "temp", "stage": "missing",
                                     "error": "section absent (truncated container)"}
        assert np.isnan(out.get("temp").data).all()
        chunked = rewrite_section(compress_chunked(field(), "sz3", n_chunks=2,
                                                abs_eb=1e-3), "chunk1")
        _, report = decompress_chunked(chunked, salvage=True)
        assert report.failures[0].error == failure.error

    def test_rcdf_integer_variable_zero_filled_with_note(self):
        ds = TestRcdfSalvage()._dataset()
        out = RcdfDataset.from_bytes(corrupt_section(ds.to_bytes(), "var:ids"),
                                     salvage=True)
        assert (out.get("ids").data == 0).all()
        assert out.get("ids").data.dtype == np.int32
        assert out.salvage_report.notes == [
            "integer dtype int32: failed vars zero-filled"]

    def test_undecodable_variable_after_missing_and_crc(self):
        ds = TestRcdfSalvage()._dataset()
        ds.add_variable("salt", ("y", "x"), np.ones((16, 12)), codec="sz3",
                        abs_eb=1e-3)
        blob = rewrite_section(rewrite_section(ds.to_bytes(), "var:ids"),
                               "var:salt", b"junk")
        out = RcdfDataset.from_bytes(corrupt_section(blob, "var:temp"), salvage=True)
        assert [(f.name, f.stage) for f in out.salvage_report.failures] == [
            ("ids", "missing"), ("temp", "crc"), ("salt", "decode")]
        assert out.salvage_report.to_dict()["recovered"] == 0

    # a CRC-failed float chunk: test_chunk_dispatch's test_salvage_pooled_matches_inline
    @pytest.mark.parametrize("damage", ["missing", "decode", "int"])
    def test_pooled_chunked_salvage_matches_serial(self, damage):
        if damage == "int":
            blob = corrupt_section(compress_chunked(
                np.arange(240, dtype=np.int32).reshape(24, 10), "zfp",
                n_chunks=4, abs_eb=0.5), "chunk1")
        else:
            blob = compress_chunked(field(), "sz3", n_chunks=4, abs_eb=1e-3)
            blob = {"missing": blob[: int(len(blob) * 0.6)],
                    "decode": rewrite_section(blob, "chunk1", b"junk")}[damage]
        serial, report = decompress_chunked(blob, salvage=True)
        pooled, pooled_report = decompress_chunked(blob, workers=2, salvage=True)
        assert not report.ok and {f.stage for f in report.failures} == (
            {"crc"} if damage == "int" else {damage})
        assert pooled_report.to_dict() == report.to_dict()
        assert pooled.dtype == serial.dtype and pooled.tobytes() == serial.tobytes()

    def test_both_readers_count_salvage(self):
        from repro.obs import trace

        trace.end_run()
        run = trace.start_run()
        try:
            decompress_chunked(corrupt_section(compress_chunked(
                field(), "sz3", n_chunks=2, abs_eb=1e-3), "chunk0"), salvage=True)
            RcdfDataset.from_bytes(TestRcdfSalvage()._dataset().to_bytes(),
                                   salvage=True)
        finally:
            trace.end_run()
        counters = {name: rec["value"] for name, rec in run.metrics.snapshot().items()
                    if name.startswith("salvage.")}
        assert counters == {"salvage.reads": 2, "salvage.chunks_failed": 1,
                            "salvage.chunks_recovered": 1, "salvage.vars_failed": 0,
                            "salvage.vars_recovered": 2}
