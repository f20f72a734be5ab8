"""The codec bench gate's own logic (``benchmarks/bench_codec.py``), without timing."""

import importlib.util
import pathlib
import sys

import pytest

METRICS = ("compress_mb_s", "decompress_mb_s")


@pytest.fixture(scope="module")
def bench():
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_codec.py"
    spec = importlib.util.spec_from_file_location("bench_codec", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _row(codec, compress_mb_s, reference_ms=5.0):
    return {"codec": codec, "dataset": "SSH", "nbytes": 10**6, "reference_ms": reference_ms,
            "compress_mb_s": compress_mb_s, "decompress_mb_s": 100.0}


class TestConfirmFlagged:
    BASE = {(codec, "SSH", m): (100.0, 5.0) for codec in ("cliz", "zfp") for m in METRICS}

    def test_only_rows_below_the_floor_are_measured_again(self, bench):
        """A row pulled under the floor once is replaced by its next measurement;
        a row under it in every measurement keeps failing."""
        readings = {"cliz": iter([95.0]), "zfp": iter([70.0, 70.0])}
        calls = []

        def measure(codec, dataset):
            calls.append(codec)
            return _row(codec, next(readings[codec]))

        rows = bench.confirm_flagged([_row("cliz", 70.0), _row("zfp", 70.0)],
                                     measure, self.BASE, 0.20)
        assert calls == ["cliz", "zfp", "zfp"]
        assert [r["compress_mb_s"] for r in rows] == [95.0, 70.0]

    def test_passing_rows_are_not_measured(self, bench):
        def measure(codec, dataset):
            raise AssertionError("no row is below the floor")

        rows = [_row("cliz", 85.0), _row("zfp", 120.0)]
        assert bench.confirm_flagged(rows, measure, self.BASE, 0.20) == rows


class TestMedianRows:
    def test_median_of_normalized_throughput(self, bench):
        """A slow stretch reads low MB/s and a long reference time; the baseline
        must not pair one run's throughput with another run's reference."""
        runs = [[_row("cliz", mb_s, ref)] for mb_s, ref in ((10.0, 4.0), (5.0, 8.0), (8.0, 4.0))]
        (row,) = bench._median_rows(runs)
        assert row["reference_ms"] == 4.0
        assert row["compress_mb_s"] * row["reference_ms"] == pytest.approx(40.0)
