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


def _kernel_row(stream, compress_mb_s, reference_ms=5.0, decompress_mb_s=None):
    """A kernel row: its kernel and stream in the codec row's two key fields."""
    row = {"codec": "lz", "dataset": stream, "nbytes": 10**6, "reference_ms": reference_ms,
           "compress_mb_s": compress_mb_s}
    if decompress_mb_s is not None:
        row["decompress_mb_s"] = decompress_mb_s
    return row


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


    def test_kernel_rows_are_measured_again_like_codec_rows(self, bench):
        """A kernel row below the floor is measured again; passing ones,
        with one direction or two, are not."""
        base = {**self.BASE, ("lz", "ssh-codes", "decompress_mb_s"): (50.0, 5.0),
                ("lz", "tuner-sample", "compress_mb_s"): (20.0, 5.0),
                ("lz", "put", "compress_mb_s"): (100.0, 5.0)}
        calls = []

        def measure(codec, dataset):
            calls.append((codec, dataset))
            return _kernel_row(dataset, 20.0, decompress_mb_s=50.0)

        rows = [_row("cliz", 100.0), _kernel_row("ssh-codes", 1.0, decompress_mb_s=35.0),
                _kernel_row("tuner-sample", 20.0), _kernel_row("put", 90.0)]
        out = bench.confirm_flagged(rows, measure, base, 0.20)
        assert calls == [("lz", "ssh-codes")]
        assert out[1]["decompress_mb_s"] == 50.0 and out[2:] == rows[2:]


class TestMedianRows:
    def test_median_of_normalized_throughput(self, bench):
        """A slow stretch reads low MB/s and a long reference time; the baseline
        must not pair one run's throughput with another run's reference."""
        runs = [[_row("cliz", mb_s, ref)] for mb_s, ref in ((10.0, 4.0), (5.0, 8.0), (8.0, 4.0))]
        (row,) = bench._median_rows(runs)
        assert row["reference_ms"] == 4.0
        assert row["compress_mb_s"] * row["reference_ms"] == pytest.approx(40.0)

    def test_kernel_rows_with_one_or_two_directions(self, bench):
        """A kernel row takes the same median of ``MB/s * reference_ms``, also
        when it has only a compress direction."""
        readings = ((10.0, 4.0, 30.0), (5.0, 8.0, 10.0), (8.0, 4.0, 20.0))
        runs = [[_kernel_row("ssh-codes", mb_s, ref, decompress_mb_s=dec),
                 _kernel_row("put", mb_s, ref)] for mb_s, ref, dec in readings]
        two, one = bench._median_rows(runs)
        assert two["reference_ms"] == one["reference_ms"] == 4.0
        assert two["compress_mb_s"] * two["reference_ms"] == pytest.approx(40.0)
        assert two["decompress_mb_s"] * two["reference_ms"] == pytest.approx(80.0)
        assert one["compress_mb_s"] * one["reference_ms"] == pytest.approx(40.0)
        assert "decompress_mb_s" not in one and "decompress_ms" not in one
