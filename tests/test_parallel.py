"""Tests for chunked / parallel compression."""

import time

import numpy as np
import pytest

from repro import obs
from repro.faults import parse_fault_spec
from repro.parallel import (
    DeadlineExceededError,
    compress_chunked,
    compress_many,
    decompress_chunked,
    decompress_many,
)


def field(shape=(32, 24, 20), seed=0):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    return sum(np.sin(g) for g in grids) + 0.01 * rng.standard_normal(shape)


class TestChunked:
    def test_roundtrip_serial(self):
        data = field()
        blob = compress_chunked(data, "sz3", axis=0, n_chunks=4, abs_eb=1e-3)
        out = decompress_chunked(blob)
        assert np.abs(out - data).max() <= 1e-3

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_all_axes(self, axis):
        data = field()
        blob = compress_chunked(data, "sz3", axis=axis, n_chunks=3, abs_eb=1e-3)
        out = decompress_chunked(blob)
        assert out.shape == data.shape
        assert np.abs(out - data).max() <= 1e-3

    def test_chunk_bound_is_global_bound(self):
        """abs_eb per chunk implies the same pointwise bound globally."""
        data = field(seed=2)
        blob = compress_chunked(data, "cliz", axis=2, n_chunks=5, abs_eb=5e-3)
        out = decompress_chunked(blob)
        assert np.abs(out - data).max() <= 5e-3

    def test_masked_chunks(self):
        data = field()
        mask = np.ones(data.shape, dtype=bool)
        mask[:, 5:10] = False
        blob = compress_chunked(data, "cliz", axis=0, n_chunks=2,
                                abs_eb=1e-3, mask=mask)
        out = decompress_chunked(blob)
        assert np.abs(out - data)[mask].max() <= 1e-3

    def test_more_chunks_than_slices(self):
        data = field((3, 10, 10))
        blob = compress_chunked(data, "sz3", axis=0, n_chunks=8, abs_eb=1e-2)
        out = decompress_chunked(blob)
        assert np.abs(out - data).max() <= 1e-2

    def test_parallel_workers_match_serial(self):
        data = field(seed=3)
        serial = compress_chunked(data, "sz3", axis=0, n_chunks=4, abs_eb=1e-3)
        parallel = compress_chunked(data, "sz3", axis=0, n_chunks=4,
                                    workers=2, abs_eb=1e-3)
        assert serial == parallel  # deterministic codecs, identical chunks
        out = decompress_chunked(parallel, workers=2)
        assert np.abs(out - data).max() <= 1e-3

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            compress_chunked(field(), axis=5, abs_eb=1e-3)

    def test_bad_n_chunks_rejected(self):
        with pytest.raises(ValueError):
            compress_chunked(field(), n_chunks=0, abs_eb=1e-3)

    def test_wrong_codec_tag_rejected(self):
        from repro import SZ3
        blob = SZ3().compress(field(), abs_eb=1e-3)
        with pytest.raises(ValueError):
            decompress_chunked(blob)

    def test_chunking_costs_a_little_ratio(self):
        """Predictions cannot cross chunk boundaries: mild size increase."""
        from repro import SZ3
        data = field((64, 20, 20), seed=4)
        whole = len(SZ3().compress(data, abs_eb=1e-3))
        chunked = len(compress_chunked(data, "sz3", axis=0, n_chunks=8, abs_eb=1e-3))
        assert whole < chunked < whole * 2


class TestMany:
    def test_batch_roundtrip(self):
        arrays = [field(seed=s) for s in range(4)]
        blobs = compress_many(arrays, "sz3", abs_eb=1e-3)
        outs = decompress_many(blobs)
        for a, o in zip(arrays, outs):
            assert np.abs(o - a).max() <= 1e-3

    def test_batch_with_masks(self):
        arrays = [field(seed=s) for s in range(2)]
        masks = [np.ones(a.shape, dtype=bool) for a in arrays]
        masks[0][0] = False
        blobs = compress_many(arrays, "cliz", masks=masks, abs_eb=1e-3)
        outs = decompress_many(blobs)
        assert np.abs(outs[0] - arrays[0])[masks[0]].max() <= 1e-3

    def test_mask_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compress_many([field()], masks=[None, None], abs_eb=1e-3)

    def test_parallel_batch(self):
        arrays = [field(seed=s, shape=(16, 12, 10)) for s in range(3)]
        blobs = compress_many(arrays, "sz3", workers=2, abs_eb=1e-2)
        outs = decompress_many(blobs, workers=2)
        for a, o in zip(arrays, outs):
            assert np.abs(o - a).max() <= 1e-2


class TestManyValidation:
    """compress_many must validate inputs before any pool is spawned."""

    def test_bad_array_fails_before_pool(self, monkeypatch):
        import repro.parallel as par

        def _no_pool(*a, **k):
            raise AssertionError("pool spawned before validation")

        monkeypatch.setattr(par, "ProcessPoolExecutor", _no_pool)
        with pytest.raises(ValueError, match="array 1"):
            compress_many([field(shape=(8, 8)), np.zeros((0, 3))],
                          "sz3", workers=2, abs_eb=1e-3)

    def test_bad_mask_fails_before_pool(self, monkeypatch):
        import repro.parallel as par

        def _no_pool(*a, **k):
            raise AssertionError("pool spawned before validation")

        monkeypatch.setattr(par, "ProcessPoolExecutor", _no_pool)
        arrays = [field(shape=(8, 8))]
        with pytest.raises(ValueError, match="array 0"):
            compress_many(arrays, "cliz", workers=2,
                          masks=[np.ones((4, 4), dtype=bool)], abs_eb=1e-3)

    def test_non_numeric_rejected_eagerly(self):
        with pytest.raises(TypeError, match="array 0"):
            compress_many([np.array(["a", "b"])], "sz3", abs_eb=1e-3)

    def test_valid_input_still_works_serial(self):
        arrays = [field(shape=(8, 8), seed=3)]
        blobs = compress_many(arrays, "sz3", abs_eb=1e-3)
        outs = decompress_many(blobs)
        assert np.abs(outs[0] - arrays[0]).max() <= 1e-3


class TestTelemetryMerge:
    """Workers ship spans/metrics back; the parent stitches them under dispatch."""

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        from repro import obs
        obs.end_run()
        yield
        obs.end_run()

    def test_worker_spans_merge_under_dispatch(self):
        from repro import obs

        arrays = [field(seed=s, shape=(16, 12, 10)) for s in range(3)]
        with obs.run() as run:
            compress_many(arrays, "sz3", workers=2, abs_eb=1e-2)
        spans = run.spans()
        dispatch = next(s for s in spans if s.name == "compress_many")
        workers = [s for s in spans if s.parent_id == dispatch.span_id]
        assert len(workers) == 3  # one worker-root span per array
        for w in workers:
            assert w.tags.get("worker_run")
            assert w.path == "compress_many/worker"
        # every absorbed span carries the parent's run id but the worker's pid
        assert {s.run_id for s in spans} == {run.run_id}
        assert any(s.pid != dispatch.pid for s in workers)
        # nested codec stages survive the merge with stitched paths
        assert any(s.path == f"{w.path}/compress" for w in workers for s in spans)

    def test_worker_metrics_merge_into_parent(self):
        from repro import obs

        arrays = [field(seed=s, shape=(16, 12, 10)) for s in range(2)]
        with obs.run() as run:
            compress_many(arrays, "sz3", workers=2, abs_eb=1e-2)
        snap = run.metrics.snapshot()
        assert snap["sz3.compress.calls"]["value"] == 2
        assert snap["sz3.compression_ratio"]["count"] == 2

    def test_serial_path_records_in_parent_directly(self):
        from repro import obs

        arrays = [field(seed=0, shape=(16, 12, 10))]
        with obs.run() as run:
            compress_many(arrays, "sz3", abs_eb=1e-2)
        spans = run.spans()
        assert all(s.pid == spans[0].pid for s in spans)
        assert any(s.path == "compress_many/compress" for s in spans)

    def test_no_run_means_no_telemetry_overhead(self):
        from repro import obs

        arrays = [field(seed=0, shape=(16, 12, 10))]
        compress_many(arrays, "sz3", workers=2, abs_eb=1e-2)
        assert obs.get_run() is None


class TestChunkedMaskedParallel:
    def test_chunked_roundtrip_workers_and_mask(self):
        data = field(shape=(24, 16, 10), seed=5)
        mask = np.ones(data.shape, dtype=bool)
        mask[:, :3, :] = False
        data = data.copy()
        data[~mask] = 9.96921e36  # CESM-style fill constant
        blob = compress_chunked(data, "cliz", axis=0, n_chunks=3, workers=2,
                                mask=mask, abs_eb=1e-3)
        out = decompress_chunked(blob, workers=2)
        assert np.abs((out - data))[mask].max() <= 1e-3
        assert np.allclose(out[~mask], 9.96921e36)

    def test_chunked_workers_match_serial_with_mask(self):
        data = field(shape=(20, 12, 8), seed=6)
        mask = np.ones(data.shape, dtype=bool)
        mask[5:7] = False
        serial = compress_chunked(data, "cliz", axis=0, n_chunks=2,
                                  mask=mask, abs_eb=1e-3)
        parallel = compress_chunked(data, "cliz", axis=0, n_chunks=2, workers=2,
                                    mask=mask, abs_eb=1e-3)
        assert serial == parallel


class TestDispatchDeadline:
    """A dispatch-level deadline bounds the whole chunked call."""

    def _field(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(8, 16, 16)).astype(np.float32)

    def test_deadline_exceeded_raises_promptly_serial(self):
        slow = parse_fault_spec("seed=1;slow:p=1:delay=0.2")
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            compress_chunked(self._field(), "cliz", n_chunks=4,
                             rel_eb=1e-3, deadline=0.05, faults=slow)
        assert time.monotonic() - t0 < 2.0

    def test_deadline_exceeded_raises_with_pool(self):
        slow = parse_fault_spec("seed=1;slow:p=1:delay=0.3")
        with pytest.raises(DeadlineExceededError):
            compress_chunked(self._field(), "cliz", n_chunks=4, workers=2,
                             rel_eb=1e-3, deadline=0.05, faults=slow)

    def test_generous_deadline_is_invisible(self):
        data = self._field()
        blob = compress_chunked(data, "cliz", n_chunks=4, rel_eb=1e-3,
                                deadline=60.0)
        back = decompress_chunked(blob, deadline=60.0)
        assert np.abs(back - data).max() <= 1e-3 * np.ptp(data) * 1.0001

    def test_deadline_failures_are_never_retried(self):
        # with retries available, a deadline failure must not consume them
        slow = parse_fault_spec("seed=1;slow:p=1:delay=0.2")
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            compress_chunked(self._field(), "cliz", n_chunks=4,
                             rel_eb=1e-3, deadline=0.05, retries=5,
                             faults=slow)
        # 5 retries x 4 chunks x 0.2s stall would take >= 4s if retried
        assert time.monotonic() - t0 < 2.0

    @pytest.mark.parametrize("workers", [None, 2])
    def test_deadline_during_attempt_is_final(self, workers):
        # chunk 0 finishes quickly; only chunk 1 outlasts the deadline.
        # Its timeout fires at the deadline, so the failure is final on
        # either executor: no retry is counted and the message is the same.
        slow = parse_fault_spec("seed=1;slow:only=1:delay=2.0")
        with obs.run() as run:
            with pytest.raises(DeadlineExceededError) as err:
                compress_chunked(self._field(), "cliz", n_chunks=2,
                                 workers=workers, rel_eb=1e-3, deadline=0.5,
                                 retries=5, faults=slow)
        retries = run.metrics.snapshot().get("parallel.retries", {})
        assert retries.get("value", 0) == 0
        assert str(err.value) == (
            "compress_chunked job 1 failed after 1 attempt(s): "
            "dispatch deadline exceeded during the attempt")

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            compress_chunked(self._field(), "cliz", rel_eb=1e-3, deadline=0)

    def test_deadline_exceeded_is_timeout_error(self):
        assert issubclass(DeadlineExceededError, TimeoutError)


class TestTimeoutFallbackWarning:
    """The off-main-thread timeout warning fires exactly once, even when
    many service threads hit the fallback path simultaneously."""

    def test_warning_is_one_shot_under_contention(self, monkeypatch):
        import threading

        import repro.parallel as par

        calls = []
        calls_lock = threading.Lock()

        def _count(*args, **kwargs):
            with calls_lock:
                calls.append(args)

        monkeypatch.setattr(par.warnings, "warn", _count)
        monkeypatch.setattr(par, "_timeout_fallback_warned", False)

        n = 8
        barrier = threading.Barrier(n)

        def _hit():
            barrier.wait()
            par._warn_timeout_fallback()

        threads = [threading.Thread(target=_hit) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
