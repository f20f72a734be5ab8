"""Chunk-dispatch internals: shm lifecycle, chunk contract, timeouts, geometry.

Covers zero-copy shared-memory chunk payloads and the staged
decompress output (with unlink guaranteed on every exit path), the
per-chunk byte contract of ``compress_chunked`` (every section is the
codec's own blob for that chunk, serial or pooled), in-place slab writes
of ``decompress_chunked`` (pooled and inline agree bit for bit), the
off-main-thread timeout fallback, and the chunk slicing / header
geometry edge cases.
"""

import os
import threading
import warnings

import numpy as np
import pytest

import repro.parallel as par
from repro import compressor_for, decompress, obs
from repro.datasets import load
from repro.encoding.container import Container, CorruptStreamError
from repro.parallel import (
    DeadlineExceededError,
    ParallelJobError,
    _chunk_array,
    _chunk_slices,
    _ShmArena,
    _ShmSlice,
    compress_chunked,
    decompress_chunked,
)


def field(shape=(32, 24, 20), seed=0):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    return sum(np.sin(g) for g in grids) + 0.01 * rng.standard_normal(shape)


def shm_segments() -> set[str]:
    """Names of live POSIX shm segments created by this interpreter family."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture
def staged(monkeypatch):
    """Names of the shared-memory segments ``_ShmArena.empty`` creates."""
    names = []
    empty = _ShmArena.empty

    def spy(self, shape, dtype):
        ref = empty(self, shape, dtype)
        names.append(ref[0].lstrip("/"))
        return ref

    monkeypatch.setattr(_ShmArena, "empty", spy)
    return names


# ---------------------------------------------------------------------- #
# Shared-memory payloads and their lifecycle.

class TestShmLifecycle:
    def test_chunk_array_owns_its_bytes(self):
        """The materialized chunk must survive segment close AND unlink —
        an axis-0 slice of a C-contiguous array is already contiguous, so
        a naive ascontiguousarray would alias the mapped buffer."""
        arr = np.arange(200, dtype=np.float64).reshape(10, 20)
        arena = _ShmArena()
        try:
            name, shape, dtype = arena.share(arr)
            desc = _ShmSlice(name, shape, dtype, 0, 2, 7)
            out = _chunk_array(desc)
        finally:
            arena.close()
        assert out.flags["OWNDATA"] or out.base is None or \
            not isinstance(out.base, np.ndarray) or out.base.flags["OWNDATA"]
        np.testing.assert_array_equal(out, arr[2:7])  # read after unlink

    @pytest.mark.parametrize("axis", [0, 1])
    def test_chunk_array_slices_any_axis(self, axis):
        arr = np.arange(60, dtype=np.float64).reshape(6, 10)
        arena = _ShmArena()
        try:
            name, shape, dtype = arena.share(arr)
            sel = (slice(None),) * axis + (slice(1, 4),)
            out = _chunk_array(_ShmSlice(name, shape, dtype, axis, 1, 4))
            np.testing.assert_array_equal(out, arr[sel])
        finally:
            arena.close()

    def test_plain_ndarray_passthrough(self):
        arr = np.ones(4)
        assert _chunk_array(arr) is arr

    def test_arena_unlinks_on_close(self):
        before = shm_segments()
        arena = _ShmArena()
        arena.share(np.zeros((4, 4)))
        arena.share(np.ones(8, dtype=bool))
        assert len(shm_segments() - before) == 2
        arena.close()
        assert shm_segments() <= before

    def test_pool_dispatch_leaves_no_segments(self):
        before = shm_segments()
        data = field(seed=11)
        blob = compress_chunked(data, "sz3", n_chunks=4, workers=2, abs_eb=1e-3)
        assert shm_segments() <= before
        assert np.abs(decompress_chunked(blob) - data).max() <= 1e-3

    def test_segments_unlinked_after_worker_crash(self):
        """An exhausted crash fault aborts the dispatch; the finally
        block must still unlink every parent-side segment."""
        before = shm_segments()
        with pytest.raises((ParallelJobError, Exception)):
            compress_chunked(field(seed=12), "sz3", n_chunks=4, workers=2,
                             abs_eb=1e-3, retries=0,
                             faults="seed=1;crash:only=2:attempts=9")
        assert shm_segments() <= before

    def test_segments_unlinked_after_timeout(self):
        before = shm_segments()
        with pytest.raises(TimeoutError):
            compress_chunked(field(seed=13), "sz3", n_chunks=3, workers=2,
                             abs_eb=1e-3, timeout=0.05, retries=0,
                             faults="seed=1;slow:only=1:delay=0.5")
        assert shm_segments() <= before

    @pytest.mark.parametrize("kwargs, raises", [
        ({}, None),
        ({"retries": 0, "faults": "seed=1;crash:only=2:attempts=9"}, ParallelJobError),
        ({"timeout": 0.05, "retries": 0, "faults": "seed=1;slow:only=1:delay=0.5"},
         TimeoutError),
        ({"deadline": 0.2, "faults": "seed=1;slow:delay=1.0"}, DeadlineExceededError),
    ], ids=["success", "exhausted-crash", "timeout", "deadline"])
    def test_output_segment_unlinked(self, staged, kwargs, raises):
        """A pooled decompress stages its output in one segment, unlinked
        on success and on every failure path."""
        data = field(seed=14)
        blob = compress_chunked(data, "sz3", n_chunks=4, abs_eb=1e-3)
        if raises is None:
            assert np.abs(decompress_chunked(blob, workers=2) - data).max() <= 1e-3
        else:
            with pytest.raises(raises):
                decompress_chunked(blob, workers=2, **kwargs)
        assert len(staged) == 1 and not set(staged) & shm_segments()


# ---------------------------------------------------------------------- #
# Chunk contract: section chunk{i} is the codec's own blob for chunk i.

def _direct_chunks(data, codec, n_chunks, axis=0, mask=None, **kwargs):
    comp = compressor_for(codec)
    out = []
    for sl in _chunk_slices(data.shape[axis], n_chunks):
        sel = (slice(None),) * axis + (sl,)
        if mask is not None:
            out.append(comp.compress(data[sel], mask=mask[sel], **kwargs))
        else:
            out.append(comp.compress(data[sel], **kwargs))
    return out


def _sections(blob):
    container = Container.from_bytes(blob)
    return [container.section(f"chunk{i}")
            for i in range(container.header["n_chunks"])]


class TestChunkContract:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_cliz_masked_ssh_sections_are_direct_blobs(self, workers):
        f = load("SSH", shape=(16, 14, 48))
        blob = compress_chunked(f.data, "cliz", axis=2, n_chunks=3,
                                mask=f.mask, workers=workers, abs_eb=1e-3)
        assert _sections(blob) == _direct_chunks(
            f.data, "cliz", 3, axis=2, mask=f.mask, abs_eb=1e-3)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sz3_sections_are_direct_blobs(self, workers):
        data = field(seed=23)
        blob = compress_chunked(data, "sz3", n_chunks=4, workers=workers,
                                abs_eb=1e-3)
        assert _sections(blob) == _direct_chunks(data, "sz3", 4, abs_eb=1e-3)

    def test_crash_on_chunk_zero_kills_a_real_worker(self):
        data = field(seed=24)
        serial = compress_chunked(data, "sz3", n_chunks=4, abs_eb=1e-3)
        with obs.run() as run:
            pooled = compress_chunked(data, "sz3", n_chunks=4, workers=2,
                                      abs_eb=1e-3, retries=2,
                                      faults="seed=7;crash:only=0")
        assert run.metrics.counter("parallel.worker_crashes").value >= 1
        assert pooled == serial

    def test_unknown_codec_fails_before_dispatch(self):
        with obs.run() as run:
            with pytest.raises(ValueError, match="unknown codec"):
                compress_chunked(field(seed=25), "nosuch", n_chunks=4,
                                 workers=2, retries=3, retry_backoff=0.0)
        snap = run.metrics.snapshot()
        assert "parallel.retries" not in snap
        assert "parallel.job_failures" not in snap


# ---------------------------------------------------------------------- #
# Staged decompress: every job writes its chunk into its slab in place.

def _concatenated(blob):
    """The reassembly the staged output replaces: decode each section and
    concatenate the chunks."""
    container = Container.from_bytes(blob)
    return np.concatenate([decompress(sec) for sec in _sections(blob)],
                          axis=container.header["axis"])


def _swap_section(blob, name, payload):
    """``blob`` with section ``name`` replaced by ``payload``."""
    c = Container.from_bytes(blob)
    rebuilt = Container(c.codec, c.header)
    for section in c.section_names:
        rebuilt.add_section(section,
                            payload if section == name else c.section(section))
    return rebuilt.to_bytes()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStagedDecompress:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_pooled_equals_inline(self, dtype, axis):
        data = field(seed=30).astype(dtype)
        blob = compress_chunked(data, "sz3", axis=axis, n_chunks=4, abs_eb=1e-3)
        inline = decompress_chunked(blob)
        pooled = decompress_chunked(blob, workers=2)
        assert inline.dtype == dtype
        assert _same_bits(inline, pooled)
        assert _same_bits(inline, _concatenated(blob))

    def test_masked_cliz_pooled_equals_inline(self):
        f = load("SSH", shape=(16, 14, 48))
        blob = compress_chunked(f.data, "cliz", axis=2, n_chunks=3,
                                mask=f.mask, abs_eb=1e-3)
        inline = decompress_chunked(blob)
        assert _same_bits(inline, decompress_chunked(blob, workers=2))
        assert _same_bits(inline, _concatenated(blob))

    def test_salvage_pooled_matches_inline(self):
        data = field(seed=31)
        blob = compress_chunked(data, "sz3", n_chunks=4, abs_eb=1e-3,
                                faults="seed=5;bitflip:only=1:n=3")
        inline, inline_report = decompress_chunked(blob, salvage=True)
        pooled, pooled_report = decompress_chunked(blob, salvage=True, workers=2)
        assert pooled_report.failed_names == ["chunk1"]
        assert pooled_report.to_dict() == inline_report.to_dict()
        assert np.isnan(pooled[8:16]).all()  # chunk1: rows 8..16 of 32
        assert _same_bits(inline, pooled)

    @pytest.mark.parametrize("workers", [None, 2])
    @pytest.mark.parametrize("wrong", ["shape", "dtype"])
    def test_mismatched_chunk_is_corrupt(self, workers, wrong):
        """chunk1 decodes to a slab that disagrees with the chunked header
        (one row short) or with chunk0's dtype (float32, not float64)."""
        data = field(seed=32)
        blob = compress_chunked(data, "sz3", n_chunks=4, abs_eb=1e-3)
        other = data[8:15] if wrong == "shape" else data[8:16].astype(np.float32)
        bad = _swap_section(blob, "chunk1",
                            compressor_for("sz3").compress(other, abs_eb=1e-3))
        with pytest.raises(CorruptStreamError, match="chunk decoded to"):
            decompress_chunked(bad, workers=workers)
        out, report = decompress_chunked(bad, salvage=True, workers=workers)
        assert report.failed_names == ["chunk1"]
        assert report.failures[0].stage == "decode"
        assert out.dtype == np.float64
        assert np.isnan(out[8:16]).all()
        clean = decompress_chunked(blob)
        assert _same_bits(out[:8], clean[:8]) and _same_bits(out[16:], clean[16:])


# ---------------------------------------------------------------------- #
# S1: per-job timeout off the main thread.

class TestThreadTimeoutFallback:
    def _dispatch_in_thread(self, **kwargs):
        box = {}

        def target():
            try:
                box["result"] = compress_chunked(
                    field((12, 8, 8), seed=17), "sz3", n_chunks=2,
                    abs_eb=1e-2, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - relayed to the test
                box["error"] = exc

        t = threading.Thread(target=target)
        t.start()
        t.join(60)
        assert not t.is_alive()
        return box

    def test_overrun_surfaces_as_timeout_error(self, monkeypatch):
        """The old behaviour silently skipped the timeout budget off the
        main thread; an overrunning job must now fail retryably."""
        monkeypatch.setattr(par, "_timeout_fallback_warned", False)
        with obs.run() as run:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                box = self._dispatch_in_thread(
                    timeout=0.05, retries=0,
                    faults="seed=1;slow:delay=0.3")
        assert isinstance(box.get("error"), TimeoutError)
        assert "post-hoc" in str(box["error"])
        snap = run.metrics.snapshot()
        assert snap["parallel.timeout_unenforced"]["value"] >= 1
        assert snap["parallel.timeouts"]["value"] >= 1
        assert any(issubclass(w.category, RuntimeWarning) and
                   "SIGALRM" in str(w.message) for w in caught)

    def test_warning_is_one_shot(self, monkeypatch):
        monkeypatch.setattr(par, "_timeout_fallback_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            box = self._dispatch_in_thread(timeout=30.0)
        assert "result" in box
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)
                   and "SIGALRM" in str(w.message)]
        assert len(runtime) == 1  # one warning, not one per job

    def test_fast_jobs_still_succeed_off_main_thread(self, monkeypatch):
        monkeypatch.setattr(par, "_timeout_fallback_warned", True)
        box = self._dispatch_in_thread(timeout=30.0)
        data = field((12, 8, 8), seed=17)
        assert np.abs(decompress_chunked(box["result"]) - data).max() <= 1e-2


# ---------------------------------------------------------------------- #
# S3: chunk slicing and header geometry.

class TestChunkGeometry:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 5), (3, 8), (7, 7), (10, 3)])
    def test_chunk_slices_partition(self, n, k):
        slices = _chunk_slices(n, k)
        assert all(sl.stop > sl.start for sl in slices)  # no size-0 chunks
        assert slices[0].start == 0 and slices[-1].stop == n
        for a, b in zip(slices[:-1], slices[1:]):
            assert a.stop == b.start
        assert len(slices) == min(n, k)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_roundtrip_more_chunks_than_axis(self, axis):
        data = field((6, 3, 4), seed=18)
        blob = compress_chunked(data, "sz3", axis=axis, n_chunks=9, abs_eb=1e-2)
        out = decompress_chunked(blob)
        assert out.shape == data.shape
        assert np.abs(out - data).max() <= 1e-2

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_roundtrip_one_element_axis(self, axis):
        shape = [5, 5, 5]
        shape[axis] = 1
        data = field(tuple(shape), seed=19)
        blob = compress_chunked(data, "sz3", axis=axis, n_chunks=4, abs_eb=1e-2)
        out = decompress_chunked(blob)
        assert out.shape == data.shape
        assert np.abs(out - data).max() <= 1e-2

    def test_roundtrip_nonzero_axis_parallel(self):
        data = field(seed=20)
        serial = compress_chunked(data, "sz3", axis=2, n_chunks=4, abs_eb=1e-3)
        parallel = compress_chunked(data, "sz3", axis=2, n_chunks=4,
                                    workers=2, abs_eb=1e-3)
        assert serial == parallel
        assert np.abs(decompress_chunked(parallel) - data).max() <= 1e-3

    def test_header_rejects_more_chunks_than_axis(self):
        from repro.encoding.container import CorruptStreamError
        from repro.parallel import _validate_chunked_header
        with pytest.raises(CorruptStreamError):
            _validate_chunked_header(
                {"n_chunks": 9, "axis": 0, "shape": [3, 4]})

    def test_fault_only_indexing_spans_waves(self):
        """``only=N`` fault clauses address logical chunk indices: the
        directive for chunk 1 fires on chunk 1's job, not on another."""
        with obs.run() as run:
            blob = compress_chunked(field(seed=21), "sz3", n_chunks=4,
                                    abs_eb=1e-3, retries=2,
                                    faults="seed=7;crash:only=1")
        assert run.metrics.counter("parallel.retries").value >= 1
        data = field(seed=21)
        assert np.abs(decompress_chunked(blob) - data).max() <= 1e-3

    def test_fault_on_chunk_zero_still_recovers(self):
        blob = compress_chunked(field(seed=22), "sz3", n_chunks=4,
                                abs_eb=1e-3, retries=2,
                                faults="seed=7;crash:only=0")
        data = field(seed=22)
        assert np.abs(decompress_chunked(blob) - data).max() <= 1e-3
