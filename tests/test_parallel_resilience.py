"""Self-healing dispatch: retries, timeouts, pool respawn, fault injection."""

import numpy as np
import pytest

from repro import obs
from repro.encoding.container import DECODE_ERRORS, CorruptStreamError
from repro.faults import FaultInjectedError, parse_fault_spec
from repro.parallel import (
    DeadlineExceededError,
    JobResult,
    ParallelJobError,
    RetryPolicy,
    _finalize,
    compress_chunked,
    compress_many,
    decompress_chunked,
    decompress_many,
)
from repro.runtime.durable import InjectedKillError


def arrays(n=3, shape=(12, 10), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, shape).astype(np.float32) for _ in range(n)]


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        p = RetryPolicy(retries=5, backoff=0.1, max_backoff=0.3)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.3)  # capped
        assert p.delay(10) == pytest.approx(0.3)

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1}, {"backoff": -0.1}, {"timeout": 0.0},
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFailedCallTrace:
    """A call that raises leaves its dispatch span with status "error"."""

    FAIL = "seed=1;crash:only=1:attempts=5"

    @staticmethod
    def _status(run, name):
        return [r["status"] for r in run.span_records() if r["name"] == name]

    def test_pooled_compress_chunked(self):
        data = arrays(1, shape=(16, 12))[0]
        with obs.run() as run:
            with pytest.raises(ParallelJobError, match="compress_chunked job"):
                compress_chunked(data, "sz3", n_chunks=4, workers=2, abs_eb=1e-2,
                                 retry_backoff=0.0, faults=self.FAIL)
        assert self._status(run, "compress_chunked") == ["error"]

    def test_strict_many_calls(self):
        blobs = compress_many(arrays(), "sz3", abs_eb=1e-2)
        with obs.run() as run:
            with pytest.raises(FaultInjectedError):
                compress_many(arrays(), "sz3", abs_eb=1e-2, retry_backoff=0.0,
                              faults=self.FAIL)
            with pytest.raises(FaultInjectedError):
                decompress_many(blobs, retry_backoff=0.0, faults=self.FAIL)
        assert self._status(run, "compress_many") == ["error"]
        assert self._status(run, "decompress_many") == ["error"]

    def test_strict_decompress_chunked(self):
        blob = compress_chunked(arrays(1, shape=(16, 12))[0], "sz3", n_chunks=4, abs_eb=1e-2)
        with obs.run() as run:
            with pytest.raises(FaultInjectedError):
                decompress_chunked(blob, retry_backoff=0.0, faults=self.FAIL)
        assert self._status(run, "decompress_chunked") == ["error"]


class TestSerialResilience:
    def test_crash_recovered_by_retry(self):
        blobs = compress_many(arrays(), "sz3", abs_eb=1e-2, retries=1,
                              retry_backoff=0.0,
                              faults="seed=1;crash:only=1")
        out = decompress_many(blobs)
        for a, o in zip(arrays(), out):
            assert np.abs(a - o).max() <= 1e-2 + 1e-9

    def test_retries_exhausted_reraises_original_type(self):
        with pytest.raises(FaultInjectedError, match="job 1 failed after 2"):
            compress_many(arrays(), "sz3", abs_eb=1e-2, retries=1,
                          retry_backoff=0.0,
                          faults="seed=1;crash:only=1:attempts=5")

    @pytest.mark.parametrize("workers", [None, 2])
    def test_strict_false_gives_structured_results(self, workers):
        results = compress_many(arrays(), "sz3", abs_eb=1e-2, strict=False,
                                workers=workers, retry_backoff=0.0,
                                faults="seed=1;crash:only=2:attempts=5")
        assert all(isinstance(r, JobResult) for r in results)
        failed = results[2]
        assert not failed.ok and failed.attempts == 1
        if workers is None:
            assert [r.ok for r in results] == [True, True, False]
            assert failed.error_type == "FaultInjectedError"
            assert "injected crash" in failed.error
        else:
            # a pool break also fails any sibling still in flight: with no
            # retries left it cannot be requeued
            assert failed.error_type == "WorkerCrash"
            assert all(r.ok or r.error_type == "WorkerCrash"
                       for r in results[:2])
        # the good blobs are still usable
        good = [r.value for r in results if r.ok]
        assert len(decompress_many(good)) == len(good)

    def test_timeout_enforced_and_counted(self):
        run = obs.start_run()
        try:
            with pytest.raises(TimeoutError):
                compress_many(arrays(n=1), "sz3", abs_eb=1e-2, timeout=0.05,
                              retry_backoff=0.0,
                              faults="seed=1;slow:delay=0.4")
        finally:
            obs.end_run()
        assert run.metrics.counter("parallel.timeouts").value >= 1

    @pytest.mark.parametrize("workers", [None, 2])
    def test_slow_fault_just_delays(self, workers):
        blobs = compress_many(arrays(n=2), "sz3", abs_eb=1e-2, workers=workers,
                              faults="seed=1;slow:delay=0.01")
        assert all(isinstance(b, bytes) for b in blobs)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_attempts_recorded(self, workers):
        results = compress_many(arrays(n=2), "sz3", abs_eb=1e-2, retries=2,
                                workers=workers, retry_backoff=0.0, strict=False,
                                faults="seed=1;crash:only=0:attempts=2")
        assert results[0].ok and results[0].attempts == 3
        assert results[1].ok
        # inline, job 1 never sees the crash; on a pool each break of job
        # 0's worker may also requeue job 1 if it is still in flight
        if workers is None:
            assert results[1].attempts == 1
        else:
            assert results[1].attempts <= 3


class TestPoolResilience:
    def test_worker_crash_respawns_pool_and_recovers(self):
        """A hard worker death (os._exit) breaks the executor; the dispatcher
        must respawn it, requeue unfinished jobs, and still deliver."""
        run = obs.start_run()
        try:
            blobs = compress_many(arrays(n=4), "sz3", abs_eb=1e-2, workers=2,
                                  retries=3, retry_backoff=0.0,
                                  faults="seed=1;crash:only=1")
        finally:
            obs.end_run()
        out = decompress_many(blobs)
        for a, o in zip(arrays(n=4), out):
            assert np.abs(a - o).max() <= 1e-2 + 1e-9
        snap = run.metrics.snapshot()
        assert snap["parallel.worker_crashes"]["value"] >= 1
        assert snap["parallel.pool_respawns"]["value"] >= 1
        assert snap["parallel.jobs_ok"]["value"] == 4

    def test_pool_crash_without_retries_fails_structured(self):
        results = compress_many(arrays(n=2), "sz3", abs_eb=1e-2, workers=2,
                                retries=0, retry_backoff=0.0, strict=False,
                                faults="seed=1;crash:only=0:attempts=9")
        by_index = {r.index: r for r in results}
        assert not by_index[0].ok
        assert by_index[0].error_type == "WorkerCrash"

    def test_pool_crash_strict_raises_parallel_job_error(self):
        with pytest.raises(ParallelJobError) as err:
            compress_many(arrays(n=2), "sz3", abs_eb=1e-2, workers=2,
                          retries=0, retry_backoff=0.0,
                          faults="seed=1;crash:only=0:attempts=9")
        assert any(not r.ok for r in err.value.results)


class TestTelemetryDeterminism:
    COUNTERS = ("faults.crash_planned", "faults.bitflip_injected",
                "parallel.jobs_ok", "parallel.job_failures")

    def _run_once(self):
        run = obs.start_run()
        try:
            compress_many(arrays(n=6), "sz3", abs_eb=1e-2, retries=2,
                          retry_backoff=0.0, strict=False,
                          faults="seed=33;crash:p=0.4;bitflip:p=0.3")
        finally:
            obs.end_run()
        snap = run.metrics.snapshot()
        return {k: snap[k]["value"] for k in self.COUNTERS if k in snap}

    def test_same_seed_identical_counters(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second
        assert first.get("faults.crash_planned", 0) > 0

    def test_different_seed_changes_plan(self):
        plans = set()
        for seed in (1, 2, 3, 4, 5):
            inj = parse_fault_spec(f"seed={seed};crash:p=0.4")
            plans.add(tuple(inj.job_faults("many", i).crash_attempts
                            for i in range(8)))
        assert len(plans) > 1


class TestInputValidation:
    def test_bad_faults_type_rejected(self):
        with pytest.raises(TypeError):
            compress_many(arrays(n=1), "sz3", abs_eb=1e-2, faults=42)

    def test_bad_spec_string_rejected(self):
        with pytest.raises(ValueError):
            compress_many(arrays(n=1), "sz3", abs_eb=1e-2, faults="frobnicate")


def _failed(exc):
    return [JobResult(index=0, ok=True, value=b"ok"),
            JobResult(index=1, ok=False, error=f"{type(exc).__name__}: {exc}",
                      error_type=type(exc).__name__, attempts=2,
                      exception=exc)]


#: Every failure class that reaches strict mode from a job.
ARRIVING = [cls("boom") for cls in DECODE_ERRORS] + [
    CorruptStreamError("bad section"), TypeError("not an array"),
    TimeoutError("attempt timed out"),
    DeadlineExceededError("dispatch deadline exceeded"),
    FaultInjectedError("injected crash"), InjectedKillError("mid_write"),
]


class TestStrictReraise:
    @pytest.mark.parametrize("exc", ARRIVING,
                             ids=[type(e).__name__ for e in ARRIVING])
    def test_job_class_and_message_kept(self, exc):
        with pytest.raises(type(exc)) as err:
            _finalize(_failed(exc), True, "compress_many")
        assert type(err.value) is type(exc)
        assert str(err.value) == str(type(exc)(
            f"compress_many job 1 failed after 2 attempt(s): {exc}"))
        assert err.value.__cause__ is exc

    def test_other_classes_become_parallel_job_error(self):
        exc = ZeroDivisionError("division by zero")
        with pytest.raises(ParallelJobError) as err:
            _finalize(_failed(exc), True, "compress_many")
        assert str(err.value) == ("compress_many job 1 failed after 2 "
                                  "attempt(s): ZeroDivisionError: division by zero")
        assert err.value.__cause__ is exc
        assert [r.ok for r in err.value.results] == [True, False]
