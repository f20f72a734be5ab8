"""Chunked / parallel compression for archive-scale arrays — self-healing.

The paper's scaled experiment (§VII-C4) compresses one file per core; a
production archive equally needs to split a single huge array across
workers. This module provides both patterns on top of any registered
codec:

* :func:`compress_chunked` — split an array along an axis, compress every
  chunk independently (optionally on a process pool), bundle the chunk
  blobs in one container. The pointwise error bound holds per chunk and
  therefore globally; chunk boundaries cost a little ratio (predictions
  cannot cross them), which is the classic HPC trade-off.
* :func:`compress_many` — compress a batch of independent arrays
  concurrently (the one-file-per-core Globus pattern).

Workers are plain processes (``concurrent.futures``): NumPy releases the
GIL for large kernels, but the Python-level coding stages do not, so
processes are the profitable unit — with chunks sized so the fork+pickle
overhead stays negligible, per the HPC-Python guidance.

Resilience (see ``docs/ROBUSTNESS.md``): every dispatch accepts a retry
budget (``retries`` + bounded exponential ``retry_backoff``), a per-job
``timeout`` (``SIGALRM``; checked post-hoc off the main thread), a
dispatch-wide ``deadline``, and a ``faults`` injector (:mod:`repro.faults`).
Serial and pooled dispatch run the same job loop over an inline or a
process-pool executor; only an injected crash differs (an exception
inline, a real worker death on a pool). A worker process dying takes
down the whole ``ProcessPoolExecutor`` (``BrokenProcessPool``) — the
dispatcher respawns the pool and requeues only the unfinished jobs
instead of aborting the batch. With ``strict=False`` callers get
structured per-job :class:`JobResult` records instead of an exception.
:func:`decompress_chunked` additionally supports ``salvage=True``:
chunks that are missing, fail their section CRC (container v2), or fail
to decode come back NaN-filled, with a
:class:`~repro.encoding.container.SalvageReport` describing the damage.

When an observability run is active in the dispatching process
(``repro.obs.run()``, or the CLI's ``--profile``), each pool worker
collects spans and exact metrics into a local run and ships them back
alongside its result; the parent stitches them under the dispatching
span, so profiles and traces see through the process boundary.
Retries, pool respawns, and salvage outcomes land in ``parallel.*`` /
``salvage.*`` counters.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.encoding.container import (
    Container,
    CorruptStreamError,
    SalvageReport,
)
from repro.faults import FaultInjectedError, FaultInjector, JobFaults, parse_fault_spec
from repro.utils.validation import check_array, check_mask

__all__ = [
    "compress_chunked",
    "decompress_chunked",
    "compress_many",
    "decompress_many",
    "JobResult",
    "RetryPolicy",
    "ParallelJobError",
    "DeadlineExceededError",
]

_CODEC = "chunked"


class ParallelJobError(RuntimeError):
    """A job exhausted its retry budget without a re-raisable cause."""

    def __init__(self, message: str, results: list["JobResult"] | None = None) -> None:
        super().__init__(message)
        self.results = results or []


class DeadlineExceededError(TimeoutError):
    """The dispatch-level deadline passed before this job could run.

    Distinct from a per-job ``TimeoutError``: a deadline failure is never
    retried (the budget belongs to the whole dispatch, e.g. one service
    request), so callers see it promptly instead of work being orphaned
    past the point anyone is waiting for it.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout budget for one dispatch.

    ``retries`` is the number of *additional* attempts after the first;
    backoff before retry ``k`` is ``min(backoff * 2**(k-1), max_backoff)``
    seconds. ``timeout`` bounds each attempt inside the worker process
    (SIGALRM), surfacing as a retryable ``TimeoutError``.
    """

    retries: int = 0
    backoff: float = 0.05
    max_backoff: float = 2.0
    timeout: float | None = None
    max_pool_respawns: int = 3

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def delay(self, attempt: int) -> float:
        """Backoff before re-running a job whose ``attempt``-th try failed."""
        return min(self.backoff * (2.0 ** (attempt - 1)), self.max_backoff)


@dataclass
class JobResult:
    """Structured outcome of one job (returned with ``strict=False``)."""

    index: int
    ok: bool
    value: object = None
    error: str | None = None
    error_type: str | None = None
    attempts: int = 1
    exception: BaseException | None = field(default=None, repr=False)


# ---------------------------------------------------------------------- #
# Worker-side execution: fault directives, per-job timeout, telemetry.

def _compress_one(args) -> bytes:
    codec, arr, kwargs, mask = args
    from repro import compressor_for

    comp = compressor_for(codec)
    if mask is not None:
        return comp.compress(arr, mask=mask, **kwargs)
    return comp.compress(arr, **kwargs)


def _decompress_one(blob: bytes) -> np.ndarray:
    from repro import decompress

    return decompress(blob)


def _raise_job_timeout(signum, frame):  # pragma: no cover - async signal
    raise TimeoutError("per-job timeout exceeded")


def _apply_job_faults(directive: JobFaults | None, attempt: int, *,
                      in_worker: bool) -> None:
    """Apply planned fault directives for this attempt.

    In a pool worker an injected crash is a *hard* death (``os._exit``) so
    the dispatcher sees the real ``BrokenProcessPool`` recovery path; in
    serial execution it degrades to :class:`FaultInjectedError` (we cannot
    kill the caller).
    """
    if directive is None:
        return
    if attempt <= directive.crash_attempts:
        if in_worker:
            os._exit(86)
        raise FaultInjectedError(
            f"injected crash (attempt {attempt}/{directive.crash_attempts})")
    if directive.delay > 0.0:
        time.sleep(directive.delay)


_timeout_fallback_lock = threading.Lock()
_timeout_fallback_warned = False


def _warn_timeout_fallback() -> None:
    """One-shot warning that SIGALRM preemption is unavailable here."""
    global _timeout_fallback_warned
    obs.inc_counter("parallel.timeout_unenforced")
    with _timeout_fallback_lock:
        if _timeout_fallback_warned:
            return
        _timeout_fallback_warned = True
    warnings.warn(
        "per-job timeout requested off the main thread: SIGALRM cannot "
        "preempt here, so the deadline is enforced post-hoc (the attempt "
        "runs to completion, then raises TimeoutError if it overran)",
        RuntimeWarning, stacklevel=3)


def _run_attempt(fn, payload, directive: JobFaults | None, attempt: int,
                 timeout: float | None, *, in_worker: bool):
    """One attempt of one job: faults, then timeout-bounded work.

    On the main thread the timeout preempts the attempt via SIGALRM.
    Off the main thread (service threads, pytest workers) signals are
    unavailable; instead of silently skipping the budget — the old,
    buggy behaviour — the attempt is checked against a monotonic
    deadline when it returns, so an overrunning job still surfaces as a
    retryable ``TimeoutError`` (counted in ``parallel.timeout_unenforced``
    because it could not be cut short in flight).
    """
    use_alarm = (timeout is not None
                 and threading.current_thread() is threading.main_thread())
    deadline = None
    if timeout is not None and not use_alarm:
        _warn_timeout_fallback()
        deadline = time.monotonic() + timeout
    old_handler = None
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _raise_job_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _apply_job_faults(directive, attempt, in_worker=in_worker)
        result = fn(payload)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError(
            "per-job timeout exceeded (enforced post-hoc: SIGALRM is "
            "unavailable off the main thread)")
    return result


def _worker_call(fn, payload, directive: JobFaults | None, attempt: int,
                 timeout: float | None, traced: bool, in_worker: bool):
    """Executor entry: run one attempt, optionally shipping telemetry."""
    if not traced:
        return _run_attempt(fn, payload, directive, attempt, timeout,
                            in_worker=in_worker), None, None
    with obs.run(tags={"role": "worker"}) as run:
        with obs.span("worker", attempt=attempt):
            out = _run_attempt(fn, payload, directive, attempt, timeout,
                               in_worker=in_worker)
    return out, run.span_records(), run.metrics.snapshot()


# ---------------------------------------------------------------------- #
# Dispatcher-side engine.

def _plan_directives(faults: FaultInjector | None, scope: str,
                     n: int) -> list[JobFaults | None]:
    """Plan per-job fault directives up front (deterministic, counted)."""
    if faults is None:
        return [None] * n
    directives: list[JobFaults | None] = []
    for i in range(n):
        d = faults.job_faults(scope, i)
        if d.crash_attempts:
            obs.inc_counter("faults.crash_planned")
        if d.delay:
            obs.inc_counter("faults.slow_planned")
        directives.append(d if d.any else None)
    return directives


def _resolve_policy(retries, retry_backoff, timeout) -> RetryPolicy:
    kwargs = {}
    if retries is not None:
        kwargs["retries"] = int(retries)
    if retry_backoff is not None:
        kwargs["backoff"] = float(retry_backoff)
    if timeout is not None:
        kwargs["timeout"] = float(timeout)
    return RetryPolicy(**kwargs)


def _resolve_faults(faults) -> FaultInjector | None:
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, str):
        return parse_fault_spec(faults)
    raise TypeError("faults must be a FaultInjector or a spec string")


def _resolve_deadline(deadline) -> float | None:
    """``deadline`` (seconds from now) -> absolute ``time.monotonic()`` stamp."""
    if deadline is None:
        return None
    deadline = float(deadline)
    if deadline <= 0:
        raise ValueError("deadline must be positive seconds from now")
    return time.monotonic() + deadline


def _clamp_timeout(timeout: float | None, deadline_at: float | None,
                   now: float) -> float | None:
    """Bound a per-attempt timeout by the time left until the deadline."""
    if deadline_at is None:
        return timeout
    remaining = max(deadline_at - now, 0.001)
    return remaining if timeout is None else min(timeout, remaining)


def _failure(index: int, attempts: int, exc: BaseException | None,
             reason: str | None = None) -> JobResult:
    obs.inc_counter("parallel.job_failures")
    return JobResult(
        index=index, ok=False,
        error=reason or f"{type(exc).__name__}: {exc}",
        error_type=type(exc).__name__ if exc is not None else "WorkerCrash",
        attempts=attempts, exception=exc,
    )


class _InlineExecutor:
    """Executor whose ``submit()`` runs the attempt now, in the calling thread.

    It stands in for the process pool when ``workers`` is unset, so serial
    dispatch goes through the same job loop; the returned future is
    already completed.
    """

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        # job boundary: ANY failure must become a JobResult record (or a
        # retry) so one bad chunk cannot abort its siblings; narrowing this
        # catch would turn unexpected errors into lost work.
        try:
            fut.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


def _run_jobs(fn, payloads, *, workers, policy: RetryPolicy,
              faults: FaultInjector | None, scope: str, dispatch,
              directives: list[JobFaults | None] | None = None,
              deadline_at: float | None = None) -> list[JobResult]:
    """Dispatch ``payloads`` with retries, requeue, and pool respawn.

    ``workers`` alone picks the executor: a ``ProcessPoolExecutor`` of that
    many workers, or (unset) an inline executor that runs each attempt in
    the calling thread — one loop drives both.

    A hard worker death breaks the whole pool: every in-flight future
    raises ``BrokenProcessPool``. We respawn the pool once per break
    (bounded by ``policy.max_pool_respawns``) and requeue only unfinished
    jobs — the innocent in-flight jobs consume a retry each, which keeps
    a persistently crashing job from respawning the pool forever.

    ``deadline_at`` (absolute ``time.monotonic()``) bounds the *whole*
    dispatch: once it passes, queued jobs fail with
    :class:`DeadlineExceededError`, unstarted futures are cancelled, and
    running workers are cut short by their clamped per-attempt timeout —
    nothing keeps computing for a caller that has stopped waiting. A
    failure seen at or after the deadline is final, never requeued.

    ``directives`` overrides the internally planned fault directives —
    multi-wave dispatchers (``compress_chunked``) plan once for the whole
    logical job set and pass each wave its slice, so ``only=N`` fault
    clauses keep addressing the logical job index.
    """
    if directives is None:
        directives = _plan_directives(faults, scope, len(payloads))
    run = obs.get_run()
    # inline attempts record spans straight into the parent run
    traced = bool(workers) and run is not None
    capacity = 2 * workers if workers else 1
    n = len(payloads)
    results: list[JobResult | None] = [None] * n
    ready: deque[tuple[int, int]] = deque((i, 1) for i in range(n))
    delayed: list[tuple[float, int, int]] = []  # (ready_time, index, attempt)
    pool = ProcessPoolExecutor(max_workers=workers) if workers else _InlineExecutor()
    in_flight: dict = {}
    respawns = 0

    def expired() -> bool:
        return deadline_at is not None and time.monotonic() >= deadline_at

    def requeue_or_fail(i: int, attempt: int, exc: BaseException | None,
                        reason: str | None = None, *, count_retry: bool = True) -> None:
        if expired():
            obs.inc_counter("parallel.deadline_exceeded")
            # a timeout at the deadline IS the deadline firing: surface it
            # as such so callers (the service's 504 mapping) need not guess
            # from a bare TimeoutError
            if isinstance(exc, TimeoutError) and not isinstance(
                    exc, DeadlineExceededError):
                wrapped = DeadlineExceededError(
                    "dispatch deadline exceeded during the attempt")
                wrapped.__cause__ = exc
                exc = wrapped
        elif attempt <= policy.retries:
            if count_retry:
                obs.inc_counter("parallel.retries")
            heapq.heappush(delayed,
                           (time.monotonic() + policy.delay(attempt), i, attempt + 1))
            return
        results[i] = _failure(i, attempt, exc, reason)

    try:
        while ready or delayed or in_flight:
            now = time.monotonic()
            if expired():
                exc = DeadlineExceededError(
                    "dispatch deadline exceeded before the job could run")
                unstarted = list(ready) + [(di, da) for _, di, da in delayed]
                for fut, (i, attempt, _t_submit) in list(in_flight.items()):
                    if fut.cancel():
                        del in_flight[fut]
                        unstarted.append((i, attempt))
                for i, attempt in unstarted:
                    obs.inc_counter("parallel.deadline_exceeded")
                    results[i] = _failure(i, attempt - 1, exc)
                ready.clear()
                delayed.clear()
                # running attempts end by their clamped timeout; collect them
            while delayed and delayed[0][0] <= now:
                _, i, attempt = heapq.heappop(delayed)
                ready.append((i, attempt))
            pool_broken = False
            while ready and len(in_flight) < capacity:
                i, attempt = ready.popleft()
                t_submit = time.monotonic()
                try:
                    fut = pool.submit(_worker_call, fn, payloads[i],
                                      directives[i], attempt,
                                      _clamp_timeout(policy.timeout, deadline_at,
                                                     t_submit),
                                      traced, bool(workers))
                except BrokenProcessPool:
                    ready.appendleft((i, attempt))
                    pool_broken = True
                    break
                in_flight[fut] = (i, attempt, t_submit)
            if traced:
                # live queue health: the gauge holds the latest depth for scrapes
                obs.set_gauge("parallel.queue_depth",
                              len(ready) + len(delayed) + len(in_flight))
            if in_flight and not pool_broken:
                done, _ = wait(set(in_flight), timeout=0.1,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    i, attempt, t_submit = in_flight.pop(fut)
                    try:
                        out, spans, metrics = fut.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        obs.inc_counter("parallel.worker_crashes")
                        requeue_or_fail(i, attempt, None,
                                        "worker process died (BrokenProcessPool)",
                                        count_retry=False)
                    # the future's exception (whatever its type — pickled
                    # worker error, timeout, codec bug) is recorded or
                    # retried, never raised past the dispatcher while other
                    # jobs are in flight.
                    except Exception as exc:  # noqa: BLE001
                        if isinstance(exc, TimeoutError):
                            obs.inc_counter("parallel.timeouts")
                        requeue_or_fail(i, attempt, exc)
                    else:
                        if spans:
                            run.absorb(spans, metrics, reparent_to=dispatch)
                        obs.inc_counter("parallel.jobs_ok")
                        obs.observe("parallel.job_attempts", attempt)
                        obs.observe_latency("parallel.job",
                                            time.monotonic() - t_submit)
                        obs.inc_counter("parallel.jobs")
                        results[i] = JobResult(index=i, ok=True, value=out,
                                               attempts=attempt)
            elif not in_flight:
                # everything is waiting out a backoff window
                time.sleep(min(0.05, max(0.0, delayed[0][0] - now)) if delayed else 0.001)
            if pool_broken:
                respawns += 1
                obs.inc_counter("parallel.pool_respawns")
                # the break also killed every other in-flight job: requeue them
                for _fut, (i, attempt, _t_submit) in list(in_flight.items()):
                    obs.inc_counter("parallel.crash_requeues")
                    requeue_or_fail(i, attempt, None,
                                    "requeued after pool crash", count_retry=False)
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                if respawns > policy.max_pool_respawns:
                    for i, attempt in list(ready) + [(di, da) for _, di, da in delayed]:
                        results[i] = _failure(
                            i, attempt, None,
                            f"pool respawn budget exhausted ({respawns - 1})")
                    ready.clear()
                    delayed.clear()
                    break
                pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for i, r in enumerate(results):
        if r is None:  # defensive: dispatch aborted before the job finished
            results[i] = _failure(i, 0, None, "job never completed")
    return results  # type: ignore[return-value]


def _finalize(results: list[JobResult], strict: bool, what: str):
    """Strict mode: re-raise the first failure's original cause; otherwise
    hand the structured results back to the caller."""
    if not strict:
        return results
    for r in results:
        if not r.ok:
            if r.exception is not None:
                raise type(r.exception)(
                    f"{what} job {r.index} failed after {r.attempts} attempt(s): "
                    f"{r.exception}") from r.exception
            raise ParallelJobError(
                f"{what} job {r.index} failed after {r.attempts} attempt(s): "
                f"{r.error}", results)
    return [r.value for r in results]


def _inject_storage_faults(blobs: list[bytes], faults: FaultInjector | None,
                           scope: str, indices: list[int] | None = None) -> list[bytes]:
    """Apply deterministic bit rot (bitflip/truncate clauses) to blobs.

    ``indices`` gives each blob's logical job index (default: its position).
    """
    if faults is None:
        return blobs
    out = []
    for i, blob in zip(indices or range(len(blobs)), blobs):
        corrupted, events = faults.corrupt_blob(blob, f"{scope}.{i}", index=i)
        for event in events:
            obs.inc_counter(f"faults.{event['fault']}_injected")
        out.append(corrupted)
    return out


# ---------------------------------------------------------------------- #
def _chunk_slices(n: int, n_chunks: int) -> list[slice]:
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


# ---------------------------------------------------------------------- #
# Zero-copy chunk dispatch: pool workers receive a (name, shape, dtype,
# slice) descriptor into one parent-owned shared-memory segment instead of
# a pickled ndarray copy of their chunk.

@dataclass(frozen=True)
class _ShmSlice:
    """Descriptor of one chunk inside a shared-memory array segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    axis: int
    start: int
    stop: int


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without tracker double-accounting.

    Only the creating (parent) process may unlink. Before Python 3.13 an
    attaching process auto-registers the segment with a resource tracker
    too; under a non-fork start method that is the *worker's own*
    tracker, which would unlink the segment at worker exit — undo the
    registration (3.13+ has ``track=False`` for exactly this). Forked
    workers share the parent's tracker, where the attach-register is an
    idempotent set-add cleaned up by the parent's final ``unlink()`` —
    unregistering there would instead erase the parent's entry.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        seg = shared_memory.SharedMemory(name=name)
        try:
            import multiprocessing

            if multiprocessing.get_start_method() != "fork":
                from multiprocessing import resource_tracker

                resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker layout differs
            pass
        return seg


def _chunk_array(payload) -> np.ndarray:
    """Materialize a chunk payload: ndarray view or shared-memory slice."""
    if not isinstance(payload, _ShmSlice):
        return payload
    seg = _attach_shm(payload.name)
    try:
        full = np.ndarray(payload.shape, dtype=np.dtype(payload.dtype),
                          buffer=seg.buf)
        sel = (slice(None),) * payload.axis + (slice(payload.start, payload.stop),)
        # .copy() (never ascontiguousarray: a contiguous slice would come
        # back as a *view*) — the bytes must be owned before close() unmaps
        # the segment out from under the codec.
        out = full[sel].copy()
        del full
        return out
    finally:
        seg.close()


class _ShmArena:
    """Parent-side shared-memory segments with guaranteed unlink.

    ``share()`` copies an array into a fresh segment once; ``close()``
    (in the dispatcher's ``finally``) closes and unlinks every segment,
    so no exit path — strict-mode raise, worker crash, timeout, fault
    injection — leaks a ``/dev/shm`` entry. The parent's resource
    tracker is the backstop if the parent itself dies mid-dispatch.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def share(self, arr: np.ndarray) -> tuple[str, tuple[int, ...], str]:
        seg = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        self._segments.append(seg)
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
        return seg.name, arr.shape, arr.dtype.str

    def close(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
            finally:
                seg.unlink()
        self._segments.clear()


def _compress_chunk(args):
    """Worker entry for one chunk: materialize, activate codebooks, compress.

    Returns ``(blob, cache_state)`` — ``cache_state`` is the recorded
    codebook snapshot for the first chunk (``cache_state`` argument
    ``None``) and ``None`` for reuse-mode chunks.
    """
    codec, payload, kwargs, mask_payload, cache_state = args
    from repro import compressor_for
    from repro.encoding.codebook import CodebookCache, activate

    arr = _chunk_array(payload)
    mask = _chunk_array(mask_payload) if mask_payload is not None else None
    comp = compressor_for(codec)
    cache = CodebookCache(cache_state)
    with activate(cache):
        if mask is not None:
            blob = comp.compress(arr, mask=mask, **kwargs)
        else:
            blob = comp.compress(arr, **kwargs)
    return blob, (cache.state() if cache.recording else None)


def compress_chunked(data: np.ndarray, codec: str = "cliz", *, axis: int = 0,
                     n_chunks: int = 4, workers: int | None = None,
                     mask: np.ndarray | None = None,
                     retries: int | None = None, retry_backoff: float | None = None,
                     timeout: float | None = None,
                     deadline: float | None = None,
                     faults: FaultInjector | str | None = None,
                     **codec_kwargs) -> bytes:
    """Compress ``data`` as independent chunks along ``axis``.

    ``workers=None`` runs serially (deterministic, no pool overhead);
    ``workers=k`` uses a process pool of ``k`` workers. Extra keyword
    arguments (``abs_eb=...`` / ``rel_eb=...``) pass through to the codec.
    ``retries``/``retry_backoff``/``timeout`` configure the per-job
    :class:`RetryPolicy`; ``deadline`` (seconds from the call) bounds the
    whole dispatch — past it, unfinished jobs fail with
    :class:`DeadlineExceededError` instead of computing for nobody (the
    service propagates per-request deadlines through this). ``faults``
    injects deterministic failures (worker crash/slow directives apply
    per chunk job, bitflip/truncate clauses corrupt the stored chunk
    blobs — for exercising salvage).

    Dispatch happens in two waves with identical output either way:
    chunk 0 is compressed in the dispatching process first, recording its
    Huffman codebooks; the remaining chunks (pool or serial) reuse those
    books when still decodable instead of rebuilding per chunk
    (``huffman.codebook_*`` counters record the decisions). Pool workers
    receive zero-copy :class:`_ShmSlice` descriptors into one
    shared-memory copy of ``data`` rather than per-chunk pickled arrays;
    the segments are unlinked on every exit path. A ``crash`` fault
    directive for chunk 0 therefore degrades to an in-process
    :class:`~repro.faults.FaultInjectedError` (as in serial dispatch);
    directives for later chunks still kill real pool workers.

    Relative bounds are resolved *per chunk* by the codec; to keep one
    global bound across chunks, pass ``abs_eb``.
    """
    arr = check_array(data)
    mask = check_mask(mask, arr.shape)
    if not 0 <= axis < arr.ndim:
        raise ValueError(f"axis {axis} out of range for {arr.ndim}D data")
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    faults = _resolve_faults(faults)
    policy = _resolve_policy(retries, retry_backoff, timeout)
    deadline_at = _resolve_deadline(deadline)
    slices = _chunk_slices(arr.shape[axis], n_chunks)
    take = lambda a, sl: a[(slice(None),) * axis + (sl,)]  # noqa: E731  (view)
    kwargs = dict(codec_kwargs)
    directives = _plan_directives(faults, "chunk", len(slices))
    use_pool = bool(workers) and len(slices) > 1
    arena = _ShmArena()
    try:
        with obs.span("compress_chunked", nbytes=arr.nbytes, codec=codec,
                      n_chunks=len(slices), workers=workers or 0) as dispatch:
            # Wave 1: chunk 0 in-process, recording its codebooks.
            first_job = (codec, take(arr, slices[0]), kwargs,
                         take(mask, slices[0]) if mask is not None else None,
                         None)
            first = _run_jobs(_compress_chunk, [first_job], workers=None,
                              policy=policy, faults=faults, scope="chunk",
                              dispatch=dispatch, directives=directives[:1],
                              deadline_at=deadline_at)
            blob0, cache_state = _finalize(first, True, "compress_chunked")[0]
            blobs = [blob0]
            # Wave 2: remaining chunks reuse the frozen codebooks; pool
            # workers read their slice from shared memory.
            if len(slices) > 1:
                if use_pool:
                    arr_ref = arena.share(arr)
                    mask_ref = arena.share(mask) if mask is not None else None
                    payload = lambda ref, sl: _ShmSlice(  # noqa: E731
                        ref[0], ref[1], ref[2], axis, sl.start, sl.stop)
                else:
                    payload = lambda _ref, sl: take(arr, sl)  # noqa: E731
                    arr_ref = mask_ref = None
                rest_jobs = []
                for sl in slices[1:]:
                    m = None
                    if mask is not None:
                        m = (payload(mask_ref, sl) if use_pool
                             else take(mask, sl))
                    rest_jobs.append((codec, payload(arr_ref, sl), kwargs, m,
                                      cache_state))
                rest = _run_jobs(_compress_chunk, rest_jobs, workers=workers,
                                 policy=policy, faults=faults, scope="chunk",
                                 dispatch=dispatch, directives=directives[1:],
                                 deadline_at=deadline_at)
                for r in rest:  # report logical chunk numbers on failure
                    r.index += 1
                blobs += [value[0] for value in
                          _finalize(rest, True, "compress_chunked")]
    finally:
        arena.close()
    blobs = _inject_storage_faults(blobs, faults, "chunk")

    container = Container(_CODEC, {
        "inner_codec": codec,
        "axis": axis,
        "n_chunks": len(blobs),
        "shape": list(arr.shape),
    })
    for i, blob in enumerate(blobs):
        container.add_section(f"chunk{i}", blob)
    return container.to_bytes()


def _validate_chunked_header(header: dict) -> tuple[int, int, list[int]]:
    """Validate the chunked-container header before trusting any field.

    A tampered header must fail here with a clear :class:`ValueError`
    (:class:`CorruptStreamError`), not as a bare ``KeyError: 'chunk1'`` or
    a bogus ``np.concatenate`` axis error deep in reassembly.
    """
    def _int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    n_chunks = header.get("n_chunks")
    if not _int(n_chunks) or n_chunks < 1:
        raise CorruptStreamError(
            f"chunked header: n_chunks must be a positive int, got {n_chunks!r}")
    shape = header.get("shape")
    if (not isinstance(shape, list) or not shape
            or not all(_int(s) and s > 0 for s in shape)):
        raise CorruptStreamError(
            f"chunked header: shape must be a list of positive ints, got {shape!r}")
    axis = header.get("axis")
    if not _int(axis) or not 0 <= axis < len(shape):
        raise CorruptStreamError(
            f"chunked header: axis {axis!r} invalid for {len(shape)}D shape")
    if n_chunks > shape[axis]:
        raise CorruptStreamError(
            f"chunked header: {n_chunks} chunks along axis {axis} of size {shape[axis]}")
    return n_chunks, axis, shape


def _nan_fill(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    chunk = np.empty(shape, dtype=dtype)
    if np.issubdtype(dtype, np.inexact):
        chunk.fill(np.nan)
    else:
        chunk.fill(0)
    return chunk


def decompress_chunked(blob: bytes, workers: int | None = None, *,
                       salvage: bool = False,
                       retries: int | None = None, retry_backoff: float | None = None,
                       timeout: float | None = None,
                       deadline: float | None = None,
                       faults: FaultInjector | str | None = None):
    """Inverse of :func:`compress_chunked`.

    With ``salvage=True`` corruption no longer aborts the read: chunks
    that are missing, fail their section CRC, or fail to decode come back
    NaN-filled (zero-filled for integer dtypes), and the return value is
    a ``(array, SalvageReport)`` tuple instead of the bare array.
    """
    faults = _resolve_faults(faults)
    policy = _resolve_policy(retries, retry_backoff, timeout)
    deadline_at = _resolve_deadline(deadline)
    container = Container.from_bytes(blob, salvage=salvage)
    if container.codec != _CODEC:
        raise ValueError(f"not a chunked stream (codec {container.codec!r})")
    n_chunks, axis, shape = _validate_chunked_header(container.header)
    slices = _chunk_slices(shape[axis], n_chunks)
    if len(slices) != n_chunks:
        raise CorruptStreamError(
            f"chunked header: n_chunks {n_chunks} inconsistent with shape {shape}")
    report = SalvageReport(codec=_CODEC, total=n_chunks)

    chunk_blobs: list[bytes | None] = []
    for i in range(n_chunks):
        name = f"chunk{i}"
        if not container.has_section(name):
            if not salvage:
                raise CorruptStreamError(f"chunked stream is missing section {name!r}")
            chunk_blobs.append(None)
            report.add(name, "missing", "section absent (truncated container)")
            continue
        try:
            chunk_blobs.append(container.section(name))
        except CorruptStreamError as exc:
            # only reachable in salvage mode (strict parse raised earlier)
            chunk_blobs.append(None)
            report.add(name, "crc", str(exc))

    present = [(i, b) for i, b in enumerate(chunk_blobs) if b is not None]
    with obs.span("decompress_chunked", nbytes=len(blob), salvage=salvage,
                  workers=workers or 0) as dispatch:
        results = _run_jobs(_decompress_one, [b for _, b in present],
                            workers=workers, policy=policy, faults=faults,
                            scope="unchunk", dispatch=dispatch,
                            deadline_at=deadline_at)
    chunks: list[np.ndarray | None] = [None] * n_chunks
    for (i, _), result in zip(present, results):
        if result.ok:
            chunks[i] = result.value
        else:
            if not salvage:
                return _finalize([result], True, "decompress_chunked")
            report.add(f"chunk{i}", "decode", result.error or "decode failed")

    dtype = next((c.dtype for c in chunks if c is not None), np.dtype(np.float64))
    if not np.issubdtype(dtype, np.inexact) and any(c is None for c in chunks):
        report.notes.append(f"integer dtype {dtype}: failed chunks zero-filled")
    for i, sl in enumerate(slices):
        chunk_shape = (*shape[:axis], sl.stop - sl.start, *shape[axis + 1:])
        if chunks[i] is not None and chunks[i].shape != chunk_shape:
            if not salvage:
                raise CorruptStreamError(
                    f"chunk {i} decoded to shape {chunks[i].shape}, "
                    f"expected axis-{axis} slice of {shape}")
            report.add(f"chunk{i}", "decode",
                       f"decoded to wrong shape {chunks[i].shape}")
            chunks[i] = None
        if chunks[i] is None:
            chunks[i] = _nan_fill(chunk_shape, dtype)

    out = np.concatenate(chunks, axis=axis)
    if list(out.shape) != shape:
        raise CorruptStreamError("chunked stream reassembled to the wrong shape")
    if salvage:
        obs.inc_counter("salvage.reads")
        obs.inc_counter("salvage.chunks_failed", len(report.failures))
        obs.inc_counter("salvage.chunks_recovered", n_chunks - len(report.failures))
        return out, report
    return out


def compress_many(arrays: list[np.ndarray], codec: str = "cliz", *,
                  workers: int | None = None, masks: list | None = None,
                  retries: int | None = None, retry_backoff: float | None = None,
                  timeout: float | None = None,
                  deadline: float | None = None,
                  faults: FaultInjector | str | None = None,
                  strict: bool = True, **codec_kwargs):
    """Compress independent arrays concurrently (one file per core).

    Arrays and masks are validated up front (same checks as a direct
    ``compress`` call), so malformed input fails fast in the caller with a
    clear message instead of surfacing as a pickled traceback from a pool
    worker after processes have already been spawned.

    Failed jobs are retried per the :class:`RetryPolicy`; a worker-process
    death respawns the pool and requeues unfinished jobs. With
    ``strict=False`` the return value is a list of :class:`JobResult`
    (one per array, ``.value`` holding the blob) instead of raising on
    the first exhausted job.
    """
    if masks is not None and len(masks) != len(arrays):
        raise ValueError("masks must align with arrays")
    faults = _resolve_faults(faults)
    policy = _resolve_policy(retries, retry_backoff, timeout)
    deadline_at = _resolve_deadline(deadline)
    jobs = []
    for i, a in enumerate(arrays):
        try:
            arr = check_array(a)
            m = None if masks is None else check_mask(masks[i], arr.shape)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"array {i}: {exc}") from None
        jobs.append((codec, arr, dict(codec_kwargs), m))
    with obs.span("compress_many", codec=codec, n_arrays=len(jobs),
                  workers=workers or 0) as dispatch:
        results = _run_jobs(_compress_one, jobs, workers=workers, policy=policy,
                            faults=faults, scope="many", dispatch=dispatch,
                            deadline_at=deadline_at)
    out = _finalize(results, strict, "compress_many")
    if strict:
        return _inject_storage_faults(out, faults, "many")
    ok = [r for r in out if r.ok]
    blobs = _inject_storage_faults([r.value for r in ok], faults, "many",
                                   [r.index for r in ok])
    for r, blob in zip(ok, blobs):
        r.value = blob
    return out


def decompress_many(blobs: list[bytes], workers: int | None = None, *,
                    retries: int | None = None, retry_backoff: float | None = None,
                    timeout: float | None = None,
                    deadline: float | None = None,
                    faults: FaultInjector | str | None = None,
                    strict: bool = True):
    """Inverse of :func:`compress_many` (same resilience knobs)."""
    faults = _resolve_faults(faults)
    policy = _resolve_policy(retries, retry_backoff, timeout)
    deadline_at = _resolve_deadline(deadline)
    with obs.span("decompress_many", n_blobs=len(blobs),
                  workers=workers or 0) as dispatch:
        results = _run_jobs(_decompress_one, list(blobs), workers=workers,
                            policy=policy, faults=faults, scope="unmany",
                            dispatch=dispatch, deadline_at=deadline_at)
    return _finalize(results, strict, "decompress_many")
