"""The benchmark's workloads and the checks on their outputs.

Every workload builds its inputs from the seed with the seeded
``repro.datasets`` generators, checks every output it gets back, and
records one :class:`Op` per top-level operation. ``run.py`` turns the
ops into the end-to-end metrics.

Why each workload exists is written down in ``README.md`` next to this
file.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import multiprocessing
import shutil
import statistics
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
# Layer entry points are called through their modules or classes, never
# bound here by name, so the tracer's wrappers see these calls too.
from repro import parallel
from repro.core import AutoTuner, CliZ
from repro.datasets import cesm_t, hurricane_t, ssh
from repro.service.app import ServiceConfig, ServiceServer

from layers import Recorder, Tracer

REL_EB = 1e-3
#: Per-client admission rate set on the in-process server. It is far above
#: what two closed-loop clients can send, so the token bucket (default
#: 50 req/s) never shapes the load.
ADMISSION_RATE = 1e6
ADMISSION_BURST = 1_000_000
#: Where the service's temporary blob stores go: inside the checkout, the
#: only place the benchmark may write.
TMP_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


@dataclass
class Op:
    """One top-level operation as the caller saw it."""

    kind: str  # e.g. "SSH/compress"; latency percentiles are per kind
    role: str  # compress | decompress | tune | estimate
    start: float
    seconds: float
    nbytes: int  # raw array bytes the operation took in or gave back
    ok: bool
    traced: bool = False
    scale: float = 1.0  # host-speed factor measured next to this op

    @property
    def norm(self) -> float:
        """Seconds on the reference host (see :class:`SpeedProbe`)."""
        return self.seconds * self.scale


@dataclass
class Outcome:
    """What one measured run produced, besides its ops."""

    ops: list[Op] = field(default_factory=list)
    wall: float = 0.0  # seconds of the measured period
    raw_bytes: int = 0  # for ratio: input bytes ...
    stored_bytes: int = 0  # ... over bytes stored for them
    solve: dict[str, list[float]] = field(default_factory=dict)
    digest: str = ""
    digest_items: int = 0
    failures: list[str] = field(default_factory=list)
    overshoots: list[float] = field(default_factory=list)  # strict-bound excess, relative
    extra_layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    traced_units: int = 0  # rounds or requests measured under the tracer
    trace_overhead: float = 0.0  # traced over untraced time per unit, minus 1
    round_seconds: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Host speed

class SpeedProbe:
    """Host speed, read from the CPU time of a fixed job.

    Other tenants of a shared host slow this whole process for seconds
    at a time: a fixed CPU job measured 33 to 58 ms across runs on one
    2-core VM, and its CPU time moved with its wall time, so the process
    is not descheduled but runs slower. Timings are therefore reported
    in reference seconds: scaled by ``REF_S`` over this job's time,
    measured right next to them. The job mixes NumPy and interpreter
    work, as the codec does. Thread CPU time keeps waits for the GIL out
    of the reading, so the probe can run beside the service's threads.
    """

    REF_S = 0.005  # the job's time on the reference host; sets the scale only

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).standard_normal(200_000)
        self.readings: list[tuple[float, float]] = []  # (perf_counter, seconds)

    def burst(self) -> float:
        c0 = time.thread_time()
        np.sort(self._data)
        acc = 0
        for i in range(40_000):
            acc += i * i
        dt = time.thread_time() - c0
        self.readings.append((time.perf_counter(), dt))
        return dt

    def scale(self, *readings: float) -> float:
        return self.REF_S / statistics.fmean(readings)

    def scale_near(self, t0: float, t1: float, slack: float = 0.3) -> float:
        """Scale from the readings taken within ``slack`` of ``[t0, t1]``."""
        near = [dt for t, dt in self.readings if t0 - slack <= t <= t1 + slack]
        if not near:
            near = [min(self.readings, key=lambda r: abs(r[0] - t1))[1]]
        return self.scale(*near)


# ---------------------------------------------------------------------- #
# Output checks

@dataclass(frozen=True)
class Bound:
    """The resolved absolute bound of one input plus the float32 slack."""

    eb: float
    half_ulp: float

    @classmethod
    def of(cls, data: np.ndarray, mask: np.ndarray | None = None,
           rel_eb: float = REL_EB) -> "Bound":
        vals = (data[mask] if mask is not None else data).astype(np.float64)
        rng = float(vals.max() - vals.min())
        eb = rel_eb * rng if rng > 0 else rel_eb
        top = np.float32(np.abs(vals).max())
        return cls(eb, float(np.spacing(top)) / 2)


def check_output(orig: np.ndarray, out, mask: np.ndarray | None, bound: Bound,
                 out_rec: Outcome, what: str) -> bool:
    """Shape, dtype and pointwise error (float64, masked points excluded).

    The limit is the resolved bound plus half a float32 ulp of the
    input's largest magnitude; going over the strict bound but not the
    limit is recorded as an overshoot, not a failure.
    """
    if not isinstance(out, np.ndarray) or out.shape != orig.shape or out.dtype != orig.dtype:
        got = (getattr(out, "shape", None), getattr(out, "dtype", None))
        out_rec.failures.append(f"{what}: got shape/dtype {got}, "
                                f"want {(orig.shape, orig.dtype)}")
        return False
    err = np.abs(out.astype(np.float64) - orig.astype(np.float64))
    if mask is not None:
        err = err[mask]
    worst = float(err.max()) if err.size else 0.0
    if not worst <= bound.eb + bound.half_ulp:  # also catches NaN
        out_rec.failures.append(f"{what}: max error {worst!r} > bound {bound.eb!r} "
                                f"+ half ulp {bound.half_ulp!r}")
        return False
    if worst > bound.eb:
        out_rec.overshoots.append((worst - bound.eb) / bound.eb)
    return True


def sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# Serial workloads: one "round" touches every input once.

class RoundWorkload:
    """Shared loop for workloads made of repeated rounds."""

    min_traced_rounds = 2
    #: Rounds cycle over this many input sets made from the seed; more
    #: inputs per run make a run's figures depend less on its seed.
    variants = 1

    def setup(self, seed: int, seconds: float) -> None:
        raise NotImplementedError

    def round(self, index: int, out: Outcome, traced: bool,
              probe: SpeedProbe) -> list[bytes]:
        """Run one round; return the blobs it stored, in order.

        Appends the round's time, in reference seconds, to
        ``out.round_seconds``.
        """
        raise NotImplementedError

    def finish(self, out: Outcome) -> None:
        """Checks that run once after the measured period."""

    def close(self) -> None:
        pass

    def run(self, seconds: float, trace: bool, recorder: Recorder,
            probe: SpeedProbe) -> Outcome:
        """Rounds until ``seconds`` have passed (whole cycles of variants).

        With ``trace``, rounds 1, 2, 5, 6, ... run under the tracer and
        rounds 0, 3, 4, 7, ... without it, so the traced and untraced
        halves see the same inputs and drift cancels out.
        """
        out = Outcome()
        first: dict[int, list[bytes]] = {}  # variant -> blobs of its first round
        times: dict[tuple[int, bool], list[float]] = {}  # (variant, traced) -> seconds
        t_start = time.perf_counter()
        deadline = t_start + seconds
        index = 0
        while True:
            traced = trace and index % 4 in (1, 2)
            if traced:
                with Tracer(recorder):
                    blobs = self.round(index, out, True, probe)
            else:
                blobs = self.round(index, out, False, probe)
            variant = index % self.variants
            times.setdefault((variant, traced), []).append(out.round_seconds[-1])
            out.traced_units += traced
            if variant not in first:
                first[variant] = blobs
                out.stored_bytes += sum(len(b) for b in blobs)
            elif blobs != first[variant]:
                out.failures.append(f"round {index}: stored bytes differ from round {variant}")
            index += 1
            enough_traced = not trace or out.traced_units >= self.min_traced_rounds
            if (time.perf_counter() >= deadline and enough_traced
                    and index % self.variants == 0):
                break
        out.wall = time.perf_counter() - t_start
        stored = [b for v in sorted(first) for b in first[v]]
        out.digest, out.digest_items = sha(stored), len(stored)
        ratios = [statistics.fmean(times[v, True]) / statistics.fmean(times[v, False])
                  for v in range(self.variants) if (v, True) in times and (v, False) in times]
        out.trace_overhead = statistics.fmean(ratios) - 1 if ratios else 0.0
        self.finish(out)
        out.info["rounds"] = index
        return out


def _fields(seed: int, names: tuple[str, ...]) -> list:
    makers = {
        "SSH": lambda: ssh(shape=(48, 40, 252), seed=seed),
        "CESM-T": lambda: cesm_t(shape=(26, 120, 240), seed=seed + 1),
        "Hurricane-T": lambda: hurricane_t(shape=(50, 140, 140), seed=seed + 2),
    }
    return [makers[n]() for n in names]


def _warm_up(fields) -> None:
    """One small round trip per field so lazy imports and caches are done."""
    for f in fields:
        sl = tuple(slice(0, min(n, 12)) for n in f.data.shape)
        mask = f.mask[sl] if f.mask is not None else None
        repro.decompress(CliZ().compress(f.data[sl], rel_eb=REL_EB, mask=mask))


class FieldRoundTrips(RoundWorkload):
    """Each round: every field raw -> blob -> checked reconstruction."""

    field_names: tuple[str, ...] = ()
    tune = False  # run the AutoTuner first and compress with its best pipeline
    variants = 3

    def setup(self, seed: int, seconds: float) -> None:
        self.sets = []
        for v in range(self.variants):
            fields = _fields(seed + 1000 * v, self.field_names)
            self.sets.append([(f, Bound.of(f.data, f.mask)) for f in fields])
        _warm_up([f for f, _ in self.sets[0]])

    def round(self, index: int, out: Outcome, traced: bool,
              probe: SpeedProbe) -> list[bytes]:
        blobs = []
        round_s = 0.0
        variant = index % self.variants
        before = probe.burst()
        for f, bound in self.sets[variant]:
            name = f"{f.name}#{variant}"
            nbytes = f.data.nbytes
            t0 = time.perf_counter()
            try:
                config = None
                if self.tune:
                    result = AutoTuner(sampling_rate=0.01, **f.tuner_kwargs()).tune(
                        f.data, rel_eb=REL_EB, mask=f.mask)
                    config = result.best
                    if index == variant:
                        out.info[f"best.{name}"] = config.describe()
                t1 = time.perf_counter()
                blob = CliZ(config).compress(f.data, rel_eb=REL_EB, mask=f.mask)
                t2 = time.perf_counter()
                recon = repro.decompress(blob)
                t3 = time.perf_counter()
                ok = check_output(f.data, recon, f.mask, bound, out, f"{name} round {index}")
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out.failures.append(f"{name} round {index}: {type(exc).__name__}: {exc}")
                out.ops.append(Op(f"{name}/error", "error", t0, time.perf_counter() - t0,
                                  nbytes, False, traced))
                blobs.append(b"")
                continue
            trip = time.perf_counter() - t0
            after = probe.burst()
            scale = probe.scale(before, after)
            before = after
            if self.tune:
                out.ops.append(Op(f"{name}/tune", "tune", t0, t1 - t0, nbytes, True,
                                  traced, scale))
            out.ops.append(Op(f"{name}/compress", "compress", t1, t2 - t1, nbytes, True,
                              traced, scale))
            out.ops.append(Op(f"{name}/decompress", "decompress", t2, t3 - t2, nbytes, ok,
                              traced, scale))
            out.solve.setdefault(name, []).append(trip * scale)
            round_s += trip * scale
            out.raw_bytes += nbytes if index == variant else 0
            blobs.append(blob)
        out.round_seconds.append(round_s)
        return blobs


class CodecFields(FieldRoundTrips):
    """Serial CliZ round trips with the default pipeline."""

    field_names = ("SSH", "CESM-T", "Hurricane-T")


class TuneCompress(FieldRoundTrips):
    """The paper's adaptive path: tune on a 1% sample, compress with the best."""

    field_names = ("SSH", "Hurricane-T")
    tune = True


class ChunkedPool(RoundWorkload):
    """Pooled chunked compress/decompress of one large field."""

    workers = 2
    n_chunks = 4

    def setup(self, seed: int, seconds: float) -> None:
        self.field = hurricane_t(shape=(100, 140, 140), seed=seed + 2)
        # one global bound for all chunks (rel_eb would resolve per chunk)
        self.bound = Bound.of(self.field.data)
        self.first_blob: bytes | None = None
        small = self.field.data[:8]
        parallel.decompress_chunked(
            parallel.compress_chunked(small, workers=self.workers, n_chunks=self.n_chunks,
                             abs_eb=self.bound.eb),
            workers=self.workers)

    def round(self, index: int, out: Outcome, traced: bool,
              probe: SpeedProbe) -> list[bytes]:
        data = self.field.data
        before = probe.burst()
        t0 = time.perf_counter()
        try:
            blob = parallel.compress_chunked(data, workers=self.workers, n_chunks=self.n_chunks,
                                    abs_eb=self.bound.eb)
            t1 = time.perf_counter()
            recon = parallel.decompress_chunked(blob, workers=self.workers)
            t2 = time.perf_counter()
            ok = check_output(data, recon, None, self.bound, out, f"round {index}")
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            out.failures.append(f"round {index}: {type(exc).__name__}: {exc}")
            out.ops.append(Op("error", "error", t0, time.perf_counter() - t0,
                              data.nbytes, False, traced))
            out.round_seconds.append(time.perf_counter() - t0)
            return [b""]
        t3 = time.perf_counter()
        scale = probe.scale(before, probe.burst())
        out.ops.append(Op("compress", "compress", t0, t1 - t0, data.nbytes, True, traced, scale))
        out.ops.append(Op("decompress", "decompress", t1, t2 - t1, data.nbytes, ok, traced,
                          scale))
        out.solve.setdefault("Hurricane-T", []).append((t3 - t0) * scale)
        out.round_seconds.append((t3 - t0) * scale)
        if index == 0:
            out.raw_bytes = data.nbytes
            self.first_blob = blob
        return [blob]

    def finish(self, out: Outcome) -> None:
        # the "same bytes serial/pooled" contract, once per run, untimed
        serial = parallel.compress_chunked(self.field.data, workers=None,
                                  n_chunks=self.n_chunks, abs_eb=self.bound.eb)
        same = serial == self.first_blob
        out.info["serial_equals_pooled"] = same
        if not same:
            out.failures.append("pooled blob differs from serial compress_chunked")

    def close(self) -> None:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, if one started.

    Pooled dispatch stages chunks in shared memory, which starts
    multiprocessing's tracker process; it would otherwise live until this
    process exits. Every segment is already unlinked by then.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


# ---------------------------------------------------------------------- #
# The service workload: concurrent closed-loop clients.

_ROW = 140  # base field row length (Hurricane-T lon)
#: 16 log-spaced request sizes from 64 KB to 1 MB, in rows of 140 float32.
_SIZES = sorted({max(1, round(2 ** (16 + 4 * k / 15) / (4 * _ROW))) for k in range(16)})
#: Request mix per block of 20 slots: compress, decompress, estimate.
_MIX = "C" * 9 + "D" * 9 + "E" * 2
_POOL_PER_SECOND = 20  # distinct compress bodies prepared per second of run
_DIGEST_ITEMS = 16


@dataclass
class _Item:
    start: int
    rows: int
    body: bytes
    bound: Bound
    key: str = ""
    stored: int = 0
    compressed: Op | None = None  # the request that stored it
    first_read: Op | None = None  # the first verified /decompress of it


class ServiceMixed:
    """An in-process ServiceServer driven by two closed-loop clients."""

    clients = 2

    def __init__(self, tmp_root: Path = TMP_ROOT) -> None:
        self.tmp_root = tmp_root
        self.server: ServiceServer | None = None
        self.store_dir: Path | None = None

    def setup(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.base = hurricane_t(shape=(100, 140, 140), seed=seed + 2).data.reshape(-1, _ROW)
        n_rows = self.base.shape[0]
        n_items = int(seconds * _POOL_PER_SECOND) + 32
        seen: set[tuple[int, int]] = set()
        self.items: list[_Item] = []
        while len(self.items) < n_items:
            for rows in rng.permutation(_SIZES):  # every size once per 16
                rows = int(rows)
                start = int(rng.integers(0, n_rows - rows + 1))
                if (start, rows) in seen:
                    continue
                seen.add((start, rows))
                arr = self.base[start:start + rows]
                self.items.append(_Item(start, rows, _body(arr), Bound.of(arr)))
        self.items = self.items[:n_items]
        self.schedule = "".join("".join(rng.permutation(list(_MIX)))
                                for _ in range(len(self.items) // 9 + 2))
        self.rng_seed = seed
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.tmp_root))
        self.server = ServiceServer(ServiceConfig(
            store_root=self.store_dir, rate=ADMISSION_RATE, burst=ADMISSION_BURST))
        self.server.start()
        # warm-up: one request per endpoint on an array outside the pool
        warm = _body(self.base[:64].reshape(32, 2 * _ROW))
        status, doc = self._post("/compress", warm)[:2]
        self._post("/decompress", json.dumps({"key": doc["key"]}).encode())
        self._post("/estimate", warm)
        if status != 200:
            raise RuntimeError(f"service warm-up failed with status {status}")

    def close(self) -> None:
        try:
            if self.server is not None:
                self.server.stop()
        finally:
            self.server = None
            if self.store_dir is not None:
                shutil.rmtree(self.store_dir, ignore_errors=True)
                self.store_dir = None
            try:
                self.tmp_root.rmdir()
            except OSError:
                pass  # not empty or already gone

    # ------------------------------------------------------------------ #
    def _post(self, path: str, body: bytes, client: int = 0):
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        try:
            t0 = time.perf_counter()
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json",
                                  "X-Client": f"perfbench-{client}"})
            resp = conn.getresponse()
            payload = resp.read()
            dt = time.perf_counter() - t0
        finally:
            conn.close()
        return resp.status, json.loads(payload), dt, t0

    def run(self, seconds: float, trace: bool, recorder: Recorder,
            probe: SpeedProbe) -> Outcome:
        """Two clients for ``seconds``; with ``trace``, the middle half traced.

        A third thread reads the host speed every 0.2 s; each request's
        time is scaled by the readings taken around it.
        """
        out = Outcome()
        lock = threading.Lock()
        state = {"slot": 0, "next": 0, "repeats": 0}
        unread: deque[int] = deque()  # compressed, not yet decompressed
        done: list[int] = []
        est_err: list[float] = []
        counts = {"rejects": 0, "body_bytes": 0}
        t_start = time.perf_counter()
        deadline = t_start + seconds
        quarter = seconds / 4
        trace_window = (t_start + quarter, t_start + 3 * quarter) if trace else (0.0, 0.0)

        def take(rng) -> tuple[str, int]:
            with lock:
                kind = self.schedule[state["slot"] % len(self.schedule)]
                state["slot"] += 1
                if kind == "D":
                    if unread:
                        return "D", unread.popleft()
                    if done:
                        return "D", done[int(rng.integers(len(done)))]
                if kind == "E" and done:
                    return "E", done[int(rng.integers(len(done)))]
                index = state["next"] % len(self.items)
                if state["next"] >= len(self.items):
                    state["repeats"] += 1
                state["next"] += 1
                return "C", index

        def one(cid: int, kind: str, index: int) -> None:
            item = self.items[index]
            if kind == "D":
                path, body = "/decompress", json.dumps({"key": item.key}).encode()
            else:
                path, body = ("/compress" if kind == "C" else "/estimate"), item.body
            status, doc, dt, t0 = self._post(path, body, cid)
            traced = trace_window[0] <= t0 < trace_window[1]
            nbytes = item.rows * _ROW * 4
            role = {"C": "compress", "D": "decompress", "E": "estimate"}[kind]
            path = f"{path}/{item.rows}"  # op kind: endpoint and size class
            with lock:
                counts["body_bytes"] += len(body)
                if status == 429:
                    counts["rejects"] += 1
            op = Op(path, role, t0, dt, nbytes, False, traced)
            out.ops.append(op)
            if not 200 <= status < 300:
                with lock:
                    out.failures.append(f"{path}: status {status} {doc.get('error')}")
                return
            ok = True
            view = self.base[item.start:item.start + item.rows]
            if kind == "C":
                ok = (doc.get("shape") == [item.rows, _ROW] and doc.get("dtype") == "<f4"
                      and doc.get("compressed_bytes", 0) > 0)
                if ok:
                    with lock:
                        if not item.key:
                            item.key, item.stored, item.compressed = \
                                doc["key"], doc["compressed_bytes"], op
                            out.raw_bytes += nbytes
                            out.stored_bytes += item.stored
                            unread.append(index)
                            done.append(index)
                else:
                    with lock:
                        out.failures.append(f"/compress item {index}: bad response {doc}")
            elif kind == "D":
                arr = doc.get("array") or {}
                recon = np.frombuffer(base64.b64decode(arr.get("data", "")),
                                      dtype=np.dtype(arr.get("dtype", "<f4")))
                if recon.size == item.rows * _ROW and arr.get("shape") == [item.rows, _ROW]:
                    recon = recon.reshape(item.rows, _ROW)
                ok = check_output(view, recon, None, item.bound, out,
                                  f"/decompress item {index}")
                with lock:
                    if ok and item.first_read is None:
                        item.first_read = op
            else:
                est = doc.get("estimated_compressed_bytes", 0)
                ok = est > 0
                with lock:
                    if ok:
                        est_err.append(abs(est - item.stored) / item.stored)
                    else:
                        out.failures.append(f"/estimate item {index}: bad response {doc}")
            op.ok = ok

        def client(cid: int) -> None:
            rng = np.random.default_rng([self.rng_seed, cid])
            while time.perf_counter() < deadline:
                kind, index = take(rng)
                try:
                    one(cid, kind, index)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    with lock:
                        out.failures.append(f"client {cid} {kind} item {index}: "
                                            f"{type(exc).__name__}: {exc}")
                        out.ops.append(Op(kind, "error", time.perf_counter(), 0.0, 0, False))

        def probing() -> None:
            while time.perf_counter() < deadline:
                probe.burst()
                time.sleep(0.2)

        threads = [threading.Thread(target=client, args=(cid,), name=f"perfbench-client-{cid}")
                   for cid in range(self.clients)]
        threads.append(threading.Thread(target=probing, name="perfbench-probe"))
        tracer = Tracer(recorder)
        try:
            for t in threads:
                t.start()
            if trace:
                _sleep_until(trace_window[0])
                tracer.install()
                _sleep_until(trace_window[1])
                tracer.remove()
            for t in threads:
                t.join(timeout=180)
        finally:
            tracer.remove()
        if any(t.is_alive() for t in threads):
            raise RuntimeError("service client did not finish")
        out.wall = time.perf_counter() - t_start

        for op in out.ops:
            op.scale = probe.scale_near(op.start, op.start + op.seconds)
        out.traced_units = sum(op.ok for op in out.ops if op.traced)
        if trace:
            untraced_units = sum(op.ok for op in out.ops if not op.traced)
            traced_wall = trace_window[1] - trace_window[0]
            if out.traced_units and untraced_units:
                # completions per second, untraced quarters over traced ones
                out.trace_overhead = ((untraced_units / (out.wall - traced_wall))
                                      / (out.traced_units / traced_wall) - 1)
        out.solve["service"] = [i.compressed.norm + i.first_read.norm for i in self.items
                                if i.compressed is not None and i.first_read is not None]
        prefix = []
        for item in self.items[:_DIGEST_ITEMS]:
            if not item.key:
                break
            prefix.append(item.key.encode())  # the key is the blob's digest
        out.digest, out.digest_items = sha(prefix), len(prefix)
        traced_latency = sum(op.seconds for op in out.ops if op.traced and op.ok)
        out.extra_layers = {
            "service.wait_s": (traced_latency - recorder.seconds("service.handler.compress")
                               - recorder.seconds("service.handler.decompress")
                               - recorder.seconds("service.handler.estimate")
                               - recorder.seconds("service.parse"), "s"),
            "service.rejects": (counts["rejects"], "count"),
            "service.blob_count_end": (self.server.store.count(), "count"),
            "service.body_mb": (counts["body_bytes"] / 1e6, "MB"),
            "service.estimate_rel_err": (statistics.median(est_err) if est_err else 0.0,
                                         "fraction"),
        }
        out.info.update(admission_rate=ADMISSION_RATE, clients=self.clients,
                        compress_repeats=state["repeats"], pool_items=len(self.items))
        return out


def _body(arr: np.ndarray) -> bytes:
    """A /compress (and /estimate) request body, encoded once in setup."""
    arr = np.ascontiguousarray(arr)
    return b"".join([
        b'{"array": {"data": "', base64.b64encode(arr.tobytes()),
        f'", "dtype": "{arr.dtype.str}", "shape": {list(arr.shape)}}}, '
        f'"rel_eb": {REL_EB}}}'.encode()])


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


WORKLOADS = {
    "codec-fields": CodecFields,
    "tune-compress": TuneCompress,
    "service-mixed": ServiceMixed,
    "chunked-pool": ChunkedPool,
}


def live_children() -> list[int]:
    """PIDs of every live descendant of this process, from ``/proc``."""
    import os

    parent_of: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the command name may hold spaces; fields resume after its ')'
        fields = stat[stat.rindex(")") + 2:].split()
        parent_of[int(entry.name)] = int(fields[1])
    me, found = os.getpid(), []
    for pid in parent_of:
        p = parent_of.get(pid)
        while p is not None and p > 1:
            if p == me:
                found.append(pid)
                break
            p = parent_of.get(p)
    return sorted(found)


def listening_sockets() -> list[int]:
    """Inodes of the TCP sockets this process holds in the LISTEN state."""
    import os

    mine = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed while we looked
        if target.startswith("socket:["):
            mine.add(int(target[len("socket:["):-1]))
    found = []
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue  # no IPv6 table on this host
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and int(fields[9]) in mine:  # 0A: LISTEN
                found.append(int(fields[9]))
    return sorted(found)


def leftovers() -> list[str]:
    """Everything a finished workload must not leave behind."""
    problems = []
    if multiprocessing.active_children():
        problems.append(f"multiprocessing children: {multiprocessing.active_children()}")
    if live_children():
        problems.append(f"descendant processes: {live_children()}")
    if listening_sockets():
        problems.append(f"listening sockets (inodes): {listening_sockets()}")
    threads = [t.name for t in threading.enumerate()
               if t.name.startswith(("repro-service", "perfbench-"))]
    if threads:
        problems.append(f"threads: {threads}")
    return problems
