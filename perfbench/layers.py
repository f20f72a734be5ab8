"""Per-layer tracing from outside the program.

The benchmark measures end-to-end numbers untraced. For the per-layer
breakdown it wraps the public entry points of each layer with timing
wrappers installed from here, so nothing under ``src/`` changes.

Callers import these names directly (``from repro.encoding.lz import
lz_compress``), so a wrapper has to replace the name in every module that
holds a reference to the original, not only in the defining module.
:class:`Tracer` scans the loaded ``repro`` modules for such references,
patches each one, and restores every original on :meth:`Tracer.remove`
-- also when the traced code raised.

Spans are aggregated in memory by ``(name, nearest traced parent)``, with
inclusive and self time, per thread.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Module-level functions to wrap: (defining module, name, span name).
FUNCTIONS = [
    ("repro.prediction.interpolation", "interp_compress", "prediction.interp_compress"),
    ("repro.prediction.interpolation", "interp_decompress", "prediction.interp_decompress"),
    ("repro.encoding.lz", "lz_compress", "encoding.lz.compress"),
    ("repro.encoding.lz", "lz_decompress", "encoding.lz.decompress"),
    ("repro.encoding.multihuffman", "encode_grouped", "encoding.multihuffman.encode"),
    ("repro.encoding.multihuffman", "decode_grouped", "encoding.multihuffman.decode"),
    ("repro.core.periodicity", "detect_period", "core.periodicity.detect"),
    ("repro.core.binclass", "classify_bins", "core.binclass.classify"),
    ("repro.parallel", "compress_chunked", "parallel.compress_chunked"),
    ("repro.parallel", "decompress_chunked", "parallel.decompress_chunked"),
    ("repro.service.schemas", "parse_array", "service.parse"),
    ("repro.service.schemas", "encode_array", "service.encode"),
    ("repro.service.handlers", "do_compress", "service.handler.compress"),
    ("repro.service.handlers", "do_decompress", "service.handler.decompress"),
    ("repro.service.handlers", "do_estimate", "service.handler.estimate"),
]

#: Methods to wrap on their class: (module, class, attribute, span name).
METHODS = [
    ("repro.core.compressor", "CliZ", "compress", "cliz.compress"),
    ("repro.core.autotune", "AutoTuner", "tune", "core.autotune.tune"),
    ("repro.encoding.huffman", "HuffmanCode", "encode", "encoding.huffman.encode"),
    ("repro.encoding.huffman", "HuffmanCode", "decode", "encoding.huffman.decode"),
    # every codebook build goes through from_frequencies (from_symbols
    # calls it, and so does the chunk-0 codebook recorder)
    ("repro.encoding.huffman", "HuffmanCode", "from_frequencies", "encoding.huffman.build"),
    ("repro.encoding.container", "Container", "to_bytes", "encoding.container.to_bytes"),
    ("repro.encoding.container", "Container", "from_bytes", "encoding.container.from_bytes"),
    ("repro.service.blobstore", "BlobStore", "put", "service.blob_put"),
    ("repro.service.blobstore", "BlobStore", "get", "service.blob_get"),
]

_LZ_COMPRESSED = 1  # first byte of an lz_compress block that kept its tokens


class Recorder:
    """Thread-safe span aggregates plus free-form counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        # (name, parent) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else ""
        frame = [name, 0.0]  # [name, seconds covered by child spans]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            with self._lock:
                agg = self.spans[(name, parent)]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------ #
    def calls(self, name: str, parent: str | None = None) -> int:
        return int(sum(v[0] for (n, p), v in self.spans.items()
                       if n == name and (parent is None or p == parent)))

    def seconds(self, name: str, parent: str | None = None) -> float:
        return sum(v[1] for (n, p), v in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def table(self) -> str:
        """One line per (span, parent): calls, inclusive and self seconds."""
        rows = ["span                               parent                          "
                "calls   total_s    self_s"]
        for (name, parent), (calls, total, own) in sorted(
                self.spans.items(), key=lambda kv: -kv[1][1]):
            rows.append(f"{name:34s} {parent or '-':30s} {int(calls):7d} "
                        f"{total:9.4f} {own:9.4f}")
        for name, value in sorted(self.counters.items()):
            rows.append(f"counter {name} = {value:g}")
        return "\n".join(rows)


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs timing wrappers into the loaded ``repro`` modules.

    Use as a context manager, or call :meth:`install` / :meth:`remove`.
    Installing twice without removing is an error, so a wrapper can never
    wrap another wrapper.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder or Recorder()
        self._patches: list[tuple[object, str, object]] = []
        # id(function wrapper) -> (wrapper, original); holding the wrapper
        # keeps its id from being reused while the mapping lives
        self._originals: dict[int, tuple[object, object]] = {}

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        try:
            mods = {m: importlib.import_module(m)
                    for m, *_ in FUNCTIONS + METHODS}
            loaded = _modules()
            for modname, attr, span_name in FUNCTIONS:
                original = getattr(mods[modname], attr)
                wrapper = self._wrap(original, span_name)
                self._originals[id(wrapper)] = (wrapper, original)
                for module in loaded:
                    if module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapper)
            for modname, clsname, attr, span_name in METHODS:
                cls = getattr(mods[modname], clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    wrapper = self._wrap(raw, span_name)
                self._patch(cls, attr, wrapper)
            parallel = mods["repro.parallel"]
            self._patch(parallel, "ProcessPoolExecutor",
                        self._counting_pool(parallel.ProcessPoolExecutor))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every patched attribute, newest first.

        A module imported while the wrappers were installed bound the
        wrapper itself; those references are put back too.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._originals:
            for module in _modules():
                for attr, value in list(module.__dict__.items()):
                    wrapper, original = self._originals.get(id(value), (None, None))
                    if value is wrapper:
                        setattr(module, attr, original)
            self._originals.clear()

    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _counting_pool(self, pool_cls):
        rec = self.recorder

        class CountingPool(pool_cls):
            def __init__(self, *args, **kwargs):
                rec.add("parallel.pools_started")
                super().__init__(*args, **kwargs)

        CountingPool.__name__ = pool_cls.__name__
        CountingPool.__qualname__ = pool_cls.__qualname__
        CountingPool.perfbench_span = "parallel.pools_started"
        return CountingPool

    def _wrap(self, fn, name: str):
        rec = self.recorder
        extra = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            with rec.span(name):
                out = fn(*args, **kwargs)
            if extra is not None:
                extra(rec, args, kwargs, out, time.perf_counter() - t0)
            return out

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name  # marks a tracer wrapper
        return wrapper


# ---------------------------------------------------------------------- #
# Per-span extras: counts and bytes read from a call's arguments/result.

def _lz_extra(rec, args, kwargs, out, dt):
    data = args[0] if args else kwargs["data"]
    rec.add("encoding.lz.bytes_in", len(data))
    rec.add("encoding.lz.bytes_out", len(out))
    if out[:1] == bytes((_LZ_COMPRESSED,)):
        rec.add("encoding.lz.kept")
    else:
        rec.add("encoding.lz.wasted_s", dt)


def _huffman_encode_extra(rec, args, kwargs, out, dt):
    rec.add("encoding.huffman.symbols", len(args[1]))


def _huffman_decode_extra(rec, args, kwargs, out, dt):
    rec.add("encoding.huffman.symbols", len(out[0]))


def _tune_extra(rec, args, kwargs, out, dt):
    rec.add("core.autotune.trials", len(out.trials))
    n = 1
    for side in out.sample_shape:
        n *= side
    rec.add("core.autotune.sample_kb", n * 4 / 1024)  # float32 sample


def _chunked_extra(rec, args, kwargs, out, dt):
    data = args[0] if args else kwargs["data"]
    mask = kwargs.get("mask")
    if kwargs.get("workers") and kwargs.get("n_chunks", 4) > 1:
        # computed, not measured: pooled dispatch copies the array (and
        # mask) into one shared-memory segment each
        nbytes = data.nbytes + (mask.nbytes if mask is not None else 0)
        rec.add("parallel.shm_mb", nbytes / 1e6)


_EXTRA = {
    "encoding.lz.compress": _lz_extra,
    "encoding.huffman.encode": _huffman_encode_extra,
    "encoding.huffman.decode": _huffman_decode_extra,
    "core.autotune.tune": _tune_extra,
    "parallel.compress_chunked": _chunked_extra,
}


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (name -> (value, unit)) from one traced run.

    Seconds are inclusive busy time summed over all calls in the traced
    part of the run; a layer that did not run reports 0.
    """
    s, c, k = rec.seconds, rec.calls, rec.counters
    lz_calls = c("encoding.lz.compress")
    tunes = c("core.autotune.tune")
    wave1 = s("cliz.compress", "parallel.compress_chunked")
    return {
        "prediction.interp_compress_s": (s("prediction.interp_compress"), "s"),
        "prediction.interp_decompress_s": (s("prediction.interp_decompress"), "s"),
        "prediction.calls": (c("prediction.interp_compress")
                             + c("prediction.interp_decompress"), "count"),
        "encoding.huffman.encode_s": (s("encoding.huffman.encode"), "s"),
        "encoding.huffman.decode_s": (s("encoding.huffman.decode"), "s"),
        "encoding.huffman.symbols": (k["encoding.huffman.symbols"], "count"),
        "encoding.huffman.books_built": (c("encoding.huffman.build"), "count"),
        "encoding.lz.compress_s": (s("encoding.lz.compress"), "s"),
        "encoding.lz.decompress_s": (s("encoding.lz.decompress"), "s"),
        "encoding.lz.bytes_in": (k["encoding.lz.bytes_in"], "bytes"),
        "encoding.lz.bytes_out": (k["encoding.lz.bytes_out"], "bytes"),
        "encoding.lz.kept_frac": (k["encoding.lz.kept"] / lz_calls if lz_calls else 0.0,
                                  "fraction"),
        "encoding.lz.wasted_s": (k["encoding.lz.wasted_s"], "s"),
        "encoding.container.to_bytes_s": (s("encoding.container.to_bytes"), "s"),
        "encoding.container.from_bytes_s": (s("encoding.container.from_bytes"), "s"),
        "encoding.multihuffman.encode_s": (s("encoding.multihuffman.encode"), "s"),
        "encoding.multihuffman.decode_s": (s("encoding.multihuffman.decode"), "s"),
        "core.autotune.tune_s": (s("core.autotune.tune"), "s"),
        "core.autotune.trials": (k["core.autotune.trials"], "count"),
        "core.autotune.trial_compress_s": (s("cliz.compress", "core.autotune.tune"), "s"),
        "core.autotune.sample_kb": (k["core.autotune.sample_kb"] / tunes if tunes else 0.0,
                                    "KB"),
        "core.periodicity.detect_s": (s("core.periodicity.detect"), "s"),
        "core.binclass.classify_s": (s("core.binclass.classify"), "s"),
        "parallel.compress_chunked_s": (s("parallel.compress_chunked"), "s"),
        "parallel.wave1_s": (wave1, "s"),
        "parallel.wave2_s": (s("parallel.compress_chunked") - wave1, "s"),
        "parallel.decompress_chunked_s": (s("parallel.decompress_chunked"), "s"),
        "parallel.pools_started": (k["parallel.pools_started"], "count"),
        "parallel.shm_mb": (k["parallel.shm_mb"], "MB_computed"),
        "service.parse_s": (s("service.parse"), "s"),
        "service.encode_s": (s("service.encode"), "s"),
        "service.handler_s.compress": (s("service.handler.compress"), "s"),
        "service.handler_s.decompress": (s("service.handler.decompress"), "s"),
        "service.handler_s.estimate": (s("service.handler.estimate"), "s"),
        "service.blob_put_s": (s("service.blob_put"), "s"),
        "service.blob_get_s": (s("service.blob_get"), "s"),
    }
