"""Codec and kernel benchmark: MB/s per codec and dataset, and per kernel and stream.

Codec rows measure the *full* compress/decompress pipeline of each
registered codec on the paper's synthetic climate datasets, including a
per-stage breakdown from the obs profiler. Kernel rows measure the
kernels that no codec row times on its own: Huffman sections as the
codecs write and read them (table build included), LZ on real CliZ code
streams, ``BitWriter.write_varwidth`` and ``BlobStore.put``. Results are
committed to ``BENCH_codec.json``; CI re-runs the smoke variant and fails
on >20% regression against the committed baseline. Run from the
repository root::

    PYTHONPATH=src python benchmarks/bench_codec.py [--smoke] [--out FILE]
        [--baseline FILE] [--tolerance 0.2]
        [--append-trajectory LABEL] [--set-smoke-baseline]

Workflow (see ``docs/BENCHMARKS.md``):

* refresh the committed baseline after an intentional perf change::

      PYTHONPATH=src python benchmarks/bench_codec.py \
          --append-trajectory "what changed"
      PYTHONPATH=src python benchmarks/bench_codec.py --smoke --set-smoke-baseline

* gate a change locally the way CI does::

      PYTHONPATH=src python benchmarks/bench_codec.py --smoke \
          --out /tmp/bench_codec_smoke.json --baseline BENCH_codec.json

Every row is keyed ``(codec, dataset)``; a kernel row puts its kernel and
stream there (``("lz", "cliz-ssh-codes")``), with ``compress`` meaning
encode (or put) and ``decompress`` decode. The regression gate
normalizes for machine speed with a reference job timed next to every
row: perfbench's ``SpeedProbe`` burst, a fixed mix of NumPy and
interpreter work that calls no repro code, so no code change can move
it. Each row stores the job's best time (``reference_ms``) from the
same rounds as its own timings, and the gate compares each row's
``MB/s * reference_ms`` (megabytes per reference job) with the
baseline's: a (codec, dataset, direction) row below ``1 - tolerance``
of its baseline fails, and so does a row whose ``ratio`` differs from
the baseline's. A uniformly slower CI runner therefore passes, and so
does a change that speeds up other rows. A row below the floor is
measured again, up to ``CONFIRM_RUNS`` times, and fails only if every
measurement is below it (see :func:`confirm_flagged`). The verdict is
``repro.obs.report.diff_files`` run on the file just written, the same
function ``python -m repro obs diff`` calls.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT))  # the tests' LZ oracle

from repro import compressor_for, decompress  # noqa: E402
from repro.core import CliZ  # noqa: E402
from repro.core.autotune import assemble_sample, mask_aware_anchors, sample_blocks  # noqa: E402
from repro.datasets.registry import load  # noqa: E402
from repro.encoding.bitstream import BitWriter  # noqa: E402
from repro.encoding.container import Container  # noqa: E402
from repro.encoding.huffman import HuffmanCode  # noqa: E402
from repro.encoding.lz import lz_compress, lz_decompress  # noqa: E402
from repro.encoding.multihuffman import read_section, write_section  # noqa: E402
from repro import obs  # noqa: E402
from repro.obs.report import (bench_series, diff_files, row_ratios,  # noqa: E402
                              stage_table, throughput_series)
from repro.runtime.durable import atomic_write  # noqa: E402
from repro.service.blobstore import BlobStore, blob_key  # noqa: E402
from tests.encoding.reference import lz_compress_reference  # noqa: E402
from workloads import SpeedProbe  # noqa: E402

REL_EB = 1e-3
DEFAULT_CODECS = ("cliz", "sz3", "zfp", "bitgroom")
# Every row runs for at least this long: enough rounds of a smoke row to
# reach its floor (a 100 ms ZFP or BitGroom smoke round gets about ten);
# a full-size row's minimum rounds take longer.
ROW_SECONDS = 1.0
# --set-smoke-baseline stores each row's median over this many smoke runs:
# one run made in a fast or slow stretch of a shared host would otherwise
# shift the floor of every later gate run.
BASELINE_RUNS = 5
# A gated row below the floor is measured at most this many more times.
CONFIRM_RUNS = 2
# A kernel row times batches of calls on at least this many bytes (see kernel_row).
BATCH_BYTES = 1 << 20
# Where the BlobStore.put rows keep their store (see blobstore_row).
TMPFS = "/dev/shm" if os.path.isdir("/dev/shm") else None

# (registry name, full-run generator kwargs, smoke generator kwargs).
# Shapes are scaled-down stand-ins for the paper's Table III dims, sized so
# a full run finishes in ~1 minute on a laptop and smoke in ~15 s.
DATASET_SPECS = [
    ("SSH", {"shape": (48, 40, 252)}, {"shape": (16, 16, 48)}),
    ("CESM-T", {"shape": (26, 120, 240)}, {"shape": (13, 45, 90)}),
    ("Hurricane-T", {"shape": (50, 140, 140)}, {"shape": (13, 50, 50)}),
]


def _best(reps: int, *fns) -> list[float]:
    """Best time of each of ``fns``, run in turn for at least ``reps``
    rounds and at least ``ROW_SECONDS``: a short row gets enough rounds
    to reach its floor between other tenants' bursts."""
    best = [float("inf")] * len(fns)
    start = time.perf_counter()
    rounds = 0
    while rounds < reps or time.perf_counter() - start < ROW_SECONDS:
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
        rounds += 1
    return best


def _stage_breakdown(fn) -> dict[str, float]:
    """Run ``fn`` once under an obs run; return ms per stage path."""
    with obs.run() as run:
        fn()
    return {row["path"]: round(row["total_s"] * 1e3, 2)
            for row in stage_table(run.span_records())}


def _row(codec: str, dataset: str, nbytes: int, encoded: int | None,
         t_ref: float, t_c: float, t_d: float | None) -> dict:
    """One result row; ``encoded`` (output bytes) gives the ``ratio``,
    ``t_d`` the decompress direction."""
    row: dict = {"codec": codec, "dataset": dataset, "nbytes": int(nbytes)}
    if encoded is not None:
        row["ratio"] = round(nbytes / encoded, 2)
    for direction, t in (("compress", t_c), ("decompress", t_d)):
        if t is not None:
            row[f"{direction}_ms"] = round(t * 1e3, 3)
            row[f"{direction}_mb_s"] = round(nbytes / t / 1e6, 2)
    row["reference_ms"] = round(t_ref * 1e3, 3)
    speeds = "  ".join(f"{d} {row[f'{d}_mb_s']:8.2f} MB/s" if f"{d}_mb_s" in row
                       else f"{d} {'-':>8s}     " for d in ("compress", "decompress"))
    ratio = f"{row['ratio']:6.2f}" if "ratio" in row else f"{'-':>6s}"
    print(f"{codec:10s} {dataset:22s} ratio {ratio}  {speeds}  "
          f"reference {row['reference_ms']:6.2f} ms")
    return row


def bench_one(codec: str, ds_name: str, field, reps: int, probe: SpeedProbe) -> dict:
    comp = compressor_for(codec)
    kwargs: dict = {"rel_eb": REL_EB}
    if field.mask is not None:
        kwargs["mask"] = field.mask
    data = field.data

    blob = comp.compress(data, **kwargs)  # warm-up + ratio + roundtrip check
    out = decompress(blob)
    assert out.shape == data.shape, f"{codec}/{ds_name}: bad roundtrip shape"

    t_ref, t_c, t_d = _best(reps, probe.burst, lambda: comp.compress(data, **kwargs),
                            lambda: decompress(blob))
    row = _row(codec, ds_name, data.nbytes, len(blob), t_ref, t_c, t_d)
    row["shape"] = list(data.shape)
    row["stages"] = {
        "compress": _stage_breakdown(lambda: comp.compress(data, **kwargs)),
        "decompress": _stage_breakdown(lambda: decompress(blob)),
    }
    return row


def kernel_row(kernel: str, stream: str, reps: int, probe: SpeedProbe, *, nbytes: int,
               encode, decode=None, encoded: int | None = None) -> dict:
    """A kernel row: ``encode`` (and ``decode``) of ``nbytes`` timed in
    the same rounds as the reference job.

    Each timing is of a batch of calls on at least ``BATCH_BYTES`` in
    all: a call on a few KB takes microseconds, and alone right after
    the reference job it would time a cold cache and the timer more
    than the kernel (single calls of the 3 KB and 13 KB LZ streams read
    0.54x-0.74x of their baseline in the worst of 20 unchanged runs on
    a shared 2-vCPU host).
    """
    calls = -(-BATCH_BYTES // nbytes)

    def batch(fn):
        return lambda: [fn() for _ in range(calls)]

    t_ref, t_c, *t_d = _best(reps, probe.burst, *(batch(fn) for fn in (encode, decode) if fn))
    return _row(kernel, stream, nbytes, encoded, t_ref, t_c / calls,
                t_d[0] / calls if t_d else None)


def _codes_section(data: np.ndarray, mask: np.ndarray | None = None) -> bytes:
    """The Huffman section CliZ hands to LZ for ``data`` at ``REL_EB``."""
    container = Container.from_bytes(CliZ().compress(data, rel_eb=REL_EB, mask=mask))
    name = next(s for s in container.section_names if s.endswith(".codes"))
    return lz_decompress(container.section(name))


def _huffman(symbols: np.ndarray) -> dict:
    """A Huffman section of ``symbols``, written and read back as the
    codecs do (table build included)."""
    out = bytearray()
    write_section(symbols, out)
    section = bytes(out)
    assert np.array_equal(read_section(section)[0], symbols), "huffman: bad roundtrip"
    return {"nbytes": symbols.nbytes, "encoded": len(section),
            "encode": lambda: write_section(symbols, bytearray()),
            "decode": partial(read_section, section)}


def _lz(payload: bytes) -> dict:
    """An LZ blob of ``payload``, checked against the oracle's parse.

    A stored blob (LZ found too little) has no decode direction: it
    decodes by one copy, which times the host's memory bandwidth, not
    the kernel, and read as low as 0.64x of its baseline in unchanged
    runs on a shared 2-vCPU host.
    """
    blob = lz_compress(payload)
    assert blob == lz_compress_reference(payload), "lz: parse differs from the oracle"
    assert lz_decompress(blob) == payload, "lz: bad roundtrip"
    return {"nbytes": len(payload), "encoded": len(blob),
            "encode": partial(lz_compress, payload),
            "decode": partial(lz_decompress, blob) if len(blob) < len(payload) else None}


def blobstore_row(n_stored: int, reps: int, probe: SpeedProbe) -> dict:
    """``BlobStore.put`` of new 256 KB blobs into a store of ``n_stored``.

    The store is filled through its own layout without fsync (set-up
    only); each timed put is a full commit of a blob not yet stored. A
    flat cost across the two sizes means put does not walk the store.
    The store lives on tmpfs where there is one, so its fsyncs cost
    nothing: the row times put's own work, which code can move, not the
    disk's latency, which the reference job cannot normalize (on disk,
    the best put of unchanged code moved from 0.66x to 1.22x of its
    median between runs on a shared host).
    """
    blob = bytearray(np.random.default_rng(8).bytes(256 * 1024))
    puts = itertools.count()

    def put():
        blob[:8] = next(puts).to_bytes(8, "little")
        store.put(blob)

    with tempfile.TemporaryDirectory(dir=TMPFS) as root:
        store = BlobStore(root)
        for i in range(n_stored):
            data = i.to_bytes(8, "little")
            dest = store.path_for(blob_key(data))
            dest.parent.mkdir(exist_ok=True)
            atomic_write(dest, data, fsync=False)
        # one put per timing, not a batch: a put takes about half a
        # millisecond, and every put keeps its 256 KB until the row ends
        t_ref, t_put = _best(reps, probe.burst, put)
        assert store.count() == n_stored + next(puts), "blobstore: a put was lost"
    return _row("blobstore", f"stored-{n_stored}", len(blob), None, t_ref, t_put, None)


def kernel_benches(fields: dict, smoke: bool) -> dict:
    """``{(kernel, stream): measure(reps, probe) -> row}``.

    Inputs are built and checked once here. The real streams come from
    CliZ on the bench's own fields: CESM-T's code section for Huffman,
    Hurricane-T's (stored: LZ finds too little) and full-size SSH's (the
    field where LZ is kept) for LZ, and the stream of one tuner trial on
    a 1% sample of SSH, the size the auto-tuner hands LZ hundreds of
    times per tune. ``skewed64`` is the shape of quantization codes on a
    well-predicted field: a 64-entry alphabet, 90% zeros.
    """
    n = 20_000 if smoke else 200_000
    rng = np.random.default_rng(0)
    skewed = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 64, n)).astype(np.int64)
    if not smoke:  # the vectorized decoder's acceptance bound
        code = HuffmanCode.from_symbols(skewed)
        writer = BitWriter()
        code.encode(skewed, writer)
        payload = writer.getvalue()
        assert np.array_equal(code.decode_scalar(payload, n)[0], skewed)
        t_fast, t_scalar = _best(1, lambda: code.decode(payload, n),
                                 lambda: code.decode_scalar(payload, n))
        assert t_scalar >= 5 * t_fast, (
            f"skewed64 decode is {t_scalar / t_fast:.2f}x decode_scalar, below 5x")

    ssh = load("SSH", **DATASET_SPECS[0][1])  # full size in smoke runs too
    blocks = sample_blocks(ssh.data.shape, 0.01,
                           anchors=mask_aware_anchors(ssh.data.shape, ssh.mask))

    lengths = np.where(rng.random(n) < 0.9, 1, rng.integers(2, 17, n)).astype(np.uint8)
    codes = rng.integers(0, 2**63, n, dtype=np.uint64)
    codes &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)

    def write_varwidth():
        writer = BitWriter()
        writer.write_varwidth(codes, lengths)
        return writer.getvalue()

    specs = {
        ("huffman", "cliz-cesm-t"):
            _huffman(read_section(_codes_section(fields["CESM-T"].data))[0]),
        ("huffman", "skewed64"): _huffman(skewed),
        ("lz", "cliz-hurricane-t-codes"): _lz(_codes_section(fields["Hurricane-T"].data)),
        ("lz", "cliz-ssh-codes"): _lz(_codes_section(ssh.data, ssh.mask)),
        ("lz", "tuner-sample-codes"): _lz(_codes_section(assemble_sample(ssh.data, blocks),
                                                          assemble_sample(ssh.mask, blocks))),
        ("bitwriter", "skewed-lengths"): {"nbytes": codes.nbytes, "encode": write_varwidth},
    }
    benches = {key: partial(kernel_row, *key, **spec) for key, spec in specs.items()}
    for n_stored in (200, 5000):
        benches["blobstore", f"stored-{n_stored}"] = partial(blobstore_row, n_stored)
    return benches


def confirm_flagged(rows: list[dict], measure, base_series: dict,
                    tolerance: float) -> list[dict]:
    """``rows``, with each row below the gate floor measured again.

    Other tenants of a shared host slow a row now and then, and a burst
    of their load seldom lasts across measurements; a genuine regression
    is below the floor in every one. A flagged (codec, dataset) row is
    therefore replaced by a new measurement of it, up to ``CONFIRM_RUNS``
    times, until none of its directions is below the floor: the gate
    fails a row only if all its measurements are. ``measure(codec,
    dataset)`` makes a row; ``base_series`` is the baseline's
    :func:`throughput_series`.
    """
    for _ in range(CONFIRM_RUNS):
        flagged = {key[:2] for key, (ratio, _) in
                   row_ratios(base_series, bench_series(rows)).items()
                   if ratio < 1.0 - tolerance}
        if not flagged:
            break
        print(f"below the gate floor, measuring again: "
              f"{', '.join('/'.join(k) for k in sorted(flagged))}")
        rows = [measure(row["codec"], row["dataset"])
                if (row["codec"], row["dataset"]) in flagged else row for row in rows]
    return rows


def _median_rows(runs: list[list[dict]]) -> list[dict]:
    """The rows of ``runs[0]`` with each speed the median over ``runs``.

    The gate compares ``MB/s * reference_ms``, so that product is what
    takes the median: ``reference_ms`` is the median reference time and
    each MB/s the median product over it. Separate medians of the two
    would pair a fast run's throughput with a slow run's reference.
    """
    rows = runs[0]
    for i, row in enumerate(rows):
        row["reference_ms"] = statistics.median(run[i]["reference_ms"] for run in runs)
        for direction in ("compress", "decompress"):
            key = f"{direction}_mb_s"
            if key not in row:
                continue
            row[key] = round(statistics.median(run[i][key] * run[i]["reference_ms"]
                                               for run in runs) / row["reference_ms"], 2)
            row[f"{direction}_ms"] = round(row["nbytes"] / row[key] / 1e3, 3)
    return rows


def write_metrics_jsonl(rows: list[dict], path) -> int:
    """Flatten rows into the shared metrics-JSONL gauge schema."""
    from repro.obs import JsonlSink, MetricsRegistry

    registry = MetricsRegistry()
    for row in rows:
        base = f"bench.codec.{row['codec']}.{row['dataset']}"
        for key in ("ratio", "compress_ms", "compress_mb_s",
                    "decompress_ms", "decompress_mb_s", "reference_ms"):
            if key in row:
                registry.gauge(f"{base}.{key}").set(row[key])
    return JsonlSink(path).write(registry.records())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny datasets: a fast CI health check")
    ap.add_argument("--codecs", default=",".join(DEFAULT_CODECS),
                    help=f"comma-separated codec list (default: {','.join(DEFAULT_CODECS)}); "
                         "kernel rows always run")
    ap.add_argument("--reps", type=int, default=None,
                    help="minimum timing rounds per row, best-of (default: 3; "
                         "each row also runs for at least 1 s)")
    ap.add_argument("--out", default=None,
                    help="output JSON path (default: BENCH_codec.json at the "
                         "repository root)")
    ap.add_argument("--baseline", default=None, metavar="FILE",
                    help="gate against this committed baseline JSON; exits "
                         "non-zero on regression beyond --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed slowdown of a row's reference-normalized "
                         "throughput vs the baseline (default 0.20)")
    ap.add_argument("--append-trajectory", default=None, metavar="LABEL",
                    help="merge into an existing --out file: append this "
                         "labeled result set to its 'trajectory' list")
    ap.add_argument("--set-smoke-baseline", action="store_true",
                    help="store the per-row median of several smoke runs under "
                         "'smoke_baseline' in the --out file (for the CI gate); "
                         "implies --smoke")
    ap.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="also write the rows as metrics JSONL")
    args = ap.parse_args(argv)
    if args.baseline and args.set_smoke_baseline:
        ap.error("--baseline gates a run; it cannot gate the run that "
                 "--set-smoke-baseline records")

    smoke = bool(args.smoke or args.set_smoke_baseline)
    reps = args.reps if args.reps is not None else 3
    codecs = [c.strip() for c in args.codecs.split(",") if c.strip()]
    config = {"codecs": codecs, "rel_eb": REL_EB, "reps": reps, "smoke": smoke}

    fields = {ds_name: load(ds_name, **(smoke_kwargs if smoke else full_kwargs))
              for ds_name, full_kwargs, smoke_kwargs in DATASET_SPECS}
    kernels = kernel_benches(fields, smoke)
    probe = SpeedProbe()

    def measure(codec: str, ds_name: str) -> dict:
        if (codec, ds_name) in kernels:
            return kernels[codec, ds_name](reps, probe)
        return bench_one(codec, ds_name, fields[ds_name], reps, probe)

    keys = [(codec, ds_name) for ds_name in fields for codec in codecs] + list(kernels)
    runs = [[measure(*key) for key in keys]
            for _ in range(BASELINE_RUNS if args.set_smoke_baseline else 1)]
    rows = _median_rows(runs) if args.set_smoke_baseline else runs[0]
    if args.baseline:
        rows = confirm_flagged(rows, measure, throughput_series(args.baseline, smoke),
                               args.tolerance)

    out_path = Path(args.out) if args.out else ROOT / "BENCH_codec.json"
    doc: dict = {}
    if out_path.exists() and (args.append_trajectory or args.set_smoke_baseline):
        doc = json.loads(out_path.read_text())
    if args.set_smoke_baseline:
        doc["smoke_baseline"] = {"config": config, "results": rows}
    else:
        doc["config"] = config
        doc["results"] = rows
        if args.append_trajectory:
            doc.setdefault("trajectory", []).append(
                {"label": args.append_trajectory, "config": config, "results": rows})
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.metrics_out:
        n = write_metrics_jsonl(rows, args.metrics_out)
        print(f"wrote {n} metric lines -> {args.metrics_out}")

    if args.baseline:
        failures, _ = diff_files(args.baseline, out_path, args.tolerance)
        if failures:
            for msg in failures:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            return 1
        print(f"regression gate passed against {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
