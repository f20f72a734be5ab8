"""Hot-path micro-benchmarks: entropy coding, interpolation, tuning, chunk
dispatch, blob puts.

Measures throughput of the vectorized kernels against their scalar
reference paths, ``HuffmanCode.decode`` as codecs call it (table build
included) on a real CliZ code section and on short streams, the fixed
per-codebook costs on a quantization-code stream, LZ on synthetic and real
CliZ code streams (every blob checked against the plain greedy loop in
``tests/encoding/reference.py``), chunked compress and
decompress inline against a two-worker pool, and ``BlobStore.put`` at
two store sizes, and writes the results to ``BENCH_hotpaths.json``. Run
from the repository root::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--smoke] [--out FILE]

``--smoke`` shrinks the streams so the script doubles as a CI health
check (a few seconds); the full run sizes match the acceptance criterion
for the vectorized Huffman decoder: a 200k-symbol stream over a 64-entry
alphabet with an SZ3-like skewed code distribution must decode >= 5x
faster than the scalar loop.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # the tests' oracles

from repro import obs, parallel  # noqa: E402
from repro.core import AutoTuner, CliZ  # noqa: E402
from repro.core.autotune import assemble_sample, mask_aware_anchors, sample_blocks  # noqa: E402
from repro.datasets import cesm_t, hurricane_t, ssh  # noqa: E402
from repro.encoding.bitstream import BitWriter  # noqa: E402
from repro.encoding.container import Container  # noqa: E402
from repro.encoding.huffman import HuffmanCode  # noqa: E402
from repro.encoding.lz import lz_compress, lz_decompress  # noqa: E402
from repro.encoding.varint import decode_uvarint  # noqa: E402
from repro.prediction import InterpSpec, interp_compress, interp_decompress  # noqa: E402
from repro.runtime.durable import atomic_write  # noqa: E402
from repro.service.blobstore import BlobStore, blob_key  # noqa: E402
from tests.encoding.reference import lz_compress_reference  # noqa: E402


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _streams(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    return {
        # The acceptance stream: 64-entry alphabet, 90% zeros — the shape of
        # SZ3/CliZ quantization codes on a well-predicted field.
        "skewed64": np.where(rng.random(n) < 0.9, 0, rng.integers(1, 64, n)),
        "uniform256": rng.integers(0, 256, n),
        "gauss_codes": np.abs(np.round(rng.standard_normal(n) * 3)).astype(np.int64),
    }


def bench_huffman(n: int, reps: int) -> list[dict]:
    rows = []
    for name, symbols in _streams(n).items():
        symbols = np.asarray(symbols, dtype=np.int64)
        code = HuffmanCode.from_symbols(symbols)
        writer = BitWriter()
        code.encode(symbols, writer)
        data = writer.getvalue()
        nbytes = symbols.size * 8  # int64 payload

        def encode():
            w = BitWriter()
            code.encode(symbols, w)
            w.getvalue()

        t_enc = _best(encode, reps)
        t_dec = _best(lambda: code.decode(data, symbols.size), reps)
        t_dec_scalar = _best(lambda: code.decode_scalar(data, symbols.size), max(1, reps // 2))

        dec, _ = code.decode(data, symbols.size)
        dec_s, _ = code.decode_scalar(data, symbols.size)
        assert np.array_equal(dec, symbols) and np.array_equal(dec_s, symbols)

        rows.append({
            "kernel": "huffman",
            "stream": name,
            "n_symbols": int(symbols.size),
            "alphabet": int(symbols.max()) + 1,
            "encode_ms": round(t_enc * 1e3, 3),
            "encode_mb_s": round(nbytes / t_enc / 1e6, 1),
            "decode_ms": round(t_dec * 1e3, 3),
            "decode_mb_s": round(nbytes / t_dec / 1e6, 1),
            "decode_scalar_ms": round(t_dec_scalar * 1e3, 3),
            "decode_scalar_mb_s": round(nbytes / t_dec_scalar / 1e6, 1),
            "decode_speedup": round(t_dec_scalar / t_dec, 2),
        })
    return rows


def _section_parts(section: bytes) -> tuple[bytes, bytes, int]:
    """(table, payload, symbol count) of one ``write_section`` blob."""
    n, pos = decode_uvarint(section, 0)
    table_len, pos = decode_uvarint(section, pos)
    table = section[pos : pos + table_len]
    bit_len, pos = decode_uvarint(section, pos + table_len)
    return table, section[pos : pos + (bit_len + 7) // 8], n


def _decode_row(stream: str, table: bytes, payload: bytes, n: int, reps: int,
                calls: int) -> dict:
    """Deserialize + ``decode`` per call, as a codec reads each section."""
    def read():
        return HuffmanCode.deserialize(table)[0].decode(payload, n)

    code = HuffmanCode.deserialize(table)[0]
    assert np.array_equal(read()[0], code.decode_scalar(payload, n)[0])
    t = _per_call(read, calls, reps)
    return {
        "kernel": "huffman.decode",
        "stream": stream,
        "n_symbols": int(n),
        "used": int(code._order.size),
        "payload_bytes": len(payload),
        "decode_ms": round(t * 1e3, 4),
        "symbols_per_us": round(n / t / 1e6, 2),
    }


def bench_decode(reps: int, smoke: bool) -> list[dict]:
    """``HuffmanCode.decode`` as codecs call it, table build included.

    One row decodes the code section of a real CliZ stream (CESM-T,
    default pipeline). The fixed-cost rows decode short streams of a wide
    code (Laplace codes around the radius, a few hundred used ids) and a
    peaked one (90% in one bin), where the per-call table build and
    dispatch matter most.
    """
    shape = (8, 60, 120) if smoke else (26, 120, 240)
    field = cesm_t(shape=shape, seed=2)
    container = Container.from_bytes(CliZ().compress(field.data, rel_eb=1e-3))
    name = next(s for s in container.section_names if s.endswith(".codes"))
    rows = [_decode_row("cliz-cesm-t", *_section_parts(lz_decompress(container.section(name))),
                        reps, calls=1 if smoke else 3)]
    rng = np.random.default_rng(8)
    sizes = (2048, 8192, 32768) if smoke else (2048, 8192, 32768, 131072)
    for family in ("wide", "peaked"):
        for n in sizes:
            symbols = np.rint(rng.laplace(32768, 40 if family == "wide" else 6, n)).astype(np.int64)
            if family == "peaked":
                symbols[rng.random(n) < 0.9] = 32768
            code = HuffmanCode.from_symbols(symbols)
            writer = BitWriter()
            code.encode(symbols, writer)
            rows.append(_decode_row(f"{family}-{n // 1024}k", code.serialize(), writer.getvalue(),
                                    n, reps, calls=max(1, (10 if smoke else 100) * 2048 // n)))
    return rows


def _per_call(fn, calls: int, reps: int) -> float:
    """Best-of-``reps`` mean time of ``calls`` back-to-back calls."""
    def batch():
        for _ in range(calls):
            fn()
    return _best(batch, reps) / calls


def bench_codebook(reps: int, smoke: bool) -> list[dict]:
    """Fixed per-codebook costs on one tuner-sized quantization-code stream.

    Codes cluster around the radius (32768), so the alphabet spans ~32.8k
    ids of which a few hundred occur: the shape every tuner trial's
    codebooks have. The table row decodes one symbol with the vectorized
    kernel, which is what builds its lookup table.
    """
    rng = np.random.default_rng(6)
    symbols = np.rint(rng.laplace(32768, 40, 8192)).astype(np.int64)
    code = HuffmanCode.from_symbols(symbols)
    table = code.serialize()
    writer = BitWriter()
    code.encode(symbols, writer)
    payload = writer.getvalue()
    decoded, _ = HuffmanCode.deserialize(table)[0].decode_vectorized(payload, symbols.size)
    assert np.array_equal(decoded, symbols)
    calls = 10 if smoke else 100
    t_build = _per_call(lambda: HuffmanCode.from_symbols(symbols), calls, reps)
    t_ser = _per_call(code.serialize, calls, reps)
    t_table = _per_call(
        lambda: HuffmanCode.deserialize(table)[0].decode_vectorized(payload, 1), calls, reps)
    return [{
        "kernel": "codebook",
        "stream": "quant-codes",
        "n_symbols": int(symbols.size),
        "alphabet": code.alphabet_size,
        "used": int(np.count_nonzero(code.lengths)),
        "build_ms": round(t_build * 1e3, 4),
        "serialize_ms": round(t_ser * 1e3, 4),
        "deserialize_plus_table_ms": round(t_table * 1e3, 4),
    }]


def bench_blobstore(reps: int, smoke: bool) -> list[dict]:
    """``BlobStore.put`` of a new 256 KB blob into stores of 200 and 5000 blobs.

    The stores are filled through the store's own layout without fsync
    (set-up only); each timed put is a full durable commit of a blob not
    yet stored. A flat cost across the two sizes means put does not walk
    the store.
    """
    rng = np.random.default_rng(8)
    puts = 5 if smoke else 20
    rows = []
    for n_stored in (200, 5000):
        with tempfile.TemporaryDirectory() as root:
            store = BlobStore(root)
            for i in range(n_stored):
                data = i.to_bytes(8, "little")
                dest = store.path_for(blob_key(data))
                dest.parent.mkdir(exist_ok=True)
                atomic_write(dest, data, fsync=False)
            payloads = [rng.bytes(256 * 1024) for _ in range(puts * max(1, reps))]
            times = []
            for data in payloads:
                t0 = time.perf_counter()
                store.put(data)
                times.append(time.perf_counter() - t0)
            assert store.count() == n_stored + len(payloads)
        rows.append({
            "kernel": "blobstore.put",
            "stream": f"stored-{n_stored}",
            "stored": n_stored,
            "blob_kb": 256,
            "puts": len(times),
            "put_ms_p50": round(float(np.median(times)) * 1e3, 3),
            "put_ms_min": round(min(times) * 1e3, 3),
        })
    return rows


def bench_bitwriter(n: int, reps: int) -> list[dict]:
    """Bulk writes: Huffman-like skewed widths, plus fixed widths."""
    rng = np.random.default_rng(1)
    skewed = np.where(rng.random(n) < 0.9, 1, rng.integers(2, 17, n)).astype(np.uint8)
    cases = {
        "skewed-lengths": skewed,
        "fixed-1": np.full(n, 1, dtype=np.uint8),
        "fixed-12": np.full(n, 12, dtype=np.uint8),
        "fixed-64": np.full(n, 64, dtype=np.uint8),
    }
    rows = []
    for name, lengths in cases.items():
        codes = rng.integers(0, 2**63, n, dtype=np.uint64)
        codes &= (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)

        def run():
            w = BitWriter()
            w.write_varwidth(codes, lengths)
            w.getvalue()

        t = _best(run, reps)
        total_bits = int(lengths.sum(dtype=np.int64))
        rows.append({
            "kernel": "bitwriter.write_varwidth",
            "stream": name,
            "n_codes": int(n),
            "ms": round(t * 1e3, 3),
            "mbits_s": round(total_bits / t / 1e6, 1),
        })
    return rows


def _codes_section(data: np.ndarray, mask: np.ndarray | None = None) -> bytes:
    """The Huffman payload CliZ hands to LZ for ``data`` at rel_eb 1e-3."""
    blob = CliZ().compress(data, rel_eb=1e-3, mask=mask)
    container = Container.from_bytes(blob)
    name = next(s for s in container.section_names if s.endswith(".codes"))
    return lz_decompress(container.section(name))


def bench_lz(n: int, reps: int, smoke: bool) -> list[dict]:
    """LZ on synthetic streams and on real CliZ code streams.

    ``cliz_codes`` is a Hurricane-T field's (stored: LZ finds too little),
    ``cliz_ssh_codes`` SSH's (the field where LZ is kept) and
    ``tuner_sample`` the stream of one trial on a 1% sample of SSH, the
    size the auto-tuner hands LZ hundreds of times per tune. Every blob
    must equal the plain greedy loop's in ``tests/encoding/reference.py``.
    """
    rng = np.random.default_rng(2)
    syms = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 64, n))
    code = HuffmanCode.from_symbols(syms)
    w = BitWriter()
    code.encode(syms, w)
    hurricane = hurricane_t(shape=(13, 50, 50) if smoke else (50, 140, 140), seed=5)
    field = ssh(shape=(48, 40, 252), seed=1)
    blocks = sample_blocks(field.data.shape, 0.01,
                           anchors=mask_aware_anchors(field.data.shape, field.mask))
    cases = {
        "huffman_output": w.getvalue(),
        "zero_runs": bytes(min(n, 4 * n // 4)),
        "text": b"the quick brown fox jumps over the lazy dog " * max(1, n // 45),
        "cliz_codes": _codes_section(hurricane.data),
        "cliz_ssh_codes": _codes_section(field.data, field.mask),
        "tuner_sample": _codes_section(assemble_sample(field.data, blocks),
                                       assemble_sample(field.mask, blocks)),
    }
    rows = []
    for name, payload in cases.items():
        blob = lz_compress(payload)
        assert blob == lz_compress_reference(payload), f"lz/{name}: parse differs from the oracle"
        assert lz_decompress(blob) == payload
        t_c = _best(lambda: lz_compress(payload), reps)
        t_d = _best(lambda: lz_decompress(blob), reps)
        rows.append({
            "kernel": "lz",
            "stream": name,
            "in_bytes": len(payload),
            "out_bytes": len(blob),
            "ratio": round(len(payload) / len(blob), 2),
            "compress_ms": round(t_c * 1e3, 3),
            "compress_mb_s": round(len(payload) / t_c / 1e6, 1),
            "decompress_ms": round(t_d * 1e3, 3),
            "decompress_mb_s": round(len(payload) / t_d / 1e6, 1),
        })
    return rows


def bench_interp(reps: int, smoke: bool) -> list[dict]:
    """Predict+quantize and reconstruct on SSH, with and without its mask.

    Both rows run the same fused engine; the unmasked row feeds it the
    same values with the land points zeroed, so the pair shows what the
    mask itself costs per point.
    """
    field = ssh(shape=(24, 20, 96) if smoke else (48, 40, 252), seed=0)
    data = field.data.astype(np.float64)
    eb = 1e-3 * float(np.ptp(data[field.mask]))
    spec = InterpSpec(order=(0, 1, 2), fitting="cubic")
    cases = {
        "ssh-masked": (data, field.mask),
        "ssh-unmasked": (np.where(field.mask, data, 0.0), None),
    }
    rows = []
    for name, (values, mask) in cases.items():
        res = interp_compress(values, eb, spec, mask=mask)

        def decode():
            return interp_decompress(values.shape, eb, spec, res.codes,
                                     res.unpredictable, mask=mask)

        assert np.array_equal(decode(), res.reconstructed)
        t_c = _best(lambda: interp_compress(values, eb, spec, mask=mask), reps)
        t_d = _best(decode, reps)
        rows.append({
            "kernel": "interp",
            "stream": name,
            "shape": list(values.shape),
            "n_valid": int(res.codes.size),
            "compress_ms": round(t_c * 1e3, 3),
            "compress_mb_s": round(values.nbytes / t_c / 1e6, 1),
            "decompress_ms": round(t_d * 1e3, 3),
            "decompress_mb_s": round(values.nbytes / t_d / 1e6, 1),
        })
    return rows


def bench_autotune(reps: int, smoke: bool) -> list[dict]:
    """The auto-tuner on a 1% sample of SSH (periodic, masked): 192 trials.

    Trials share one prediction per (periodic, layout, fitting) group, so
    the rows also report how many predictions the tune made. One row tunes
    in-process (``workers=1``), the other on the default pool (two
    workers on a host with two or more usable CPUs); both must pick the
    same pipeline.
    """
    field = ssh(shape=(48, 40, 120) if smoke else (48, 40, 252), seed=1)
    rows, best = [], set()
    for stream, workers in (("ssh-sample", 1), ("ssh-sample-pool", None)):
        tuner = AutoTuner(sampling_rate=0.01, workers=workers, **field.tuner_kwargs())

        def tune():
            return tuner.tune(field.data, rel_eb=1e-3, mask=field.mask)

        with obs.run() as run:
            res = tune()
        predictions = run.metrics.counter("autotune.predictions").value
        assert res.period == 12 and len(res.trials) == 192 and predictions == 96
        best.add(res.best)
        t = _best(tune, min(reps, 3))
        rows.append({
            "kernel": "autotune",
            "stream": stream,
            "shape": list(field.data.shape),
            "sample_shape": list(res.sample_shape),
            "trials": len(res.trials),
            "predictions": int(predictions),
            "workers": res.workers,
            "tune_ms": round(t * 1e3, 3),
            "ms_per_trial": round(t * 1e3 / len(res.trials), 3),
        })
    assert len(best) == 1, "the worker count changed the tuned pipeline"
    return rows


def bench_chunked(reps: int, smoke: bool) -> list[dict]:
    """``compress_chunked``/``decompress_chunked`` in 4 chunks of Hurricane-T.

    One row dispatches the chunks inline, the other on a two-worker pool
    (started and shut down inside every call, as in use); both must write
    the same bytes and decode to the same bits. One global bound serves
    every chunk.
    """
    field = hurricane_t(shape=(24, 60, 60) if smoke else (100, 140, 140), seed=0)
    data = field.data
    eb = 1e-3 * float(np.ptp(data))
    blob = parallel.compress_chunked(data, n_chunks=4, abs_eb=eb)
    recon = parallel.decompress_chunked(blob)
    rows = []
    for stream, workers in (("hurricane-t-inline", None), ("hurricane-t-pool", 2)):
        assert parallel.compress_chunked(data, n_chunks=4, workers=workers,
                                         abs_eb=eb) == blob
        assert parallel.decompress_chunked(blob, workers).tobytes() == recon.tobytes()
        t_c = _best(lambda: parallel.compress_chunked(data, n_chunks=4, workers=workers,
                                                      abs_eb=eb), reps)
        t_d = _best(lambda: parallel.decompress_chunked(blob, workers), reps)
        rows.append({
            "kernel": "chunked",
            "stream": stream,
            "shape": list(data.shape),
            "n_chunks": 4,
            "workers": workers or 0,
            "compress_ms": round(t_c * 1e3, 3),
            "compress_mb_s": round(data.nbytes / t_c / 1e6, 1),
            "decompress_ms": round(t_d * 1e3, 3),
            "decompress_mb_s": round(data.nbytes / t_d / 1e6, 1),
        })
    return rows


def write_metrics_jsonl(results: dict, path) -> int:
    """Flatten benchmark rows into the shared metrics-JSONL schema.

    Each measured quantity becomes one gauge named
    ``bench.<kernel>.<stream>.<field>``, so ``BENCH_*.json`` trajectories
    and live pipeline telemetry can be ingested by the same tooling
    (``repro.obs.sinks.load_jsonl`` + ``validate_metrics_line``).
    """
    from repro.obs import MetricsRegistry, JsonlSink

    registry = MetricsRegistry()
    for kernel_rows in (results["huffman"], results["decode"], results["codebook"],
                        results["bitwriter"],
                        results["lz"], results["interp"], results["autotune"],
                        results["chunked"], results["blobstore"]):
        for row in kernel_rows:
            base = f"bench.{row['kernel']}.{row['stream']}"
            for key, value in row.items():
                if key in ("kernel", "stream") or not isinstance(value, (int, float)):
                    continue
                registry.gauge(f"{base}.{key}").set(value)
    return JsonlSink(path).write(registry.records())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny streams + 1 rep: a fast CI health check")
    ap.add_argument("--out", default=None,
                    help="output JSON path (default: BENCH_hotpaths.json next "
                         "to this script's repository root)")
    ap.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="also write the measurements as metrics JSONL "
                         "(same schema as the pipelines' --metrics-out)")
    args = ap.parse_args(argv)

    n = 20_000 if args.smoke else 200_000
    reps = 1 if args.smoke else 5

    results = {
        "config": {"n_symbols": n, "reps": reps, "smoke": bool(args.smoke)},
        "huffman": bench_huffman(n, reps),
        "decode": bench_decode(reps, args.smoke),
        "codebook": bench_codebook(reps, args.smoke),
        "bitwriter": bench_bitwriter(n, reps),
        "lz": bench_lz(n, reps, args.smoke),
        "interp": bench_interp(reps, args.smoke),
        "autotune": bench_autotune(reps, args.smoke),
        "chunked": bench_chunked(reps, args.smoke),
        "blobstore": bench_blobstore(reps, args.smoke),
    }

    for row in results["huffman"]:
        print(f"huffman/{row['stream']:12s} encode {row['encode_mb_s']:8.1f} MB/s  "
              f"decode {row['decode_mb_s']:8.1f} MB/s  "
              f"decode(scalar) {row['decode_scalar_mb_s']:8.1f} MB/s  "
              f"speedup {row['decode_speedup']:5.2f}x")
    for row in results["decode"]:
        print(f"huffman.decode/{row['stream']:12s} {row['n_symbols']:7d} symbols, "
              f"{row['used']:4d} used ids: {row['decode_ms']:8.3f} ms")
    for row in results["codebook"]:
        print(f"codebook/{row['stream']} ({row['used']} of {row['alphabet']} ids): "
              f"build {row['build_ms']:.3f} ms  serialize {row['serialize_ms']:.3f} ms  "
              f"deserialize+table {row['deserialize_plus_table_ms']:.3f} ms")
    for row in results["bitwriter"]:
        print(f"{row['kernel']}/{row['stream']}: {row['mbits_s']} Mbit/s")
    for row in results["lz"]:
        print(f"lz/{row['stream']:16s} ratio {row['ratio']:6.2f}  "
              f"compress {row['compress_mb_s']:7.1f} MB/s  "
              f"decompress {row['decompress_mb_s']:7.1f} MB/s")
    for row in results["interp"]:
        print(f"interp/{row['stream']:12s} compress {row['compress_ms']:7.1f} ms  "
              f"decompress {row['decompress_ms']:7.1f} ms")
    for row in results["autotune"]:
        print(f"autotune/{row['stream']} {row['trials']} trials on "
              f"{row['predictions']} predictions, {row['workers']} worker(s): "
              f"{row['tune_ms']:7.1f} ms")
    for row in results["chunked"]:
        print(f"chunked/{row['stream']:18s} compress {row['compress_ms']:7.1f} ms  "
              f"decompress {row['decompress_ms']:7.1f} ms")
    for row in results["blobstore"]:
        print(f"blobstore.put/{row['stream']:12s} p50 {row['put_ms_p50']:7.2f} ms  "
              f"min {row['put_ms_min']:7.2f} ms")

    out_path = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json")
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.metrics_out:
        n = write_metrics_jsonl(results, args.metrics_out)
        print(f"wrote {n} metric lines -> {args.metrics_out}")

    if not args.smoke:
        skewed = next(r for r in results["huffman"] if r["stream"] == "skewed64")
        if skewed["decode_speedup"] < 5.0:
            print(f"WARNING: skewed64 decode speedup {skewed['decode_speedup']}x "
                  "is below the 5x acceptance target", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
