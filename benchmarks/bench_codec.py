"""End-to-end codec benchmark: MB/s per codec per synthetic dataset.

Where ``bench_hotpaths.py`` measures isolated kernels (Huffman, BitWriter,
LZ), this script measures the *full* compress/decompress pipeline of each
registered codec on the paper's synthetic climate datasets, including a
per-stage breakdown from the obs profiler. Results are committed to
``BENCH_codec.json``; CI re-runs the smoke variant and fails on >20%
regression against the committed baseline. Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_codec.py [--smoke] [--out FILE]
        [--baseline FILE] [--tolerance 0.2]
        [--append-trajectory LABEL] [--set-smoke-baseline]

Workflow (see ``docs/BENCHMARKS.md``):

* refresh the committed baseline after an intentional perf change::

      PYTHONPATH=src python benchmarks/bench_codec.py \
          --append-trajectory "PR N: what changed"
      PYTHONPATH=src python benchmarks/bench_codec.py --smoke --set-smoke-baseline

* gate a change locally the way CI does::

      PYTHONPATH=src python benchmarks/bench_codec.py --smoke \
          --out /tmp/bench_codec_smoke.json --baseline BENCH_codec.json

The regression gate normalizes for machine speed with a reference job
timed next to every row: perfbench's ``SpeedProbe`` burst, a fixed mix
of NumPy and interpreter work that calls no repro code, so no code
change can move it. Each row stores the job's best time
(``reference_ms``) from the same rounds as its own timings, and the
gate compares each row's ``MB/s * reference_ms`` (megabytes per
reference job) with the baseline's: a (codec, dataset, direction) row
below ``1 - tolerance`` of its baseline fails. A uniformly slower CI
runner therefore passes, and so does a change that speeds up other
rows. A row below the floor is measured again, up to ``CONFIRM_RUNS``
times, and fails only if every measurement is below it (see
:func:`confirm_flagged`). The verdict is ``repro.obs.report.diff_files``
run on the file just written, the same function ``python -m repro obs
diff`` calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from repro import compressor_for, decompress  # noqa: E402
from repro.datasets.registry import load  # noqa: E402
from repro import obs  # noqa: E402
from repro.obs.report import (bench_series, diff_files, row_ratios,  # noqa: E402
                              stage_table, throughput_series)
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


def bench_one(codec: str, ds_name: str, field, reps: int, probe: SpeedProbe) -> dict:
    comp = compressor_for(codec)
    kwargs: dict = {"rel_eb": REL_EB}
    if field.mask is not None:
        kwargs["mask"] = field.mask
    data = field.data
    nbytes = data.nbytes

    blob = comp.compress(data, **kwargs)  # warm-up + ratio + roundtrip check
    out = decompress(blob)
    assert out.shape == data.shape, f"{codec}/{ds_name}: bad roundtrip shape"

    t_ref, t_c, t_d = _best(reps, probe.burst, lambda: comp.compress(data, **kwargs),
                            lambda: decompress(blob))
    row = {
        "codec": codec,
        "dataset": ds_name,
        "shape": list(data.shape),
        "nbytes": int(nbytes),
        "ratio": round(nbytes / len(blob), 2),
        "compress_ms": round(t_c * 1e3, 1),
        "compress_mb_s": round(nbytes / t_c / 1e6, 2),
        "decompress_ms": round(t_d * 1e3, 1),
        "decompress_mb_s": round(nbytes / t_d / 1e6, 2),
        "reference_ms": round(t_ref * 1e3, 3),
        "stages": {
            "compress": _stage_breakdown(lambda: comp.compress(data, **kwargs)),
            "decompress": _stage_breakdown(lambda: decompress(blob)),
        },
    }
    print(f"{codec:10s} {ds_name:12s} ratio {row['ratio']:6.2f}  "
          f"compress {row['compress_mb_s']:7.2f} MB/s  "
          f"decompress {row['decompress_mb_s']:7.2f} MB/s  "
          f"reference {row['reference_ms']:6.2f} ms")
    return row


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
            row[key] = round(statistics.median(run[i][key] * run[i]["reference_ms"]
                                               for run in runs) / row["reference_ms"], 2)
            row[f"{direction}_ms"] = round(row["nbytes"] / row[key] / 1e3, 1)
    return rows


def write_metrics_jsonl(rows: list[dict], path) -> int:
    """Flatten rows into the shared metrics-JSONL gauge schema."""
    from repro.obs import JsonlSink, MetricsRegistry

    registry = MetricsRegistry()
    for row in rows:
        base = f"bench.codec.{row['codec']}.{row['dataset']}"
        for key in ("ratio", "compress_ms", "compress_mb_s",
                    "decompress_ms", "decompress_mb_s", "reference_ms"):
            registry.gauge(f"{base}.{key}").set(row[key])
    return JsonlSink(path).write(registry.records())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny datasets: a fast CI health check")
    ap.add_argument("--codecs", default=",".join(DEFAULT_CODECS),
                    help=f"comma-separated codec list (default: {','.join(DEFAULT_CODECS)})")
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
    probe = SpeedProbe()

    def measure(codec: str, ds_name: str) -> dict:
        return bench_one(codec, ds_name, fields[ds_name], reps, probe)

    runs = [[measure(codec, ds_name) for ds_name in fields for codec in codecs]
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
