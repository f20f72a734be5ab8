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

The regression gate normalizes for machine speed: every (codec, dataset,
direction) row is compared as a current/baseline ratio, the median ratio
is taken as the machine-speed factor, and only rows slower than
``(1 - tolerance) * median`` fail. A uniformly slower CI runner therefore
passes; a single codec path that regressed does not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import compressor_for, decompress  # noqa: E402
from repro.datasets.registry import load  # noqa: E402
from repro import obs  # noqa: E402
from repro.obs.report import stage_table  # noqa: E402

REL_EB = 1e-3
DEFAULT_CODECS = ("cliz", "sz3", "zfp", "bitgroom")

# (registry name, full-run generator kwargs, smoke generator kwargs).
# Shapes are scaled-down stand-ins for the paper's Table III dims, sized so
# a full run finishes in ~1 minute on a laptop and smoke in a few seconds.
DATASET_SPECS = [
    ("SSH", {"shape": (48, 40, 252)}, {"shape": (16, 16, 48)}),
    ("CESM-T", {"shape": (26, 120, 240)}, {"shape": (13, 45, 90)}),
    ("Hurricane-T", {"shape": (50, 140, 140)}, {"shape": (13, 50, 50)}),
]


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _stage_breakdown(fn) -> dict[str, float]:
    """Run ``fn`` once under an obs run; return ms per stage path."""
    with obs.run() as run:
        fn()
    return {row["path"]: round(row["total_s"] * 1e3, 2)
            for row in stage_table(run.span_records())}


def bench_one(codec: str, ds_name: str, field, reps: int) -> dict:
    comp = compressor_for(codec)
    kwargs: dict = {"rel_eb": REL_EB}
    if field.mask is not None:
        kwargs["mask"] = field.mask
    data = field.data
    nbytes = data.nbytes

    blob = comp.compress(data, **kwargs)  # warm-up + ratio + roundtrip check
    out = decompress(blob)
    assert out.shape == data.shape, f"{codec}/{ds_name}: bad roundtrip shape"

    t_c = _best(lambda: comp.compress(data, **kwargs), reps)
    t_d = _best(lambda: decompress(blob), reps)
    return {
        "codec": codec,
        "dataset": ds_name,
        "shape": list(data.shape),
        "nbytes": int(nbytes),
        "ratio": round(nbytes / len(blob), 2),
        "compress_ms": round(t_c * 1e3, 1),
        "compress_mb_s": round(nbytes / t_c / 1e6, 2),
        "decompress_ms": round(t_d * 1e3, 1),
        "decompress_mb_s": round(nbytes / t_d / 1e6, 2),
        "stages": {
            "compress": _stage_breakdown(lambda: comp.compress(data, **kwargs)),
            "decompress": _stage_breakdown(lambda: decompress(blob)),
        },
    }


def run_bench(codecs: list[str], smoke: bool, reps: int) -> list[dict]:
    rows = []
    for ds_name, full_kwargs, smoke_kwargs in DATASET_SPECS:
        field = load(ds_name, **(smoke_kwargs if smoke else full_kwargs))
        for codec in codecs:
            row = bench_one(codec, ds_name, field, reps)
            print(f"{codec:10s} {ds_name:12s} ratio {row['ratio']:6.2f}  "
                  f"compress {row['compress_mb_s']:7.2f} MB/s  "
                  f"decompress {row['decompress_mb_s']:7.2f} MB/s")
            rows.append(row)
    return rows


# ---------------------------------------------------------------------- #
# Regression gate.

def _row_key(row: dict) -> tuple[str, str]:
    return (row["codec"], row["dataset"])


def check_regression(current: list[dict], baseline: list[dict],
                     tolerance: float) -> list[str]:
    """Compare throughput rows; return a list of failure messages.

    Ratios (current/baseline) are normalized by their median so a
    uniformly faster/slower machine does not trip the gate; any single
    row slower than ``(1 - tolerance) * median`` is a regression. The
    verdict itself lives in
    :func:`repro.obs.report.normalized_regressions` — the same code
    ``repro obs diff`` runs, so the offline CLI reproduces this gate.
    """
    from repro.obs.report import normalized_regressions

    base_by_key = {_row_key(r): r for r in baseline}
    ratios: list[tuple[str, float]] = []
    for row in current:
        base = base_by_key.get(_row_key(row))
        if base is None:
            continue
        for metric in ("compress_mb_s", "decompress_mb_s"):
            if base.get(metric) and row.get(metric):
                label = f"{row['codec']}/{row['dataset']}/{metric}"
                ratios.append((label, row[metric] / base[metric]))
    return normalized_regressions(ratios, tolerance)


def _baseline_rows(doc: dict, smoke: bool) -> list[dict]:
    """Pick the comparable section of a committed baseline document."""
    if smoke and isinstance(doc.get("smoke_baseline"), dict):
        return doc["smoke_baseline"].get("results", [])
    return doc.get("results", [])


def write_metrics_jsonl(rows: list[dict], path) -> int:
    """Flatten rows into the shared metrics-JSONL gauge schema."""
    from repro.obs import JsonlSink, MetricsRegistry

    registry = MetricsRegistry()
    for row in rows:
        base = f"bench.codec.{row['codec']}.{row['dataset']}"
        for key in ("ratio", "compress_ms", "compress_mb_s",
                    "decompress_ms", "decompress_mb_s"):
            registry.gauge(f"{base}.{key}").set(row[key])
    return JsonlSink(path).write(registry.records())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny datasets: a fast CI health check")
    ap.add_argument("--codecs", default=",".join(DEFAULT_CODECS),
                    help=f"comma-separated codec list (default: {','.join(DEFAULT_CODECS)})")
    ap.add_argument("--reps", type=int, default=None,
                    help="timing repetitions, best-of (default: 3)")
    ap.add_argument("--out", default=None,
                    help="output JSON path (default: BENCH_codec.json at the "
                         "repository root)")
    ap.add_argument("--baseline", default=None, metavar="FILE",
                    help="gate against this committed baseline JSON; exits "
                         "non-zero on regression beyond --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed per-row slowdown vs the machine-normalized "
                         "baseline (default 0.20)")
    ap.add_argument("--append-trajectory", default=None, metavar="LABEL",
                    help="merge into an existing --out file: append this "
                         "labeled result set to its 'trajectory' list")
    ap.add_argument("--set-smoke-baseline", action="store_true",
                    help="store this run under 'smoke_baseline' in the --out "
                         "file (for the CI gate); implies --smoke")
    ap.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="also write the rows as metrics JSONL")
    args = ap.parse_args(argv)

    smoke = bool(args.smoke or args.set_smoke_baseline)
    reps = args.reps if args.reps is not None else 3
    codecs = [c.strip() for c in args.codecs.split(",") if c.strip()]
    config = {"codecs": codecs, "rel_eb": REL_EB, "reps": reps, "smoke": smoke}

    rows = run_bench(codecs, smoke, reps)

    out_path = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "BENCH_codec.json")
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
        baseline_doc = json.loads(Path(args.baseline).read_text())
        failures = check_regression(rows, _baseline_rows(baseline_doc, smoke),
                                    args.tolerance)
        if failures:
            for msg in failures:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            return 1
        print(f"regression gate passed against {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
