"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload codec-fields --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program under test is imported
from ``src/`` next to this directory and from nowhere else. ``--trace 0``
measures the end-to-end metrics with no tracing installed; ``--trace 1``
prints the per-layer metrics instead (see ``README.md``). The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

Exit codes: 0 with a result printed, 2 when ``src/repro`` is missing,
1 on any other error (no result printed).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - timed from the first line
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # setup_s is the median over this many full set-ups
FAST_Q = 25  # percentile of operation times that rates are built from


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from layers import Recorder, layer_metrics

    probe = workloads.SpeedProbe()
    import_s = (time.perf_counter() - T_START) * probe.scale(probe.burst())

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    make = workloads.WORKLOADS[args.workload]
    setups = []
    w = None
    try:
        for _ in range(SETUP_REPEATS):
            if w is not None:
                w.close()
            w = make()
            t0 = time.perf_counter()
            w.setup(args.seed, args.seconds)
            setups.append((time.perf_counter() - t0) * probe.scale(probe.burst()))
        recorder = Recorder()
        out = w.run(args.seconds, bool(args.trace), recorder, probe)
    finally:
        if w is not None:
            w.close()
    leftovers = workloads.leftovers()
    for problem in leftovers:
        print(f"perfbench: left behind after the run: {problem}", file=sys.stderr)
    for failure in out.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    ok_ops = [op for op in out.ops if op.ok]
    setup_s = import_s + statistics.median(setups)
    if args.trace:
        print(recorder.table(), file=sys.stderr)
        metrics = per_layer(out, recorder, layer_metrics)
    else:
        metrics = end_to_end(out, ok_ops, setup_s, args.workload == "service-mixed",
                             getattr(w, "variants", 1))
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": out.digest, "digest_items": out.digest_items,
        "latency_samples": len(ok_ops),
        "strict_bound_overshoots": len(out.overshoots),
        "max_overshoot_rel": max(out.overshoots, default=0.0),
        "setup_runs_s": setups, "import_s": import_s, **out.info,
        "host_speed": probe.REF_S / statistics.median(dt for _, dt in probe.readings),
    }
    print("perfbench " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not out.failures and not leftovers and out.digest_items > 0,
        "attempted": len(out.ops),
        "failed": len(out.ops) - len(ok_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _by_kind(ops) -> dict[str, list]:
    kinds: dict[str, list] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    return kinds


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(out, ok_ops, setup_s: float, service: bool, variants: int) -> dict:
    """The user-visible metrics, from the untraced run.

    All times are in reference seconds (``workloads.SpeedProbe``). Each
    workload repeats a fixed set of operation kinds (a field and a
    step, or an endpoint and a request size). Throughput and solve time
    use each kind's 25th-percentile time: on a shared host whole seconds
    of a run can be slowed by other tenants, and the fast quartile is
    what stays put between runs while still moving with the code. MB/s
    is the bytes of one operation of each kind over the sum of those
    times.

    Latency percentiles of the service are over all requests. The other
    workloads have a few kinds whose times differ a lot, so a percentile
    over all of them would jump between kinds, and one kind alone has
    too few operations for a tail percentile. There each operation's
    time is taken relative to its kind's median, the percentile is taken
    over all of these ratios, and the figure is that ratio times the
    time of one round at the medians, averaged over the ``variants``
    input sets.
    """
    kinds = _by_kind(ok_ops)

    def mb_per_s(role: str) -> float:
        sel = [v for v in kinds.values() if v[0].role == role]
        seconds = sum(_percentile([op.norm for op in v], FAST_Q) for v in sel)
        return sum(v[0].nbytes for v in sel) / 1e6 / seconds if seconds else 0.0

    if service:
        lat = [op.norm for op in ok_ops]
        p50, p95 = _percentile(lat, 50), _percentile(lat, 95)
        # completions per one-second window, each scaled by the host
        # speed in it; the fast quartile of windows
        windows: list[list[float]] = [[] for _ in range(max(1, int(out.wall)))]
        t0 = min((op.start for op in out.ops), default=0.0)
        for op in ok_ops:
            w = int(op.start + op.seconds - t0)
            if w < len(windows):
                windows[w].append(op.scale)
        rates = [len(v) / statistics.fmean(v) if v else 0.0 for v in windows]
        req_per_s = _percentile(rates, 100 - FAST_Q)
    else:
        medians = {kind: _percentile([op.norm for op in v], 50) for kind, v in kinds.items()}
        rel = [op.norm / medians[op.kind] for op in ok_ops]
        one_round = sum(medians.values()) / variants
        p50, p95 = one_round * _percentile(rel, 50), one_round * _percentile(rel, 95)
        per_round = len(ok_ops) / len(out.round_seconds) if out.round_seconds else 0
        req_per_s = per_round / _percentile(out.round_seconds, FAST_Q) if per_round else 0.0
    solve = [_percentile(v, FAST_Q) for v in out.solve.values() if v]
    return {
        "setup_s": (setup_s, "s"),
        "compress_mb_s": (mb_per_s("compress"), "MB/s"),
        "decompress_mb_s": (mb_per_s("decompress"), "MB/s"),
        "ratio": (out.raw_bytes / out.stored_bytes if out.stored_bytes else 0.0, "x"),
        "solve_s": (sum(solve) / variants, "s"),
        "req_per_s": (req_per_s, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p95_ms": (p95 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


#: Service-only layer metrics, reported as 0 by the other workloads.
SERVICE_EXTRAS = {
    "service.wait_s": "s", "service.rejects": "count", "service.blob_count_end": "count",
    "service.body_mb": "MB", "service.estimate_rel_err": "fraction",
}
#: Layer metrics that are already ratios or levels, not totals.
NOT_PER_OP = {"encoding.lz.kept_frac", "core.autotune.sample_kb",
              "service.blob_count_end", "service.estimate_rel_err"}


def per_layer(out, recorder, layer_metrics) -> dict:
    """Layer totals of the traced part of the run, per traced operation.

    An operation is one round of the serial workloads or one request of
    the service. Per-op figures do not grow when a faster program fits
    more operations into the run.
    """
    totals = layer_metrics(recorder)
    for name, unit in SERVICE_EXTRAS.items():
        totals[name] = out.extra_layers.get(name, (0.0, unit))
    metrics = {}
    for name, (value, unit) in totals.items():
        if name in NOT_PER_OP:
            metrics[name] = (value, unit)
        else:
            metrics[name] = (value / out.traced_units if out.traced_units else 0.0,
                             f"{unit}/op")
    metrics["obs.trace_overhead_frac"] = (out.trace_overhead, "fraction")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
