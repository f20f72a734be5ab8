"""Offline telemetry analysis: ``python -m repro obs <subcommand>``.

Post-hoc counterpart of the live ``/metrics`` endpoint — it ingests the
telemetry files the repo already produces (trace/metrics JSONL from
``--trace-out`` / ``--metrics-out``, a sweep's ``ledger.jsonl``, and
``BENCH_*.json`` benchmark documents) and answers the operational
questions offline:

* ``report FILE...``      — per-stage throughput tables (calls, total
  time, exact p50/p95/p99, MB/s) from trace files; metric / ledger /
  bench summaries for the other kinds. Every line is schema-validated;
  violations exit non-zero (CI runs this over uploaded artifacts).
* ``top FILE``            — the N slowest spans.
* ``critical-path FILE``  — the heaviest root-to-leaf span chain of a
  run: where the wall-clock actually went.
* ``diff BASELINE CURRENT`` — machine-speed-normalized regression diff
  between two benchmark/telemetry files. The verdict logic
  (:func:`normalized_regressions`) is the *same code* the
  ``bench_codec`` CI gate calls, so ``repro obs diff BENCH_codec.json
  new.json`` reproduces the gate's pass/fail exactly.

File kinds are sniffed from content, not extension, so a sweep directory
(``ledger.jsonl`` inside), a bench JSON, and JSONL telemetry can be
mixed in one ``report`` invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

__all__ = [
    "classify_file",
    "load_any",
    "normalized_regressions",
    "throughput_series",
    "stage_table",
    "print_stage_table",
    "critical_path",
    "add_arguments",
    "run_from_args",
    "main",
]


# ---------------------------------------------------------------------- #
# Ingestion: sniff + load any of the repo's telemetry file kinds.

def classify_file(path) -> str:
    """One of ``trace`` / ``metrics`` / ``ledger`` / ``bench`` / ``unknown``.

    Directories holding a ``ledger.jsonl`` classify as ``ledger`` (the
    sweep dir is the natural handle). Content-based: the first JSON
    object decides.
    """
    path = Path(path)
    if path.is_dir():
        return "ledger" if (path / "ledger.jsonl").exists() else "unknown"
    # sniff from the first non-blank line only — trace JSONL files can be
    # huge and load_any reads them anyway, so don't slurp the file twice
    first_line = ""
    with path.open("r", errors="replace") as fh:
        for line in fh:
            if line.strip():
                first_line = line.strip()
                break
    if not first_line or first_line[0] != "{":
        return "unknown"
    try:
        rec = json.loads(first_line)
    except json.JSONDecodeError:
        # a multi-line pretty-printed JSON document (bench output) is the
        # one case that genuinely needs the full text
        try:
            doc = json.loads(path.read_text(errors="replace"))
        except json.JSONDecodeError:
            return "unknown"
        return "bench" if isinstance(doc, dict) and (
            "results" in doc or "smoke_baseline" in doc) else "unknown"
    if rec.get("type") == "span":
        return "trace"
    if rec.get("type") in ("counter", "gauge", "histogram"):
        return "metrics"
    if rec.get("rec") in ("cell", "event"):
        return "ledger"
    if isinstance(rec, dict) and ("results" in rec or "smoke_baseline" in rec):
        return "bench"  # bench document serialized on a single line
    return "unknown"


def load_any(path) -> tuple[str, object]:
    """``(kind, payload)``: records list for JSONL kinds, dict for bench.

    Trace and metrics lines are schema-validated on load — a malformed
    or future-versioned line raises ``ValueError`` (the CLI maps that to
    a non-zero exit).
    """
    from repro.obs.sinks import (
        load_jsonl,
        validate_metrics_line,
        validate_trace_line,
    )

    kind = classify_file(path)
    path = Path(path)
    if kind == "trace":
        records = load_jsonl(path)
        for rec in records:
            validate_trace_line(rec)
        return kind, records
    if kind == "metrics":
        records = load_jsonl(path)
        for rec in records:
            validate_metrics_line(rec)
        return kind, records
    if kind == "ledger":
        ledger = path / "ledger.jsonl" if path.is_dir() else path
        return kind, load_jsonl(ledger)
    if kind == "bench":
        return kind, json.loads(path.read_text())
    raise ValueError(f"{path}: unrecognized telemetry file "
                     "(not trace/metrics JSONL, ledger.jsonl, or bench JSON)")


# ---------------------------------------------------------------------- #
# Aggregations.

def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list (exact, offline)."""
    if not sorted_vals:
        raise ValueError("no values")
    idx = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[int(idx)]


def stage_table(spans: list[dict]) -> list[dict]:
    """Per-path aggregate rows from span records, heaviest total first."""
    by_path: dict[str, list[dict]] = {}
    for rec in spans:
        by_path.setdefault(rec["path"], []).append(rec)
    rows = []
    for stage_path, recs in by_path.items():
        durs = sorted(float(r["dur"]) for r in recs)
        total = sum(durs)
        nbytes = sum(int(r.get("nbytes", 0)) for r in recs)
        errors = sum(1 for r in recs if r.get("status") == "error")
        rows.append({
            "path": stage_path,
            "calls": len(recs),
            "errors": errors,
            "total_s": total,
            "mean_ms": total / len(recs) * 1e3,
            "p50_ms": _percentile(durs, 0.50) * 1e3,
            "p95_ms": _percentile(durs, 0.95) * 1e3,
            "p99_ms": _percentile(durs, 0.99) * 1e3,
            "nbytes": nbytes,
            "mb_s": (nbytes / total / 1e6) if total > 0 and nbytes else None,
        })
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def critical_path(spans: list[dict]) -> list[dict]:
    """The root-to-leaf chain maximizing summed duration.

    Spans form a forest via ``parent`` ids; the critical path is the
    chain a latency hunter should walk first. Returns the chain's span
    records, root first. Trace files are untrusted input: a cyclic
    ``parent`` graph raises ``ValueError`` (the CLI's schema-violation
    exit), and the walk is iterative so arbitrarily deep chains cannot
    blow the recursion limit.
    """
    if not spans:
        return []
    by_id = {rec["id"]: rec for rec in spans}
    children: dict[str, list[dict]] = {}
    roots = []
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(rec)
        else:
            roots.append(rec)

    # best[id] = (chain weight from this span down, rec, heaviest child id)
    best: dict[str, tuple[float, dict, str | None]] = {}

    def resolve(root: dict) -> float:
        # explicit-stack post-order: children resolve before their parent
        stack = [(root, False)]
        in_flight: set[str] = set()
        while stack:
            rec, expanded = stack.pop()
            span_id = rec["id"]
            if not expanded:
                if span_id in best:
                    continue
                if span_id in in_flight:
                    raise ValueError(
                        f"cycle in span parent links at id {span_id!r}")
                in_flight.add(span_id)
                stack.append((rec, True))
                for kid in children.get(span_id, ()):
                    if kid["id"] not in best:
                        stack.append((kid, False))
            else:
                in_flight.discard(span_id)
                tail_w, tail_id = 0.0, None
                for kid in children.get(span_id, ()):
                    w = best[kid["id"]][0]
                    if w > tail_w:
                        tail_w, tail_id = w, kid["id"]
                best[span_id] = (float(rec["dur"]) + tail_w, rec, tail_id)
        return best[root["id"]][0]

    best_root, weight = None, 0.0
    for root in roots:
        w = resolve(root)
        if w > weight:
            weight, best_root = w, root
    if best_root is None:
        return []
    chain: list[dict] = []
    next_id: str | None = best_root["id"]
    while next_id is not None:
        _, rec, next_id = best[next_id]
        chain.append(rec)
    return chain


# ---------------------------------------------------------------------- #
# Machine-normalized regression diff (shared with the bench_codec gate).

def normalized_regressions(ratios: list[tuple[str, float]],
                           tolerance: float) -> list[str]:
    """Failure messages for rows regressing beyond the normalized floor.

    ``ratios`` are ``(label, current/baseline)`` throughput ratios. The
    median ratio is taken as the machine-speed factor — a uniformly
    faster or slower machine moves every ratio together and passes; a
    single path slower than ``(1 - tolerance) * median`` is a genuine
    regression and fails. This is the ``bench_codec.py`` CI gate verdict,
    factored out so ``repro obs diff`` reproduces it bit-for-bit.
    """
    if not ratios:
        return ["regression gate: no comparable rows between current run "
                "and baseline (codec/dataset sets disjoint?)"]
    median = statistics.median(r for _, r in ratios)
    floor = (1.0 - tolerance) * median
    return [
        f"{label}: {ratio:.2f}x vs baseline is below the gate floor "
        f"{floor:.2f}x (median machine factor {median:.2f}x, "
        f"tolerance {tolerance:.0%})"
        for label, ratio in ratios if ratio < floor
    ]


def throughput_series(path) -> dict[str, float]:
    """``{label: MB/s}`` throughput series from a bench or metrics file.

    Bench JSON rows contribute ``codec/dataset/compress_mb_s`` (and
    decompress); metrics JSONL contributes every gauge whose name ends in
    ``_mb_s`` or ``.mb_s``. For bench documents with both a full-run
    section and a ``smoke_baseline``, the section matching the *other*
    file is chosen by the diff command.
    """
    kind, payload = load_any(path)
    series: dict[str, float] = {}
    if kind == "bench":
        for row in _bench_rows(payload, smoke=None):
            for metric in ("compress_mb_s", "decompress_mb_s"):
                if row.get(metric):
                    series[f"{row['codec']}/{row['dataset']}/{metric}"] = \
                        float(row[metric])
    elif kind == "metrics":
        for rec in payload:
            name = rec["name"]
            if rec["type"] == "gauge" and rec["value"] is not None and \
                    (name.endswith("_mb_s") or name.endswith(".mb_s")):
                series[name] = float(rec["value"])
    else:
        raise ValueError(f"{path}: diff needs a bench JSON or metrics JSONL "
                         f"file, got {kind}")
    return series


def _bench_rows(doc: dict, smoke: bool | None) -> list[dict]:
    """Result rows of a bench document, honoring the smoke section.

    ``smoke=None`` auto-detects from the document's own config;
    ``smoke=True`` prefers the committed ``smoke_baseline`` section —
    exactly what the CI gate compares against.
    """
    if smoke is None:
        smoke = bool(doc.get("config", {}).get("smoke"))
    if smoke and isinstance(doc.get("smoke_baseline"), dict):
        return doc["smoke_baseline"].get("results", [])
    return doc.get("results", [])


def diff_files(baseline, current, tolerance: float = 0.20) -> tuple[list[str], int]:
    """``(messages, n_compared)`` for the diff verdict between two files."""
    cur_kind = classify_file(current)
    if cur_kind == "bench":
        _, cur_doc = load_any(current)
        cur_rows = _bench_rows(cur_doc, smoke=None)
        cur_series = {}
        for row in cur_rows:
            for metric in ("compress_mb_s", "decompress_mb_s"):
                if row.get(metric):
                    cur_series[f"{row['codec']}/{row['dataset']}/{metric}"] = \
                        float(row[metric])
        smoke = bool(cur_doc.get("config", {}).get("smoke"))
    else:
        cur_series = throughput_series(current)
        smoke = None
    base_kind = classify_file(baseline)
    if base_kind == "bench":
        _, base_doc = load_any(baseline)
        base_series = {}
        for row in _bench_rows(base_doc, smoke=smoke):
            for metric in ("compress_mb_s", "decompress_mb_s"):
                if row.get(metric):
                    base_series[f"{row['codec']}/{row['dataset']}/{metric}"] = \
                        float(row[metric])
    else:
        base_series = throughput_series(baseline)
    ratios = [(label, cur_series[label] / base_series[label])
              for label in sorted(cur_series)
              if label in base_series and base_series[label] > 0]
    return normalized_regressions(ratios, tolerance), len(ratios)


# ---------------------------------------------------------------------- #
# Rendering.

def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GB"


def print_stage_table(rows: list[dict], file=None) -> None:
    """Print :func:`stage_table` rows; ``!`` flags a path with failed spans."""
    print(f"{'path':44s} {'calls':>6s} {'total s':>8s} {'p50 ms':>8s} "
          f"{'p95 ms':>8s} {'p99 ms':>8s} {'MB/s':>8s}", file=file)
    for row in rows:
        mbs = f"{row['mb_s']:.1f}" if row["mb_s"] else "-"
        flag = " !" if row["errors"] else ""
        print(f"{row['path'][:44]:44s} {row['calls']:6d} {row['total_s']:8.3f} "
              f"{row['p50_ms']:8.2f} {row['p95_ms']:8.2f} {row['p99_ms']:8.2f} "
              f"{mbs:>8s}{flag}", file=file)


def _report_one(path) -> None:
    kind, payload = load_any(path)
    print(f"== {path} ({kind}) ==")
    if kind == "trace":
        print_stage_table(stage_table(payload))
    elif kind == "metrics":
        for rec in payload:
            if rec["type"] == "counter":
                print(f"  counter   {rec['name']:44s} {rec['value']}")
            elif rec["type"] == "gauge":
                print(f"  gauge     {rec['name']:44s} {rec['value']}")
            else:
                mean = rec["sum"] / rec["count"] if rec["count"] else 0.0
                print(f"  histogram {rec['name']:44s} n={rec['count']} "
                      f"mean={mean:.4g} min={rec.get('min')} max={rec.get('max')}")
    elif kind == "ledger":
        _report_ledger(payload)
    elif kind == "bench":
        for row in _bench_rows(payload, smoke=None):
            print(f"  {row['codec']:10s} {row['dataset']:14s} "
                  f"ratio {row.get('ratio', 0):6.2f}  "
                  f"compress {row.get('compress_mb_s', 0):8.2f} MB/s  "
                  f"decompress {row.get('decompress_mb_s', 0):8.2f} MB/s")


def _report_ledger(records: list[dict]) -> None:
    status: dict[str, str] = {}
    attempts: dict[str, int] = {}
    events: dict[str, int] = {}
    for rec in records:
        if rec.get("rec") == "cell":
            status[rec["cell"]] = rec["status"]
            if "attempt" in rec:
                attempts[rec["cell"]] = max(
                    attempts.get(rec["cell"], 0), int(rec["attempt"]))
        elif rec.get("rec") == "event":
            events[rec["kind"]] = events.get(rec["kind"], 0) + 1
    counts: dict[str, int] = {}
    for st in status.values():
        counts[st] = counts.get(st, 0) + 1
    total = len(status)
    print(f"  cells: {total} "
          f"({', '.join(f'{v} {k}' for k, v in sorted(counts.items()))})")
    retried = sum(1 for a in attempts.values() if a > 1)
    if retried:
        print(f"  retried cells: {retried} "
              f"(max attempt {max(attempts.values())})")
    if events:
        print("  events: " + ", ".join(f"{k} x{v}"
                                       for k, v in sorted(events.items())))


# ---------------------------------------------------------------------- #
# CLI.

def cmd_report(args) -> int:
    for path in args.files:
        try:
            _report_one(path)
        except ValueError as exc:
            print(f"SCHEMA VIOLATION: {exc}", file=sys.stderr)
            return 2
    return 0


def cmd_top(args) -> int:
    try:
        kind, spans = load_any(args.file)
    except ValueError as exc:
        print(f"SCHEMA VIOLATION: {exc}", file=sys.stderr)
        return 2
    if kind != "trace":
        print(f"top needs a trace JSONL file, got {kind}", file=sys.stderr)
        return 2
    ranked = sorted(spans, key=lambda r: -float(r["dur"]))[:args.n]
    print(f"{'dur ms':>10s} {'bytes':>10s}  path")
    for rec in ranked:
        print(f"{float(rec['dur']) * 1e3:10.2f} "
              f"{_fmt_bytes(int(rec.get('nbytes', 0))):>10s}  {rec['path']}")
    return 0


def cmd_critical_path(args) -> int:
    try:
        kind, spans = load_any(args.file)
    except ValueError as exc:
        print(f"SCHEMA VIOLATION: {exc}", file=sys.stderr)
        return 2
    if kind != "trace":
        print(f"critical-path needs a trace JSONL file, got {kind}",
              file=sys.stderr)
        return 2
    try:
        chain = critical_path(spans)
    except ValueError as exc:
        print(f"SCHEMA VIOLATION: {exc}", file=sys.stderr)
        return 2
    if not chain:
        print("no spans")
        return 0
    total = sum(float(rec["dur"]) for rec in chain)
    print(f"critical path: {len(chain)} span(s), {total * 1e3:.2f} ms")
    for depth, rec in enumerate(chain):
        share = float(rec["dur"]) / total * 100 if total > 0 else 0.0
        print(f"  {'  ' * depth}{rec['name']:30s} "
              f"{float(rec['dur']) * 1e3:10.2f} ms  {share:5.1f}%")
    return 0


def cmd_diff(args) -> int:
    try:
        failures, compared = diff_files(args.baseline, args.current,
                                        args.tolerance)
    except ValueError as exc:
        print(f"SCHEMA VIOLATION: {exc}", file=sys.stderr)
        return 2
    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        return 1
    print(f"no regression: {compared} row(s) within "
          f"{args.tolerance:.0%} of the machine-normalized baseline")
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="obs_command", required=True)

    p = sub.add_parser("report", help="summarize telemetry files "
                                      "(trace/metrics JSONL, ledger, bench)")
    p.add_argument("files", nargs="+",
                   help="telemetry files or sweep dirs (kind is sniffed)")
    p.set_defaults(obs_func=cmd_report)

    p = sub.add_parser("top", help="slowest spans of a trace file")
    p.add_argument("file")
    p.add_argument("-n", type=int, default=10, help="rows to show (default 10)")
    p.set_defaults(obs_func=cmd_top)

    p = sub.add_parser("critical-path",
                       help="heaviest root-to-leaf span chain of a run")
    p.add_argument("file")
    p.set_defaults(obs_func=cmd_critical_path)

    p = sub.add_parser("diff", help="machine-normalized regression diff "
                                    "(same verdict as the bench CI gate)")
    p.add_argument("baseline")
    p.add_argument("current")
    p.add_argument("--tolerance", type=float, default=0.20,
                   help="allowed normalized per-row slowdown (default 0.20)")
    p.set_defaults(obs_func=cmd_diff)


def run_from_args(args) -> int:
    return args.obs_func(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="offline telemetry analysis "
                    "(report / top / critical-path / diff)")
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
