"""Kill-resumable experiment sweeps over {dataset x error bound x codec}.

The paper's evaluation (Tables 3-6, Figs 10-14) is one long grid of
independent measurements. This driver decomposes that grid into
idempotent **cells**, journals each cell's lifecycle in a crash-consistent
run ledger (:mod:`repro.runtime`), and commits every cell's artifact with
:func:`repro.runtime.atomic_write` — so a sweep killed at *any* instant
(SIGKILL included) resumes with ``--resume`` and recomputes only the work
that never durably finished.

Cell identity is a stable BLAKE2b digest of
``(kind, experiment, dataset, compressor, rel_eb, seed, config)``; the
same plan always yields the same ids, which is what lets a resumed
process recognise prior work. The commit-ordering invariant (artifact
committed atomically *before* the ``done`` ledger record) makes replay
conservative: a ``done`` record is proof the artifact exists.

Scheduling features:

* **Resume** — ``done`` cells whose artifact still matches its recorded
  digest are skipped; ``running`` orphans (the process died mid-cell) and
  ``failed`` cells are requeued; all replay decisions are counted in the
  report and in ``sweep.*`` metrics.
* **Retries** — per-cell retry budget and bounded exponential backoff
  from :class:`repro.parallel.RetryPolicy`, validated before the ledger opens.
* **Circuit breaker** — N >= 1 *consecutive* failures of one codec open its
  :class:`repro.service.breakers.CodecBreaker` (the service's breaker; an
  infinite cooldown keeps it open for the rest of the run): its remaining
  cells are skipped (ledger ``breaker_open`` / ``breaker_skip`` events,
  ``sweep.breaker_open.<subject>`` gauge and ``.tripped`` counter) instead
  of burning the rest of the budget on a broken codec.
* **Deadline** — ``--deadline S`` sheds the lowest-priority (latest in
  plan order) cells once the budget is spent, recording a ``shed`` event
  per cell, instead of dying mid-flight with nothing journaled.
* **Fault injection** — ``--inject-faults`` wires :mod:`repro.faults`
  in: ``crash``/``slow`` clauses apply per cell (serial semantics), and
  the ``kill`` clause crashes the process at a chosen stage of a cell's
  artifact commit — the drill the crash/resume CI job runs.

Run it standalone (``python -m repro.experiments.sweep``) or through the
CLI (``python -m repro sweep``)::

    python -m repro.experiments.sweep --out runs/s1 \\
        --datasets SSH --shape 12,10,48 --compressors SZ3,ZFP \\
        --rel-ebs 1e-2,1e-3 --deadline 600
    python -m repro.experiments.sweep --out runs/s1 --resume  # after a kill
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime import RunLedger, atomic_write, replay_ledger
from repro.runtime.ledger import LEDGER_FILENAME, blake2b_bytes

__all__ = [
    "SweepCell",
    "SweepReport",
    "plan_grid",
    "plan_experiments",
    "execute_cell",
    "run_sweep",
    "add_arguments",
    "run_from_args",
    "main",
    "DEFAULT_COMPRESSORS",
]

DEFAULT_COMPRESSORS = ("CliZ", "SZ3", "QoZ", "ZFP", "SPERR")


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepCell:
    """One idempotent unit of sweep work.

    ``priority`` orders execution (lower runs first) and decides what a
    deadline sheds; it is *not* part of the cell's identity digest, so
    re-prioritising a plan never invalidates finished work.
    """

    kind: str                      # 'measure' | 'experiment'
    experiment: str                # harness name (whole-run cells) or grid tag
    dataset: str = ""
    compressor: str = ""
    rel_eb: float = 0.0
    seed: int = 0
    config: tuple = ()             # sorted (key, value) identity pairs
    priority: int = 0

    @property
    def cell_id(self) -> str:
        payload = json.dumps({
            "kind": self.kind,
            "experiment": self.experiment,
            "dataset": self.dataset,
            "compressor": self.compressor,
            "rel_eb": self.rel_eb,
            "seed": self.seed,
            "config": [[k, list(v) if isinstance(v, tuple) else v]
                       for k, v in self.config],
        }, sort_keys=True)
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()

    def describe(self) -> dict:
        """Human/ledger-facing identity (stored in the ``planned`` record)."""
        out = {"kind": self.kind, "experiment": self.experiment, "seed": self.seed}
        if self.kind == "measure":
            out.update(dataset=self.dataset, compressor=self.compressor,
                       rel_eb=self.rel_eb)
        return out

    def label(self) -> str:
        if self.kind == "measure":
            return f"{self.dataset}/{self.compressor}@{self.rel_eb:g}"
        return self.experiment


def plan_grid(datasets, rel_ebs, compressors=DEFAULT_COMPRESSORS, *,
              seed: int = 0, shape: tuple | None = None,
              sampling_rate: float = 0.01) -> list[SweepCell]:
    """The rate-distortion grid: one cell per (dataset, eb, compressor)."""
    config = []
    if shape is not None:
        config.append(("shape", tuple(int(s) for s in shape)))
    config.append(("sampling_rate", float(sampling_rate)))
    config = tuple(sorted(config))
    cells = []
    for dataset in datasets:
        for rel_eb in rel_ebs:
            for compressor in compressors:
                cells.append(SweepCell(
                    kind="measure", experiment="grid", dataset=dataset,
                    compressor=compressor, rel_eb=float(rel_eb), seed=seed,
                    config=config, priority=len(cells)))
    return cells


def plan_experiments(names, *, seed: int = 0,
                     priority_base: int = 0) -> list[SweepCell]:
    """Whole-harness cells: one cell per experiment module ``run()``."""
    return [SweepCell(kind="experiment", experiment=name, seed=seed,
                      priority=priority_base + i)
            for i, name in enumerate(names)]


# ---------------------------------------------------------------------- #
def _jsonify(obj):
    """Coerce numpy scalars/arrays into plain JSON types (deterministic)."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return obj.item()
    return obj


def execute_cell(cell: SweepCell) -> dict:
    """Run one cell and return its artifact payload (JSON-safe, and free
    of wall-clock values for ``measure`` cells, so artifacts are
    byte-reproducible across runs and restarts)."""
    if cell.kind == "experiment":
        module = importlib.import_module(f"repro.experiments.{cell.experiment}")
        result = module.run()
        return {"experiment": cell.experiment, "title": result.title,
                "rows": _jsonify(result.rows), "notes": list(result.notes)}
    if cell.kind != "measure":
        raise ValueError(f"unknown cell kind {cell.kind!r}")

    from repro.datasets import load
    from repro.experiments.common import (
        BASELINES,
        measure_point,
        rel_eb_to_abs,
        tuned_config,
    )

    cfg = dict(cell.config)
    kwargs = {"shape": tuple(cfg["shape"])} if "shape" in cfg else {}
    fieldobj = load(cell.dataset, **kwargs)
    eb = rel_eb_to_abs(fieldobj, cell.rel_eb)
    if cell.compressor == "CliZ":
        from repro import CliZ

        tune = tuned_config(fieldobj, rel_eb=cell.rel_eb,
                            sampling_rate=cfg.get("sampling_rate", 0.01))
        point, _ = measure_point(CliZ(tune.best), fieldobj, eb, pass_mask=True)
    else:
        point, _ = measure_point(BASELINES[cell.compressor](), fieldobj, eb)
    return {
        "dataset": cell.dataset,
        "compressor": cell.compressor,
        "rel_eb": cell.rel_eb,
        "abs_eb": float(eb),
        "bit_rate": float(point.bit_rate),
        "compression_ratio": float(point.compression_ratio),
        "psnr": float(point.psnr),
        "ssim": float(point.ssim),
    }


# ---------------------------------------------------------------------- #
@dataclass
class SweepReport:
    """Outcome of one ``run_sweep`` invocation (one process lifetime)."""

    out_dir: str
    planned: int = 0
    executed: int = 0            # cells computed (and committed) this run
    skipped: int = 0             # done-and-verified cells replayed from ledger
    requeued: int = 0            # running orphans found on resume
    retried_failed: int = 0      # previously-failed cells requeued on resume
    failed: int = 0              # cells that exhausted their retry budget
    shed: int = 0                # cells dropped by the deadline
    breaker_skipped: int = 0     # cells skipped by an open breaker
    torn_tail_bytes: int = 0     # journal bytes healed at open
    breakers_open: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)   # artifacts, plan order

    @property
    def complete(self) -> bool:
        return self.skipped + self.executed == self.planned

    def lines(self) -> list[str]:
        out = [f"== sweep: {self.out_dir} =="]
        out.append(f"   cells: {self.planned} planned, {self.executed} executed, "
                   f"{self.skipped} skipped (ledger), {self.failed} failed, "
                   f"{self.shed} shed, {self.breaker_skipped} breaker-skipped")
        if self.requeued or self.retried_failed:
            out.append(f"   resume: {self.requeued} running orphan(s) requeued, "
                       f"{self.retried_failed} failed cell(s) retried")
        if self.torn_tail_bytes:
            out.append(f"   ledger: healed {self.torn_tail_bytes} torn tail byte(s)")
        if self.breakers_open:
            out.append(f"   circuit breaker OPEN for: {', '.join(self.breakers_open)}")
        out.append(f"   status: {'complete' if self.complete else 'INCOMPLETE'}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines())

    def print(self) -> None:  # noqa: A003 - mirrors the harness contract
        print(self.text())


# ---------------------------------------------------------------------- #
def _clean_stale_tmps(directory: Path) -> int:
    """Remove temp files a killed atomic_write left behind (crash janitor)."""
    n = 0
    if directory.is_dir():
        for tmp in directory.glob(".*.tmp"):
            tmp.unlink(missing_ok=True)
            n += 1
    return n


def _update_live_progress(report: SweepReport, remaining: int,
                          exec_seconds: float) -> None:
    """Refresh the sweep's live progress gauges after each cell.

    ``sweep.eta_seconds`` is the mean executed-cell duration times the
    remaining cell count — crude but honest, and it converges as the
    sweep runs. All of this lands on ``/metrics`` when the sweep was
    started with ``--serve-metrics``.
    """
    from repro import obs

    obs.set_gauge("sweep.progress.done", report.executed)
    obs.set_gauge("sweep.progress.failed", report.failed)
    obs.set_gauge("sweep.progress.pending", remaining)
    if report.executed:
        obs.set_gauge("sweep.eta_seconds",
                      exec_seconds / report.executed * remaining)


def run_sweep(out, cells: list[SweepCell], *, resume: bool = False,
              faults=None, retries: int = 0, retry_backoff: float = 0.05,
              deadline: float | None = None, breaker_threshold: int = 3,
              fsync: bool = True) -> SweepReport:
    """Execute a cell plan under the run ledger; see the module docstring.

    Raises ``FileExistsError`` when ``out`` already holds ledger records
    and ``resume`` is False — continuing a previous run must be an
    explicit decision, not an accident that silently mixes two sweeps.
    Invalid ``retries``, ``retry_backoff`` or ``breaker_threshold`` raise
    ``ValueError`` before anything is written.
    """
    from repro import obs
    from repro.faults import FaultInjectedError
    from repro.parallel import RetryPolicy
    from repro.service.breakers import BreakerBoard

    policy = RetryPolicy(retries=retries, backoff=retry_backoff)
    breakers = BreakerBoard(threshold=breaker_threshold, cooldown=math.inf,
                            namespace="sweep.breaker_open")
    out = Path(out)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    ledger = RunLedger(out / LEDGER_FILENAME, fsync=fsync)
    state = replay_ledger(ledger.path)
    if state.records and not resume:
        raise FileExistsError(
            f"{ledger.path} already has {state.records} record(s); pass "
            "resume=True (--resume) to continue it, or use a fresh --out dir")

    plan = sorted(cells, key=lambda c: (c.priority,))
    report = SweepReport(out_dir=str(out), planned=len(plan),
                        torn_tail_bytes=ledger.healed_bytes)
    janitor = _clean_stale_tmps(cells_dir)
    if resume:
        ledger.event("resume", records=state.records, torn=state.torn_lines,
                     healed_bytes=ledger.healed_bytes, stale_tmps=janitor)

    t0 = time.monotonic()
    pending: list[tuple[int, SweepCell]] = []

    # ----- replay: classify every planned cell against the journal ----- #
    for idx, cell in enumerate(plan):
        cid = cell.cell_id
        status = state.status(cid)
        if status == "done" and state.verified_done(cid, out):
            report.skipped += 1
            obs.inc_counter("sweep.ledger.skipped")
            continue
        if status == "done":
            # artifact vanished or digest mismatch: the ledger is conservative,
            # so recompute rather than trust a torn/tampered file
            ledger.event("requeue", cell=cid, reason="artifact_mismatch")
            obs.inc_counter("sweep.ledger.requeued")
            report.requeued += 1
        elif status == "running":
            ledger.event("requeue", cell=cid, reason="orphan")
            obs.inc_counter("sweep.ledger.requeued")
            report.requeued += 1
        elif status == "failed":
            ledger.event("requeue", cell=cid, reason="retry_failed")
            obs.inc_counter("sweep.ledger.refailed")
            report.retried_failed += 1
        elif status is None:
            ledger.planned(cid, meta=cell.describe())
        pending.append((idx, cell))

    # ----- execute ----------------------------------------------------- #
    exec_seconds = 0.0
    with obs.span("sweep", n_cells=len(plan), pending=len(pending)):
        for pos, (idx, cell) in enumerate(pending):
            if deadline is not None and time.monotonic() - t0 > deadline:
                for _, shed_cell in pending[pos:]:
                    ledger.event("shed", cell=shed_cell.cell_id,
                                 reason="deadline")
                    obs.inc_counter("sweep.cells_shed")
                    report.shed += 1
                break
            subject = cell.compressor or cell.experiment
            breaker = breakers.for_codec(subject)
            if not breaker.allow():
                ledger.event("breaker_skip", cell=cell.cell_id,
                             subject=subject)
                obs.inc_counter("sweep.breaker_skipped")
                report.breaker_skipped += 1
                continue
            cid = cell.cell_id
            directive = faults.job_faults("sweep", idx) if faults is not None \
                else None
            attempt = 1
            t_cell = time.monotonic()
            while True:
                ledger.running(cid, attempt)
                try:
                    if directive is not None:
                        if attempt <= directive.crash_attempts:
                            raise FaultInjectedError(
                                f"injected cell crash (attempt {attempt}"
                                f"/{directive.crash_attempts})")
                        if directive.delay > 0.0:
                            time.sleep(directive.delay)
                    with obs.span("sweep_cell", cell=cid, label=cell.label()):
                        payload = execute_cell(cell)
                    blob = (json.dumps(payload, sort_keys=True, indent=1)
                            + "\n").encode()
                    kill = faults.kill_directive(cid, index=idx) \
                        if faults is not None else None
                    artifact = f"cells/{cid}.json"
                    # commit-ordering invariant: artifact first, then 'done'
                    atomic_write(out / artifact, blob, fsync=fsync, kill=kill)
                    ledger.done(cid, artifact, blake2b_bytes(blob), attempt)
                    obs.inc_counter("sweep.cells_done")
                    cell_dur = time.monotonic() - t_cell
                    exec_seconds += cell_dur
                    obs.observe_latency("sweep.cell", cell_dur)
                    obs.inc_counter("sweep.cells")
                    report.executed += 1
                    breaker.record(True)
                    break
                # cell boundary: like repro.parallel's job boundary, ANY
                # failure becomes a ledger record (or a retry) so one broken
                # codec cannot abort its siblings mid-sweep.
                except Exception as exc:  # noqa: BLE001
                    from repro.runtime import InjectedKillError

                    if isinstance(exc, InjectedKillError):
                        raise  # simulated process death: nothing may run after
                    if attempt > policy.retries:
                        ledger.failed(cid, f"{exc}", type(exc).__name__, attempt)
                        obs.inc_counter("sweep.cells_failed")
                        report.failed += 1
                        if breaker.record(False):
                            ledger.event("breaker_open", subject=subject,
                                         failures=breaker.consecutive)
                        break
                    obs.inc_counter("sweep.retries")
                    time.sleep(policy.delay(attempt))
                    attempt += 1
            _update_live_progress(report, len(pending) - pos - 1, exec_seconds)

    # ----- collect artifacts (plan order) and the aggregate result ----- #
    final = replay_ledger(ledger.path)
    for cell in plan:
        rec = final.record(cell.cell_id)
        if rec is not None and rec["status"] == "done":
            artifact = out / rec["artifact"]
            try:
                report.rows.append(json.loads(artifact.read_text()))
            except (OSError, ValueError):  # pragma: no cover - janitor race
                continue
    results = {"cells": report.rows, "planned": len(plan),
               "complete": report.complete}
    atomic_write(out / "results.json",
                 json.dumps(results, sort_keys=True, indent=1) + "\n",
                 fsync=fsync)
    report.breakers_open = [subject for subject, snap
                            in breakers.snapshot().items()
                            if snap["state"] == "open"]
    return report


# ---------------------------------------------------------------------- #
def _csv(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, metavar="DIR",
                   help="sweep directory (ledger.jsonl, cells/, results.json)")
    p.add_argument("--resume", action="store_true",
                   help="continue a previous run: skip done cells, requeue "
                        "orphans (required when the ledger is non-empty)")
    p.add_argument("--datasets", default="SSH",
                   help="comma-separated dataset names (default: SSH)")
    p.add_argument("--rel-ebs", default="1e-2,1e-3",
                   help="comma-separated relative error bounds")
    p.add_argument("--compressors", default=",".join(DEFAULT_COMPRESSORS),
                   help="comma-separated codec display names")
    p.add_argument("--experiments", default=None,
                   help="also run whole experiment harnesses as cells "
                        "(comma-separated module names)")
    p.add_argument("--shape", default=None,
                   help="synthesize datasets at this shape, e.g. 12,10,48 "
                        "(smoke/CI scale)")
    p.add_argument("--sampling-rate", type=float, default=0.01,
                   help="CliZ tuner sampling rate (default 0.01)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (part of every cell's identity digest)")
    p.add_argument("--retries", type=int, default=0,
                   help="per-cell retries with exponential backoff")
    p.add_argument("--retry-backoff", type=float, default=0.05,
                   help="base backoff seconds between retries")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive failures (>= 1) that open a codec's "
                        "circuit breaker")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="wall-clock budget: shed remaining cells past this")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault spec; the kill clause crashes "
                        "the process at an artifact commit stage "
                        "(see docs/ROBUSTNESS.md)")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip fsyncs (tests only: durability not guaranteed)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write sweep trace spans as JSONL")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write sweep metrics (ledger/breaker counters) as JSONL")
    p.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="serve live telemetry over HTTP while the sweep runs "
                        "(Prometheus /metrics plus /health and /snapshot; "
                        "0 binds an ephemeral port)")


def run_from_args(args) -> int:
    from repro import obs
    from repro.faults import parse_fault_spec

    shape = tuple(int(s) for s in _csv(args.shape)) if args.shape else None
    cells = plan_grid(_csv(args.datasets),
                      [float(e) for e in _csv(args.rel_ebs)],
                      _csv(args.compressors), seed=args.seed, shape=shape,
                      sampling_rate=args.sampling_rate)
    if args.experiments:
        cells += plan_experiments(_csv(args.experiments), seed=args.seed,
                                  priority_base=len(cells))
    faults = parse_fault_spec(args.inject_faults) if args.inject_faults else None
    serve = getattr(args, "serve_metrics", None) is not None
    run = obs.start_run(tags={"command": "sweep"}) \
        if (args.trace_out or args.metrics_out or serve) else None
    server = None
    if serve:
        from repro.obs.server import serve_from_args

        server = serve_from_args(args)
    try:
        report = run_sweep(args.out, cells, resume=args.resume, faults=faults,
                           retries=args.retries, retry_backoff=args.retry_backoff,
                           deadline=args.deadline,
                           breaker_threshold=args.breaker_threshold,
                           fsync=not args.no_fsync)
    finally:
        if server is not None:
            server.stop()
    if run is not None:
        obs.end_run()
        if args.trace_out:
            obs.write_trace_jsonl(run, args.trace_out)
        if args.metrics_out:
            obs.write_metrics_jsonl(run, args.metrics_out)
    report.print()
    return 1 if report.failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="kill-resumable experiment sweep with a crash-consistent "
                    "run ledger")
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
