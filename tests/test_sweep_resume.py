"""Kill-resumable sweeps: ledger replay, breakers, deadlines, and the
SIGKILL crash drill.

The headline contract: a sweep killed at any instant and resumed with
``--resume`` converges to cell artifacts and ``results.json`` that are
**byte-identical** to an uninterrupted run — artifacts and ledger records
are wall-clock-free, and cell identity digests are stable across
processes.
"""

import json
import math
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.faults import parse_fault_spec
from repro.runtime import InjectedKillError, replay_ledger
from repro.runtime.ledger import LEDGER_FILENAME
from repro.service.breakers import BreakerBoard
from repro.experiments.sweep import (
    SweepCell,
    plan_grid,
    run_sweep,
)

ROOT = Path(__file__).parents[1]
SHAPE = (12, 10, 48)  # tiny synthetic SSH: each cell runs in milliseconds


def tiny_plan(compressors=("SZ3", "ZFP"), rel_ebs=(1e-2,)):
    return plan_grid(["SSH"], list(rel_ebs), list(compressors), shape=SHAPE)


def artifact_bytes(out) -> dict:
    """cells/*.json plus results.json, name -> bytes."""
    out = Path(out)
    files = {p.name: p.read_bytes() for p in sorted((out / "cells").glob("*.json"))}
    files["results.json"] = (out / "results.json").read_bytes()
    return files


def done_digests(out) -> dict:
    state = replay_ledger(Path(out) / LEDGER_FILENAME)
    return {c: state.record(c)["digest"] for c in state.by_status("done")}


# ---------------------------------------------------------------------- #
class TestCellIdentity:
    def test_digest_is_stable_and_priority_free(self):
        a = SweepCell(kind="measure", experiment="grid", dataset="SSH",
                      compressor="SZ3", rel_eb=1e-2, priority=0)
        b = SweepCell(kind="measure", experiment="grid", dataset="SSH",
                      compressor="SZ3", rel_eb=1e-2, priority=99)
        assert a.cell_id == b.cell_id  # re-prioritising keeps work valid
        c = SweepCell(kind="measure", experiment="grid", dataset="SSH",
                      compressor="ZFP", rel_eb=1e-2)
        assert a.cell_id != c.cell_id

    def test_plan_grid_ids_unique(self):
        cells = tiny_plan(rel_ebs=(1e-2, 1e-3))
        ids = {c.cell_id for c in cells}
        assert len(ids) == len(cells) == 4


# ---------------------------------------------------------------------- #
class TestBreaker:
    def test_success_resets_the_streak(self):
        # the board as run_sweep builds it: never half-opens within a run
        board = BreakerBoard(threshold=2, cooldown=math.inf,
                             namespace="sweep.breaker_open")
        br = board.for_codec("SZ3")
        br.record(False)
        br.record(True)
        assert br.record(False) is False
        assert br.allow() and br.state == "closed"


# ---------------------------------------------------------------------- #
class TestRunSweep:
    def test_fresh_run_completes(self, tmp_path):
        report = run_sweep(tmp_path, tiny_plan(), fsync=False)
        assert report.complete and report.executed == 2
        state = replay_ledger(tmp_path / LEDGER_FILENAME)
        assert sorted(state.by_status("done")) == \
            sorted(c.cell_id for c in tiny_plan())
        results = json.loads((tmp_path / "results.json").read_text())
        assert results["complete"] and len(results["cells"]) == 2
        for row in results["cells"]:
            # tiny smoke-scale fields can compress below 1:1; only require
            # a sane, populated measurement
            assert row["compression_ratio"] > 0.0
            assert row["bit_rate"] > 0.0

    def test_refuses_to_reuse_dir_without_resume(self, tmp_path):
        run_sweep(tmp_path, tiny_plan(), fsync=False)
        with pytest.raises(FileExistsError, match="--resume"):
            run_sweep(tmp_path, tiny_plan(), fsync=False)

    def test_resume_skips_verified_done_cells(self, tmp_path):
        run_sweep(tmp_path, tiny_plan(), fsync=False)
        before = artifact_bytes(tmp_path)
        report = run_sweep(tmp_path, tiny_plan(), resume=True, fsync=False)
        assert report.skipped == 2 and report.executed == 0
        assert report.complete
        assert artifact_bytes(tmp_path) == before  # bytes untouched

    def test_resume_event_records_the_healed_tail(self, tmp_path):
        """The ledger heals a torn tail as it opens, before the replay: the
        resume event carries the damage as ``healed_bytes`` alone."""
        run_sweep(tmp_path, tiny_plan(), fsync=False)
        with open(tmp_path / LEDGER_FILENAME, "ab") as fh:
            fh.write(b'{"rec": "ce')  # a crash mid-append: 11 bytes, no newline
        report = run_sweep(tmp_path, [], resume=True, fsync=False)
        assert report.torn_tail_bytes == 11
        (event,) = [rec for rec in replay_ledger(tmp_path / LEDGER_FILENAME).events
                    if rec["kind"] == "resume"]
        assert event["healed_bytes"] == 11 and "torn" not in event

    def test_resume_recomputes_tampered_artifact(self, tmp_path):
        run_sweep(tmp_path, tiny_plan(), fsync=False)
        victim = next((tmp_path / "cells").glob("*.json"))
        good = victim.read_bytes()
        victim.write_bytes(b"{}")
        report = run_sweep(tmp_path, tiny_plan(), resume=True, fsync=False)
        assert report.requeued == 1 and report.executed == 1
        assert victim.read_bytes() == good  # idempotent recompute

    def test_resume_requeues_running_orphan(self, tmp_path):
        run_sweep(tmp_path, tiny_plan(), fsync=False)
        # forge a process that died mid-cell: running record, no done
        orphan = SweepCell(kind="measure", experiment="grid", dataset="SSH",
                           compressor="SZ3", rel_eb=5e-3,
                           config=(("sampling_rate", 0.01),
                                   ("shape", SHAPE)), priority=99)
        with open(tmp_path / LEDGER_FILENAME, "a") as fh:
            fh.write(json.dumps({"rec": "cell", "cell": orphan.cell_id,
                                 "status": "running", "attempt": 1}) + "\n")
        report = run_sweep(tmp_path, tiny_plan() + [orphan],
                           resume=True, fsync=False)
        assert report.requeued == 1 and report.skipped == 2
        assert report.executed == 1 and report.complete

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        plan = tiny_plan()
        # cell 0 crashes on its only attempt -> 'failed' in the ledger
        faults = parse_fault_spec("seed=1;crash:only=0")
        report = run_sweep(tmp_path, plan, faults=faults, fsync=False)
        assert report.failed == 1 and report.executed == 1
        report = run_sweep(tmp_path, plan, resume=True, fsync=False)
        assert report.retried_failed == 1 and report.executed == 1
        assert report.complete

    def test_retry_budget_recovers_injected_crash(self, tmp_path):
        faults = parse_fault_spec("seed=1;crash:only=0:attempts=1")
        report = run_sweep(tmp_path, tiny_plan(), faults=faults,
                           retries=1, retry_backoff=0.0, fsync=False)
        assert report.failed == 0 and report.complete

    def test_breaker_skips_remaining_cells_of_broken_codec(self, tmp_path):
        plan = tiny_plan(compressors=("Nope",), rel_ebs=(1e-2, 1e-3))
        with obs.run() as run:
            report = run_sweep(tmp_path, plan, breaker_threshold=1,
                               fsync=False)
        assert report.failed == 1 and report.breaker_skipped == 1
        assert report.breakers_open == ["Nope"]
        state = replay_ledger(tmp_path / LEDGER_FILENAME)
        kinds = [e["kind"] for e in state.events]
        assert "breaker_open" in kinds and "breaker_skip" in kinds
        snap = run.metrics.snapshot()
        assert snap["sweep.breaker_open.Nope"]["value"] == 1.0
        assert snap["sweep.breaker_open.Nope.tripped"]["value"] == 1

    @pytest.mark.parametrize("plan, kwargs", [
        (tiny_plan(compressors=("Nope",)), {"retries": 1, "retry_backoff": -1.0}),
        (tiny_plan(), {"retries": -1}),
        (tiny_plan(), {"breaker_threshold": 0}),
    ], ids=["negative-backoff", "negative-retries", "zero-threshold"])
    def test_invalid_settings_rejected_before_any_record(self, tmp_path,
                                                         plan, kwargs):
        with pytest.raises(ValueError):
            run_sweep(tmp_path, plan, fsync=False, **kwargs)
        assert replay_ledger(tmp_path / LEDGER_FILENAME).records == 0

    def test_deadline_sheds_lowest_priority_cells(self, tmp_path):
        report = run_sweep(tmp_path, tiny_plan(), deadline=-1.0, fsync=False)
        assert report.shed == 2 and report.executed == 0
        assert not report.complete
        state = replay_ledger(tmp_path / LEDGER_FILENAME)
        assert [e["kind"] for e in state.events] == ["shed", "shed"]


# ---------------------------------------------------------------------- #
class TestKillResume:
    """Crash at an artifact-commit stage, resume, compare to a clean run."""

    def reference(self, tmp_path):
        ref = tmp_path / "ref"
        run_sweep(ref, tiny_plan(), fsync=False)
        return artifact_bytes(ref), done_digests(ref)

    @pytest.mark.parametrize("stage", ["mid_write", "pre_commit", "post_commit"])
    def test_soft_kill_then_resume_is_byte_identical(self, tmp_path, stage):
        ref_bytes, ref_digests = self.reference(tmp_path)
        out = tmp_path / "killed"
        faults = parse_fault_spec(f"seed=3;kill:only=1:at={stage}:hard=0")
        with pytest.raises(InjectedKillError):
            run_sweep(out, tiny_plan(), faults=faults, fsync=False)
        # the interrupted run must not have fabricated a 'done' record
        state = replay_ledger(out / LEDGER_FILENAME)
        assert len(state.by_status("done")) == 1

        report = run_sweep(out, tiny_plan(), resume=True, fsync=False)
        assert report.complete and report.requeued == 1
        assert artifact_bytes(out) == ref_bytes
        assert done_digests(out) == ref_digests

    def test_hard_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """The full drill: a real SIGKILL mid-commit in a subprocess,
        then ``--resume`` in a fresh process (satellite d)."""
        ref_bytes, ref_digests = self.reference(tmp_path)
        out = tmp_path / "killed"
        base = [sys.executable, "-m", "repro.experiments.sweep",
                "--out", str(out), "--datasets", "SSH",
                "--shape", ",".join(map(str, SHAPE)),
                "--compressors", "SZ3,ZFP", "--rel-ebs", "1e-2",
                "--no-fsync"]
        env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}

        killed = subprocess.run(
            base + ["--inject-faults", "seed=3;kill:only=1:at=pre_commit"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        state = replay_ledger(out / LEDGER_FILENAME)
        assert len(state.by_status("done")) == 1  # first cell committed
        assert state.by_status("running")          # second died mid-cell

        resumed = subprocess.run(base + ["--resume"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=120)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "1 running orphan(s) requeued" in resumed.stdout
        assert artifact_bytes(out) == ref_bytes
        assert done_digests(out) == ref_digests
