"""The chaos drill: all invariants hold and the event log is deterministic."""

import json

import pytest

from repro.obs import trace
from repro.service.drill import run_drill


def test_drill_passes_and_is_deterministic(tmp_path):
    trace.end_run()
    rc1, report1 = run_drill(seed=9, report_path=tmp_path / "drill1.json",
                             verbose=False)
    rc2, report2 = run_drill(seed=9, report_path=tmp_path / "drill2.json",
                             verbose=False)
    assert rc1 == 0 and rc2 == 0
    assert report1["ok"] and not report1["failures"]
    assert report1["invariants_passed"] == report2["invariants_passed"] > 0
    # same seed -> byte-identical event log, pinned across refactors
    assert report1["event_digest"] == report2["event_digest"] == (
        "29b4c1eea60a154331f4fe432cf328ccec13ea3fc8f42eb853cc9287d3a48950")
    assert report1["events"] == report2["events"]
    on_disk = json.loads((tmp_path / "drill1.json").read_text())
    assert on_disk["event_digest"] == report1["event_digest"]
    # every phase ran and the fault soup exercised every failure mode
    assert set(report1["phases"]) == {
        "soup", "breaker", "salvage", "overload", "metrics"}
    counts = report1["phases"]["soup"]["counts"]
    for kind in ("aborted", "codec_failure", "blob_io", "ok"):
        assert counts[kind] > 0


def test_different_seed_changes_the_log(tmp_path):
    trace.end_run()
    rc1, report1 = run_drill(seed=9, report_path=tmp_path / "a.json",
                             verbose=False)
    rc2, report2 = run_drill(seed=21, report_path=tmp_path / "b.json",
                             verbose=False)
    assert rc1 == 0 and rc2 == 0
    assert report1["event_digest"] != report2["event_digest"]


def test_phase_selection_and_validation(tmp_path):
    trace.end_run()
    with pytest.raises(ValueError, match="unknown drill phase"):
        run_drill(seed=9, verbose=False, phases=("soup", "nope"))
    rc, report = run_drill(seed=9, report_path=tmp_path / "one.json",
                           verbose=False, phases=("salvage",))
    assert rc == 0 and report["ok"]
    assert report["phases_run"] == ["salvage"]
    assert set(report["phases"]) == {"salvage"}  # no metrics scrape either


def test_shardkill_phase_is_deterministic(tmp_path):
    """The cluster phase: same seed -> same victim, same event log."""
    trace.end_run()
    rc1, report1 = run_drill(seed=9, report_path=tmp_path / "k1.json",
                             verbose=False, phases=("shardkill",))
    rc2, report2 = run_drill(seed=9, report_path=tmp_path / "k2.json",
                             verbose=False, phases=("shardkill",))
    assert rc1 == 0 and rc2 == 0
    assert report1["ok"] and not report1["failures"]
    assert report1["phases_run"] == ["shardkill"]
    assert report1["event_digest"] == report2["event_digest"] == (
        "5d90eaac9e7a878598799661bb1de2d9eec09eadc3f88a6f7fa5fd871d7d3b15")
    assert report1["events"] == report2["events"]
    shard = report1["phases"]["shardkill"]
    assert shard["restarts"] >= 1 and shard["n_shards"] == 2
