"""Baseline machinery: load validation, absorption, stale-entry reporting."""

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, BaselineEntry, LintEngine
from repro.analysis.baseline import stale_diagnostics
from repro.analysis.diagnostics import Diagnostic

FIXTURES = Path(__file__).parent / "fixtures" / "whole_program"


def _write(tmp_path, payload) -> Path:
    p = tmp_path / "lint-baseline.json"
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def _entry(**over):
    raw = {"rule": "EXC-001", "path": "src/repro/x.py",
           "symbol": "repro.x.f", "reason": "why"}
    raw.update(over)
    return raw


def _diag(**over):
    raw = dict(rule_id="EXC-001", family="exception-flow",
               path="src/repro/x.py", line=10, col=0,
               message="repro.x.f: KeyError can escape (raised in repro.x.g)")
    raw.update(over)
    return Diagnostic(**raw)


# -- loading ----------------------------------------------------------------


def test_load_roundtrip(tmp_path):
    p = _write(tmp_path, {"version": 1, "entries": [_entry(contains="KeyError")]})
    baseline = Baseline.load(p)
    assert baseline.entries == [BaselineEntry(
        rule="EXC-001", path="src/repro/x.py", symbol="repro.x.f",
        reason="why", contains="KeyError")]


def test_load_rejects_wrong_version(tmp_path):
    p = _write(tmp_path, {"version": 2, "entries": []})
    with pytest.raises(ValueError, match="version"):
        Baseline.load(p)


def test_load_rejects_missing_reason(tmp_path):
    raw = _entry()
    del raw["reason"]
    p = _write(tmp_path, {"version": 1, "entries": [raw]})
    with pytest.raises(ValueError, match="reason is mandatory"):
        Baseline.load(p)


def test_load_rejects_blank_reason(tmp_path):
    p = _write(tmp_path, {"version": 1, "entries": [_entry(reason="  ")]})
    with pytest.raises(ValueError, match="empty"):
        Baseline.load(p)


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "lint-baseline.json"
    p.write_text("{nope", encoding="utf-8")
    with pytest.raises(ValueError, match="cannot read"):
        Baseline.load(p)


# -- matching ---------------------------------------------------------------


def test_absorbs_on_rule_path_symbol_and_contains():
    baseline = Baseline(entries=[BaselineEntry(
        rule="EXC-001", path="src/repro/x.py", symbol="repro.x.f",
        reason="why", contains="KeyError")])
    assert baseline.absorbs(_diag())
    assert baseline.stale_entries() == []


def test_does_not_absorb_different_rule_or_path():
    baseline = Baseline(entries=[BaselineEntry(
        rule="EXC-001", path="src/repro/x.py", symbol="repro.x.f",
        reason="why")])
    assert not baseline.absorbs(_diag(rule_id="EXC-002"))
    assert not baseline.absorbs(_diag(path="src/repro/y.py"))
    assert not baseline.absorbs(
        _diag(message="repro.x.other: KeyError can escape"))


def test_stale_entries_become_errors():
    baseline = Baseline(entries=[BaselineEntry(
        rule="EXC-001", path="src/repro/x.py", symbol="repro.x.gone",
        reason="why")])
    diags = stale_diagnostics(baseline)
    assert len(diags) == 1
    assert diags[0].rule_id == "BAS-001"
    assert "repro.x.gone" in diags[0].message
    # a stale entry fails the run like any other finding
    from repro.analysis import LintResult
    assert LintResult(diagnostics=diags).exit_code == 1


# -- engine integration -----------------------------------------------------


def test_baseline_absorbs_whole_program_finding(tmp_path):
    baseline = Baseline(entries=[BaselineEntry(
        rule="EXC-002", path="src/repro/service/handlers.py",
        symbol="repro.service.handlers.do_echo",
        contains="repro.service.handlers._mirror", reason="fixture")])
    engine = LintEngine(root=FIXTURES / "exc_bad")
    result = engine.run([], whole_program=True, baseline=baseline)
    assert not any(d.rule_id == "EXC-002" for d in result.diagnostics)
    assert any(d.rule_id == "EXC-002" for d in result.suppressed)
    # the EXC-001 findings are untouched
    assert sum(d.rule_id == "EXC-001" for d in result.diagnostics) == 4
    assert not any(d.rule_id == "BAS-001" for d in result.diagnostics)


def test_stale_baseline_entry_surfaces_in_run(tmp_path):
    baseline = Baseline(entries=[BaselineEntry(
        rule="RES-001", path="src/repro/io/gone.py",
        symbol="repro.io.gone.nothing", reason="obsolete")])
    engine = LintEngine(root=FIXTURES / "res_good")
    result = engine.run([], whole_program=True, baseline=baseline)
    stale = [d for d in result.diagnostics if d.rule_id == "BAS-001"]
    assert len(stale) == 1
    assert result.exit_code == 1
