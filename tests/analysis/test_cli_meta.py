"""CLI behaviour and the meta-invariant: the repo's own tree lints clean,
so CI greenness and the lint baseline can never drift apart."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintEngine, all_rules
from repro.analysis.cli import build_parser, main as lint_main

from tests.analysis.test_fixture_corpus import plant_fixture

ROOT = Path(__file__).parents[2]
FIXTURES = ROOT / "tests/analysis/fixtures"


def test_repo_tree_is_lint_clean():
    """`repro-lint src tests` on the current tree must exit 0."""
    engine = LintEngine(root=ROOT)
    result = engine.run([ROOT / "src", ROOT / "tests"])
    assert result.diagnostics == [], "\n".join(
        d.format_text() for d in result.diagnostics)
    assert result.exit_code == 0
    assert result.files_checked > 100  # sanity: it actually walked the tree


def test_repo_tree_is_whole_program_clean():
    """`repro-lint --whole-program` with the committed baseline exits 0.

    Every finding must be either fixed in source or carried in
    ``lint-baseline.json`` with a reason; a stale baseline entry shows up
    here as a BAS-001 diagnostic and fails the assertion too.
    """
    from repro.analysis import Baseline

    baseline = Baseline.load(ROOT / "lint-baseline.json")
    engine = LintEngine(root=ROOT)
    result = engine.run([], whole_program=True, baseline=baseline)
    assert result.diagnostics == [], "\n".join(
        d.format_text() for d in result.diagnostics)
    assert result.exit_code == 0
    # the baseline is doing work, not rotting: every entry matched
    assert baseline.stale_entries() == []
    assert any(d.rule_id.startswith(("EXC", "CONC", "RES"))
               for d in result.suppressed) or result.suppressed == []


def test_cli_whole_program_json_smoke(tmp_path):
    """The CI invocation end-to-end: --whole-program --output, the root's
    lint-baseline.json applied, machine-readable artifact written."""
    out = tmp_path / "whole-program.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "tests",
         "--whole-program", "--output", str(out)],
        cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("0 findings")
    payload = json.loads(out.read_text())
    assert payload["summary"]["total"] == 0
    wp_rules = {"EXC-001", "EXC-002", "RES-001",
                "CONC-001", "CONC-002", "CONC-003"}
    assert wp_rules <= set(payload["rules_run"])


def test_hyg001_fires_on_tracked_bytecode(tmp_path):
    """True positive for the project-level rule: a committed .pyc fails."""
    import os
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}

    def git(*args):
        return subprocess.run(["git", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    if git("init").returncode != 0:
        return  # git unavailable
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    (tmp_path / "stale.pyc").write_bytes(b"\0")
    git("add", "-f", ".")
    result = LintEngine(root=tmp_path).run([tmp_path])
    hits = [d for d in result.diagnostics if d.rule_id == "HYG-001"]
    assert len(hits) == 2
    assert result.exit_code == 1


def test_no_bytecode_tracked_by_git():
    proc = subprocess.run(["git", "ls-files"], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return  # not a git checkout
    bad = [p for p in proc.stdout.splitlines()
           if "__pycache__" in p or p.endswith((".pyc", ".pyo"))]
    assert bad == []


def test_module_entry_point_runs():
    """`python -m repro.analysis` is the CI invocation; smoke it end-to-end."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "tests"],
        cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("0 findings")


def test_help_lists_three_options():
    options = {opt for action in build_parser()._actions
               for opt in action.option_strings} - {"-h", "--help"}
    assert options == {"--whole-program", "--output"}
    with pytest.raises(SystemExit) as exc:      # removed flags are usage errors
        lint_main(["--select", "DET", "src"])
    assert exc.value.code == 2


def test_doc_rule_table_matches_registry():
    """docs/STATIC_ANALYSIS.md's rule tables list exactly the registered
    rule ids plus the engine's SYNTAX and BAS-001."""
    doc = (ROOT / "docs/STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\| (SYNTAX|[A-Z]+-\d{3}) \|", doc, re.MULTILINE)
    assert len(listed) == len(set(listed)), "a rule id is listed twice"
    assert set(listed) == {r.id for r in all_rules()} | {"SYNTAX", "BAS-001"}


def test_missing_path_exits_2(capsys):
    assert lint_main(["definitely/not/here.py"]) == 2


def test_lint_as_requires_single_file():
    with pytest.raises(ValueError, match="exactly one input file"):
        LintEngine(root=ROOT).run([FIXTURES / "determinism"],
                                  lint_as="src/repro/core/x.py")


def test_json_output_file(tmp_path, monkeypatch, capsys):
    """A bad file at an in-scope path of a scratch repo: exit 1, the text
    report on stdout, the JSON report in --output."""
    plant_fixture(tmp_path, "determinism/bad_wallclock.py",
                  "src/repro/core/stamp.py")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert lint_main(["src", "--output", str(out)]) == 1
    text = capsys.readouterr().out
    assert "src/repro/core/stamp.py:" in text and "DET-001" in text
    payload = json.loads(out.read_text())
    assert payload["summary"]["by_rule"] == {"DET-001": 2}
    assert payload["exit_code"] == 1


def test_run_from_subdirectory_scopes_to_repo_root(tmp_path, monkeypatch,
                                                   capsys):
    """Paths are scoped to the nearest pyproject.toml's directory, so a run
    from inside the tree applies the same rule scopes."""
    stamp = plant_fixture(tmp_path, "determinism/bad_wallclock.py",
                          "src/repro/core/stamp.py")
    monkeypatch.chdir(stamp.parent)
    assert lint_main(["stamp.py"]) == 1
    assert "src/repro/core/stamp.py:" in capsys.readouterr().out
