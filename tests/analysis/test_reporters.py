"""Reporter output contracts: the JSON schema CI consumes, and the text
format humans read."""

import json
from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.reporters import JSON_REPORT_VERSION, render_json, render_text

ROOT = Path(__file__).parents[2]
FIXTURES = ROOT / "tests/analysis/fixtures"


def _result():
    engine = LintEngine(root=ROOT)
    return engine.run([FIXTURES / "determinism/bad_wallclock.py"],
                      lint_as="src/repro/core/stamp.py")


def test_json_schema():
    payload = json.loads(render_json(_result()))
    assert payload["version"] == JSON_REPORT_VERSION
    assert set(payload) >= {"version", "files_checked", "rules_run",
                            "diagnostics", "suppressed", "summary", "exit_code"}
    assert payload["files_checked"] == 1
    assert payload["exit_code"] == 1
    assert payload["summary"]["total"] == len(payload["diagnostics"])
    assert payload["summary"]["by_rule"].get("DET-001") == 2
    diag = payload["diagnostics"][0]
    assert set(diag) == {"rule", "family", "path", "line", "col", "message"}
    assert diag["path"] == "src/repro/core/stamp.py"


def test_text_format():
    text = render_text(_result())
    lines = text.splitlines()
    assert lines[0].startswith("src/repro/core/stamp.py:")
    assert "DET-001" in lines[0]
    assert "2 findings" in lines[-1]


def test_text_clean_run_summary():
    engine = LintEngine(root=ROOT)
    result = engine.run([FIXTURES / "determinism/good_seeded.py"],
                        lint_as="src/repro/core/sampling.py")
    text = render_text(result)
    assert text.splitlines()[-1].startswith("0 findings")
    assert json.loads(render_json(result))["exit_code"] == 0
