"""Engine robustness: unparseable inputs, path scoping, registry
invariants. A broken file must cost one SYNTAX finding, never a crash."""

from pathlib import Path

import pytest

from repro.analysis import LintEngine
from repro.analysis.registry import _RULES, Rule, match_path, register

ROOT = Path(__file__).parents[2]


# -- unparseable / unreadable files ---------------------------------------


def test_syntax_error_yields_one_diagnostic(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n    pass\n", encoding="utf-8")
    result = LintEngine(root=tmp_path).run([bad])
    assert [d.rule_id for d in result.diagnostics] == ["SYNTAX"]
    assert result.diagnostics[0].line == 1
    assert result.exit_code == 1


def test_null_bytes_yield_syntax_not_crash(tmp_path):
    bad = tmp_path / "nul.py"
    bad.write_bytes(b"x = 1\x00\n")
    result = LintEngine(root=tmp_path).run([bad])
    assert [d.rule_id for d in result.diagnostics] == ["SYNTAX"]
    # 3.12+ parses null bytes into a SyntaxError; older ast raised ValueError
    assert "null bytes" in result.diagnostics[0].message


def test_non_utf8_yields_syntax_not_crash(tmp_path):
    bad = tmp_path / "latin.py"
    bad.write_bytes(b"# caf\xe9\nx = 1\n")
    result = LintEngine(root=tmp_path).run([bad])
    assert [d.rule_id for d in result.diagnostics] == ["SYNTAX"]
    assert "unreadable" in result.diagnostics[0].message


def test_linting_continues_past_broken_files(tmp_path):
    (tmp_path / "a_broken.py").write_text("def f(:\n", encoding="utf-8")
    (tmp_path / "b_fine.py").write_text("x = 1\n", encoding="utf-8")
    result = LintEngine(root=tmp_path).run([tmp_path])
    assert result.files_checked == 2
    assert [d.rule_id for d in result.diagnostics] == ["SYNTAX"]
    assert result.diagnostics[0].path.endswith("a_broken.py")


# -- path scoping ----------------------------------------------------------


def test_match_path_double_star():
    assert match_path("src/repro/core/x.py", "src/repro/core/**")
    assert match_path("src/repro/core/deep/x.py", "src/repro/core/**")
    assert not match_path("src/repro/obs/x.py", "src/repro/core/**")
    assert match_path("src/repro/__init__.py", "src/repro/__init__.py")


def test_engine_honours_exclude():
    """The known-bad fixture corpus is skipped by a tree walk, whether
    named as a file or reached through its directory."""
    engine = LintEngine(root=ROOT)
    fixture = ROOT / "tests/analysis/fixtures/determinism/bad_wallclock.py"
    assert engine.run([fixture]).files_checked == 0
    assert engine.run([ROOT / "tests/analysis/fixtures"]).files_checked == 0


# -- registry invariants ---------------------------------------------------


def test_duplicate_rule_id_is_rejected():
    class Imposter(Rule):
        id = "DET-001"
        family = "determinism"
        description = "duplicate"

        def check(self, ctx):
            return ()

    original = _RULES["DET-001"]
    with pytest.raises(ValueError, match="duplicate rule id 'DET-001'"):
        register(Imposter)
    assert _RULES["DET-001"] is original   # registry left untouched
