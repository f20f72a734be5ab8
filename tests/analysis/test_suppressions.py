"""Suppression-comment semantics: same-line, line-above, families,
reasons, and the requires-reason escalation for DEC-002."""

from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.suppressions import scan_suppressions

ROOT = Path(__file__).parents[2]


def _lint(source: str, relpath: str):
    return LintEngine(root=ROOT).lint_source(source, relpath)


WALLCLOCK = "import time\n\ndef f():\n    return time.time()%s\n"


def test_unsuppressed_fires():
    res = _lint(WALLCLOCK % "", "src/repro/core/x.py")
    assert [d.rule_id for d in res.diagnostics] == ["DET-001"]


def test_same_line_suppression():
    res = _lint(WALLCLOCK % "  # repro-lint: disable=DET-001",
                "src/repro/core/x.py")
    assert res.diagnostics == []
    assert [d.rule_id for d in res.suppressed] == ["DET-001"]


def test_line_above_suppression():
    src = ("import time\n\ndef f():\n"
           "    # repro-lint: disable=DET-001 -- fixture clock\n"
           "    return time.time()\n")
    res = _lint(src, "src/repro/core/x.py")
    assert res.diagnostics == []
    assert len(res.suppressed) == 1
    supp = scan_suppressions(src)
    assert supp[5].reason == "fixture clock"


def test_family_suppression():
    res = _lint(WALLCLOCK % "  # repro-lint: disable=DET",
                "src/repro/core/x.py")
    assert res.diagnostics == []


def test_wrong_id_does_not_suppress():
    res = _lint(WALLCLOCK % "  # repro-lint: disable=NPY-001",
                "src/repro/core/x.py")
    assert [d.rule_id for d in res.diagnostics] == ["DET-001"]


BROAD = ("def decompress(blob):\n"
         "    try:\n"
         "        return blob\n"
         "    except Exception:%s\n"
         "        return None\n")


def test_requires_reason_without_reason_still_fails():
    res = _lint(BROAD % "  # repro-lint: disable=DEC-002",
                "src/repro/encoding/x.py")
    assert len(res.diagnostics) == 1
    assert "suppression ignored" in res.diagnostics[0].message


def test_requires_reason_with_reason_suppresses():
    res = _lint(BROAD % "  # repro-lint: disable=DEC-002 -- worker boundary",
                "src/repro/encoding/x.py")
    assert res.diagnostics == []
    assert [d.rule_id for d in res.suppressed] == ["DEC-002"]


def test_multiple_ids_one_comment():
    src = ("import time, os\n\ndef f():\n"
           "    return time.time(), os.urandom(4)"
           "  # repro-lint: disable=DET-001,DET-003\n")
    res = _lint(src, "src/repro/core/x.py")
    assert res.diagnostics == []
    assert len(res.suppressed) == 2


def test_stacked_standalone_comments_merge():
    # two separate disable comments above one line must both apply
    src = ("import time, os\n\ndef f():\n"
           "    # repro-lint: disable=DET-001 -- fixture clock\n"
           "    # repro-lint: disable=DET-003 -- nonce, not data-affecting\n"
           "    return time.time(), os.urandom(4)\n")
    res = _lint(src, "src/repro/core/x.py")
    assert res.diagnostics == []
    assert {d.rule_id for d in res.suppressed} == {"DET-001", "DET-003"}
    supp = scan_suppressions(src)
    assert supp[6].ids == frozenset({"DET-001", "DET-003"})
    assert supp[6].reason == "fixture clock; nonce, not data-affecting"


def test_stacked_plus_trailing_comment_merge():
    src = ("import time, os\n\ndef f():\n"
           "    # repro-lint: disable=DET-001\n"
           "    return time.time(), os.urandom(4)"
           "  # repro-lint: disable=DET-003\n")
    res = _lint(src, "src/repro/core/x.py")
    assert res.diagnostics == []
    assert {d.rule_id for d in res.suppressed} == {"DET-001", "DET-003"}


def test_comment_chain_targets_first_code_line():
    src = ("import time\n\ndef f():\n"
           "    # repro-lint: disable=DET-001 -- why\n"
           "    # another comment\n"
           "\n"
           "    return time.time()\n")
    res = _lint(src, "src/repro/core/x.py")
    assert res.diagnostics == []


def test_syntax_error_reported_as_syntax_diagnostic():
    res = _lint("def broken(:\n", "src/repro/core/x.py")
    assert [d.rule_id for d in res.diagnostics] == ["SYNTAX"]
    assert res.diagnostics[0].line == 1
