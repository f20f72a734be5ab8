"""Meta-tests: the fixture corpus must keep pace with the rule registry.

Every registered rule needs at least one known-bad fixture that makes it
fire and at least one known-good fixture it runs on silently — otherwise
a rule can rot (never firing, or firing on everything) without any test
noticing. Adding a rule without extending the corpus fails here.
"""

from pathlib import Path

import pytest

from repro.analysis import LintEngine, all_rules
from repro.analysis.registry import ProjectRule, WholeProgramRule
from repro.analysis.rules.repo_hygiene import NoTrackedBytecode

from tests.analysis.test_fixture_corpus import BAD_CORPUS, GOOD_CORPUS
from tests.analysis.test_whole_program import WP_BAD, WP_GOOD

FIXTURES = Path(__file__).parent / "fixtures"

#: Engine-emitted pseudo-diagnostics, not registry rules: no fixtures owed.
PSEUDO_RULES = {"SYNTAX", "BAS-001"}


def _registered():
    per_file, project, whole_program = {}, {}, {}
    for rule in all_rules():
        if isinstance(rule, WholeProgramRule):
            whole_program[rule.id] = rule
        elif isinstance(rule, ProjectRule):
            project[rule.id] = rule
        else:
            per_file[rule.id] = rule
    return per_file, project, whole_program


def test_every_per_file_rule_has_a_bad_fixture():
    per_file, _, _ = _registered()
    covered = {rid for _, _, ids, _ in BAD_CORPUS for rid in ids}
    missing = set(per_file) - covered
    assert not missing, f"rules with no known-bad fixture: {sorted(missing)}"


def test_every_per_file_rule_has_a_good_fixture_in_scope():
    """Each rule must *run* on some good fixture (scope match) and stay
    silent — test_good_fixture_clean asserts the silence."""
    per_file, _, _ = _registered()
    uncovered = {
        rid for rid, rule in per_file.items()
        if not any(rule.applies_to(lint_as) for _, lint_as in GOOD_CORPUS)
    }
    assert not uncovered, \
        f"rules no good fixture is in scope for: {sorted(uncovered)}"


def test_every_whole_program_rule_has_bad_and_good_trees():
    _, _, whole_program = _registered()
    fired = {rid for _, expected in WP_BAD for rid in expected}
    missing = set(whole_program) - fired
    assert not missing, f"WP rules with no bad tree: {sorted(missing)}"
    # every WP rule runs on every good tree; the trees must exist
    for tree in WP_GOOD:
        assert (FIXTURES / "whole_program" / tree / "src/repro").is_dir()


def test_project_rules_covered_by_hygiene_fixtures():
    _, project, _ = _registered()
    assert set(project) == {"HYG-001"}, \
        "new ProjectRule: give it fixtures and extend this test"


# -- HYG-001 via tracked-file-list fixtures --------------------------------


def _hyg_diags(monkeypatch, listing: str):
    tracked = (FIXTURES / "hygiene" / listing).read_text(
        encoding="utf-8").splitlines()
    import repro.analysis.rules.repo_hygiene as hyg
    monkeypatch.setattr(hyg, "_git_tracked_files", lambda root: tracked)
    return list(NoTrackedBytecode().check_project(Path("/nonexistent")))


def test_hyg001_fires_on_bad_tracked_listing(monkeypatch):
    diags = _hyg_diags(monkeypatch, "bad_tracked.txt")
    assert {d.path for d in diags} == {
        "src/repro/core/__pycache__/pipeline.cpython-312.pyc",
        "build/lib/repro/core.pyo",
    }
    assert all(d.rule_id == "HYG-001" for d in diags)


def test_hyg001_silent_on_good_tracked_listing(monkeypatch):
    assert _hyg_diags(monkeypatch, "good_tracked.txt") == []


# -- totals ----------------------------------------------------------------


def test_registry_and_corpus_cover_the_same_rule_ids():
    per_file, project, whole_program = _registered()
    registered = set(per_file) | set(project) | set(whole_program)
    assert PSEUDO_RULES.isdisjoint(registered)
    with_fixtures = (
        {rid for _, _, ids, _ in BAD_CORPUS for rid in ids}
        | {rid for _, expected in WP_BAD for rid in expected}
        | {"HYG-001"}
    )
    assert with_fixtures == registered, (
        f"fixtures without rules: {sorted(with_fixtures - registered)}; "
        f"rules without fixtures: {sorted(registered - with_fixtures)}")
