"""Fixture-corpus tests: every rule family has true-positive and
true-negative snippets, and the CLI exits non-zero on each known-bad one.

Each fixture is linted *as if* it lived at an in-scope repo path
(``lint_as``), which is how the engine's path scoping is meant to be
exercised without planting bad code inside ``src/``.
"""

from pathlib import Path

import pytest

from repro.analysis import LintEngine
from repro.analysis.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture relpath, lint-as path, rule ids that must fire, expected count)
BAD_CORPUS = [
    ("determinism/bad_wallclock.py", "src/repro/core/stamp.py",
     {"DET-001"}, 2),
    ("determinism/bad_unseeded_rng.py", "src/repro/prediction/jitter.py",
     {"DET-002"}, 3),
    ("determinism/bad_entropy.py", "src/repro/encoding/ids.py",
     {"DET-003"}, 2),
    ("decode_safety/bad_broad_except.py", "src/repro/encoding/toy.py",
     {"DEC-002"}, 2),
    ("decode_safety/bad_foreign_catch.py", "src/repro/encoding/toy.py",
     {"DEC-001"}, 3),
    ("numpy_hygiene/bad_float_eq.py", "src/repro/quantization/cls.py",
     {"NPY-001"}, 2),
    ("numpy_hygiene/bad_alloc.py", "src/repro/encoding/scratch.py",
     {"NPY-002"}, 2),
    ("numpy_hygiene/bad_mutable_default.py", "src/repro/core/acc.py",
     {"NPY-003"}, 2),
    ("obs_coverage/bad_untraced.py", "src/repro/baselines/toy.py",
     {"OBS-001"}, 2),
    ("api_consistency/bad_missing_all.py", "src/repro/toy/__init__.py",
     {"API-001"}, 1),
    ("api_consistency/bad_stale_entry.py", "src/repro/toy/__init__.py",
     {"API-002"}, 1),
    ("api_consistency/bad_unlisted_reexport.py", "src/repro/toy/__init__.py",
     {"API-003"}, 1),
    ("durability/bad_plain_open.py", "src/repro/io/report.py",
     {"DUR-001"}, 2),
    ("decode_safety/bad_service_catch.py", "src/repro/service/handlers.py",
     {"DEC-003"}, 3),
    ("decode_safety/bad_cluster_catch.py", "src/repro/service/router.py",
     {"DEC-003"}, 3),
    # the transport grant is scoped to the cluster modules: the very file
    # that is clean at a cluster path fires on every transport catch here
    ("decode_safety/good_cluster_catch.py", "src/repro/service/handlers.py",
     {"DEC-003"}, 4),
]

GOOD_CORPUS = [
    ("determinism/good_seeded.py", "src/repro/core/sampling.py"),
    ("decode_safety/good_decode_errors.py", "src/repro/encoding/toy.py"),
    ("numpy_hygiene/good_numpy.py", "src/repro/encoding/scratch.py"),
    ("obs_coverage/good_traced.py", "src/repro/baselines/toy.py"),
    ("api_consistency/good_init.py", "src/repro/toy/__init__.py"),
    ("api_consistency/good_lazy_getattr.py", "src/repro/toy/__init__.py"),
    ("durability/good_atomic.py", "src/repro/io/report.py"),
    ("decode_safety/good_service_catch.py", "src/repro/service/handlers.py"),
    ("decode_safety/good_cluster_catch.py", "src/repro/service/supervise.py"),
]


def plant_fixture(root: Path, fixture: str, lint_as: str) -> Path:
    """Copy a fixture to its ``lint_as`` path in a scratch repo at ``root``."""
    (root / "pyproject.toml").write_text("", encoding="utf-8")
    dest = root / lint_as
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_bytes((FIXTURES / fixture).read_bytes())
    return dest


def _engine() -> LintEngine:
    # each fixture is linted under its lint_as path, so the tree walk's
    # skip of the fixture corpus does not apply
    return LintEngine(root=Path(__file__).parents[2])


@pytest.mark.parametrize("relpath,lint_as,expected_ids,count",
                         BAD_CORPUS, ids=[c[0] for c in BAD_CORPUS])
def test_bad_fixture_fires(relpath, lint_as, expected_ids, count):
    result = _engine().run([FIXTURES / relpath], lint_as=lint_as)
    fired = {d.rule_id for d in result.diagnostics}
    assert expected_ids <= fired, f"expected {expected_ids}, got {fired}"
    matching = [d for d in result.diagnostics if d.rule_id in expected_ids]
    assert len(matching) == count, [d.format_text() for d in matching]
    assert result.exit_code == 1


@pytest.mark.parametrize("relpath,lint_as",
                         GOOD_CORPUS, ids=[c[0] for c in GOOD_CORPUS])
def test_good_fixture_clean(relpath, lint_as):
    result = _engine().run([FIXTURES / relpath], lint_as=lint_as)
    assert result.diagnostics == [], [d.format_text() for d in result.diagnostics]
    assert result.exit_code == 0


@pytest.mark.parametrize("relpath,lint_as,expected_ids,count",
                         BAD_CORPUS, ids=[c[0] for c in BAD_CORPUS])
def test_cli_exits_nonzero_on_bad_fixture(relpath, lint_as, expected_ids,
                                          count, tmp_path, monkeypatch,
                                          capsys):
    """The fixture planted at its lint_as path in a scratch repo fails the
    CLI run there."""
    plant_fixture(tmp_path, relpath, lint_as)
    monkeypatch.chdir(tmp_path)
    code = lint_main([lint_as])
    out = capsys.readouterr().out
    assert code == 1
    assert any(rid in out for rid in expected_ids)


def test_out_of_scope_fixture_is_silent():
    """The same bad code outside the rule's path scope must not fire."""
    result = _engine().run(
        [FIXTURES / "determinism/bad_wallclock.py"],
        lint_as="src/repro/transfer/stamp.py",   # sim clock territory
    )
    assert not any(d.family == "determinism" for d in result.diagnostics)


def test_every_rule_family_has_a_true_positive():
    covered = set()
    for _, _, ids, _ in BAD_CORPUS:
        covered |= {i.split("-")[0] for i in ids}
    assert {"DET", "DEC", "NPY", "OBS", "API", "DUR"} <= covered
