"""Whole-program pass: fixture trees for the EXC/RES/CONC families.

Each fixture is a miniature ``src/repro`` package tree, because the
whole-program rules resolve their vocabularies against canonical module
paths (``repro.service.schemas.ServiceError``,
``repro.encoding.container.DECODE_ERRORS``) — the trees supply stand-ins
at those exact paths.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import LintEngine

FIXTURES = Path(__file__).parent / "fixtures" / "whole_program"

#: (tree, expected rule-id -> finding count)
WP_BAD = [
    ("exc_bad", {"EXC-001": 4, "EXC-002": 1}),
    ("exc_bound_bad", {"EXC-001": 1}),
    ("res_bad", {"RES-001": 2}),
    ("conc_bad", {"CONC-001": 2, "CONC-002": 1, "CONC-003": 1}),
]

WP_GOOD = ["exc_good", "res_good", "conc_good"]

WP_FAMILIES = ("EXC", "RES", "CONC")


def _run(tree: str):
    engine = LintEngine(root=FIXTURES / tree)
    return engine.run([], whole_program=True)


def _wp_diags(result):
    return [d for d in result.diagnostics
            if d.rule_id.split("-")[0] in WP_FAMILIES]


@pytest.mark.parametrize("tree,expected", WP_BAD, ids=[c[0] for c in WP_BAD])
def test_bad_tree_fires(tree, expected):
    result = _run(tree)
    counts = Counter(d.rule_id for d in _wp_diags(result))
    assert counts == Counter() + Counter(expected), \
        [d.format_text() for d in _wp_diags(result)]
    assert result.exit_code == 1


@pytest.mark.parametrize("tree", WP_GOOD)
def test_good_tree_clean(tree):
    result = _run(tree)
    assert _wp_diags(result) == [], \
        [d.format_text() for d in _wp_diags(result)]


def test_exc_findings_name_type_and_origin():
    result = _run("exc_bad")
    msgs = [d.message for d in _wp_diags(result) if d.rule_id == "EXC-001"]
    fetch = [m for m in msgs if "do_fetch" in m]
    assert len(fetch) == 1
    assert "KeyError" in fetch[0]
    assert "repro.service.handlers._lookup" in fetch[0]   # the origin


def test_exc_cluster_entry_checks_the_transport_vocabulary():
    """The router fixture leaks RuntimeError — outside even the widened
    cluster vocabulary, and the finding names that vocabulary."""
    result = _run("exc_bad")
    msgs = [d.message for d in _wp_diags(result) if d.rule_id == "EXC-001"]
    fwd = [m for m in msgs if "do_forward" in m]
    assert len(fwd) == 1
    assert "RuntimeError" in fwd[0]
    assert "cluster transport vocabulary" in fwd[0]


def test_exc_dynamic_finding_names_the_unprovable_function():
    result = _run("exc_bad")
    msgs = [d.message for d in _wp_diags(result) if d.rule_id == "EXC-002"]
    assert len(msgs) == 1
    assert "do_echo" in msgs[0] and "_mirror" in msgs[0]


def test_exc_bounded_type_reraise_is_proven():
    """``raise type(e)(...)`` under ``isinstance(e, T)`` escapes as ``T``:
    the undeclared member is named, and nothing is left unprovable."""
    result = _run("exc_bound_bad")
    msgs = [d.message for d in _wp_diags(result)]
    assert len(msgs) == 1
    assert "OSError can escape" in msgs[0]
    assert "repro.parallel._finalize" in msgs[0]


def test_res_findings_point_at_the_acquisition():
    result = _run("res_bad")
    diags = sorted(_wp_diags(result), key=lambda d: d.line)
    assert [d.rule_id for d in diags] == ["RES-001", "RES-001"]
    assert "leak_segment" in diags[0].message
    assert "shared-memory segment" in diags[0].message
    assert "owns=seg" in diags[0].message                  # remedy named
    assert "thread pool" in diags[1].message


def test_conc_blocking_chain_is_reported():
    result = _run("conc_bad")
    msgs = [d.message for d in _wp_diags(result) if d.rule_id == "CONC-001"]
    direct = [m for m in msgs if "handle_tick" in m]
    chained = [m for m in msgs if "handle_flush" in m]
    assert len(direct) == 1 and "time.sleep" in direct[0]
    assert len(chained) == 1 and "_drain" in chained[0]


def test_conc_lock_order_names_both_sites():
    result = _run("conc_bad")
    msgs = [d.message for d in _wp_diags(result) if d.rule_id == "CONC-003"]
    assert len(msgs) == 1
    assert "repro.locking._alpha" in msgs[0]
    assert "repro.locking._beta" in msgs[0]
    assert "opposite order" in msgs[0]


def test_whole_program_findings_honour_suppressions(tmp_path):
    """An inline disable comment silences a whole-program finding too."""
    tree = FIXTURES / "res_bad"
    src = (tree / "src/repro/io/scratch.py").read_text(encoding="utf-8")
    patched = src.replace(
        "seg = shared_memory.SharedMemory(create=True, size=n)   # RES-001",
        "seg = shared_memory.SharedMemory(create=True, size=n)"
        "  # repro-lint: disable=RES-001 -- fixture",
    )
    root = tmp_path / "repo"
    dest = root / "src" / "repro" / "io"
    dest.mkdir(parents=True)
    (root / "src/repro/__init__.py").write_text("", encoding="utf-8")
    (dest / "__init__.py").write_text("", encoding="utf-8")
    (dest / "scratch.py").write_text(patched, encoding="utf-8")
    result = LintEngine(root=root).run(
        [], whole_program=True)
    fired = [d for d in _wp_diags(result)]
    assert [d.rule_id for d in fired] == ["RES-001"]        # only the pool
    assert "leak_pool" in fired[0].message
    assert any(d.rule_id == "RES-001" and "leak_segment" in d.message
               for d in result.suppressed)


def test_whole_program_rules_skipped_without_flag():
    result = LintEngine(root=FIXTURES / "exc_bad").run([])
    assert _wp_diags(result) == []
    assert not any(r.startswith(WP_FAMILIES) for r in result.rules_run)
