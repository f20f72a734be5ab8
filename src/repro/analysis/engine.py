"""The lint engine: file collection, rule dispatch, suppression filtering.

The engine is import-light and pure-stdlib so it can run in CI before the
numeric dependencies are installed. Rules never see the filesystem — they
get a parsed :class:`ModuleContext` — which is what makes the fixture
corpus in ``tests/analysis`` able to lint snippets *as if* they lived at
an arbitrary repo path (``lint_source(..., relpath=...)``).

Two passes can run per invocation:

* the **per-file pass** — every :class:`Rule` over every collected file
  outside the fixture corpus, plus :class:`ProjectRule` checks;
* the **whole-program pass** (``whole_program=True``) — builds one
  :class:`~repro.analysis.project.ProjectModel` over ``src/repro`` and
  runs every :class:`WholeProgramRule` against it. Whole-program
  diagnostics honour the same suppression comments, and additionally
  pass through the committed baseline file
  (:mod:`repro.analysis.baseline`) for known-unproven edges.

Files that cannot be parsed (syntax errors, non-UTF-8 bytes, null bytes)
or read never crash the run: each produces a single ``SYNTAX``
diagnostic with the path and line, and linting continues with the next
file — the exit-code contract (0/1/2) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.baseline import Baseline, stale_diagnostics
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import (
    ModuleContext,
    ProjectRule,
    Rule,
    WholeProgramRule,
    all_rules,
    match_path,
)
from repro.analysis.suppressions import Suppression, scan_suppressions

#: Directories never worth descending into.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".pytest_cache", ".hypothesis",
    "build", "dist", "telemetry",
})

#: The fixture corpus is known-bad on purpose: tree walks skip it, and
#: its tests lint each fixture explicitly under an in-scope ``lint_as``.
FIXTURE_CORPUS = "tests/analysis/fixtures/**"


@dataclass
class LintResult:
    """Outcome of one engine run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0

    def merge(self, other: "LintResult") -> None:
        self.files_checked += other.files_checked
        self.diagnostics.extend(other.diagnostics)
        self.suppressed.extend(other.suppressed)
        for rid in other.rules_run:
            if rid not in self.rules_run:
                self.rules_run.append(rid)


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not SKIP_DIRS.intersection(sub.parts):
                    yield sub


def _triage(result: LintResult, rule: Rule, diag: Diagnostic,
            supp: Suppression | None,
            baseline: Baseline | None = None) -> None:
    """File ``diag`` in ``result`` as a finding or as suppressed.

    A matching comment suppresses it, unless the rule requires a reason
    and the comment gives none; otherwise a baseline entry may absorb it.
    """
    if supp is not None and supp.matches(diag.rule_id, diag.family):
        if rule.requires_reason and not supp.reason:
            result.diagnostics.append(replace(
                diag, message=diag.message
                + " [suppression ignored: no '-- <reason>' given]"))
        else:
            result.suppressed.append(diag)
    elif baseline is not None and baseline.absorbs(diag):
        result.suppressed.append(diag)
    else:
        result.diagnostics.append(diag)


class LintEngine:
    """Runs registered rules over files, applying suppressions."""

    def __init__(self, root: Path | None = None,
                 rules: Sequence[Rule] | None = None) -> None:
        self.root = (root or Path.cwd()).resolve()
        self.rules: list[Rule] = list(rules) if rules is not None else all_rules()

    # -- path handling -----------------------------------------------------

    def relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    # -- single-module linting --------------------------------------------

    def lint_source(self, source: str, relpath: str) -> LintResult:
        """Lint one source string as if it lived at ``relpath``."""
        result = LintResult(files_checked=1)
        try:
            ctx = ModuleContext.from_source(source, relpath)
        except SyntaxError as exc:
            result.diagnostics.append(Diagnostic(
                rule_id="SYNTAX", family="engine", path=relpath,
                line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            ))
            return result
        except ValueError as exc:
            # ast.parse raises bare ValueError on e.g. null bytes
            result.diagnostics.append(Diagnostic(
                rule_id="SYNTAX", family="engine", path=relpath,
                line=1, col=0,
                message=f"unparseable file: {exc}",
            ))
            return result
        suppressions = scan_suppressions(source)
        for rule in self.rules:
            if isinstance(rule, (ProjectRule, WholeProgramRule)):
                continue
            if not rule.applies_to(relpath):
                continue
            if rule.id not in result.rules_run:
                result.rules_run.append(rule.id)
            for diag in rule.check(ctx):
                _triage(result, rule, diag, suppressions.get(diag.line))
        return result

    def lint_file(self, path: Path, relpath: str | None = None) -> LintResult:
        rel = relpath if relpath is not None else self.relpath(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            res = LintResult(files_checked=1)
            res.diagnostics.append(Diagnostic(
                rule_id="SYNTAX", family="engine", path=rel, line=1, col=0,
                message=f"unreadable file: {exc}",
            ))
            return res
        return self.lint_source(source, rel)

    # -- whole-tree linting -----------------------------------------------

    def run(self, paths: Sequence[Path], *, lint_as: str | None = None,
            whole_program: bool = False,
            baseline: Baseline | None = None) -> LintResult:
        """Lint files/trees plus the project-level rules.

        ``lint_as`` overrides the repo-relative path when exactly one file
        is passed — used by tests and fixtures to place a snippet in an
        arbitrary rule scope.
        """
        total = LintResult()
        files = list(iter_python_files(paths))
        if lint_as is not None and len(files) != 1:
            raise ValueError("lint_as requires exactly one input file")
        for path in files:
            rel = lint_as if lint_as is not None else self.relpath(path)
            if not match_path(rel, FIXTURE_CORPUS):
                total.merge(self.lint_file(path, relpath=rel))
        for rule in self.rules:
            if not isinstance(rule, ProjectRule):
                continue
            total.rules_run.append(rule.id)
            total.diagnostics.extend(rule.check_project(self.root))
        if whole_program:
            self._run_whole_program(total, baseline)
        total.diagnostics.sort(key=Diagnostic.sort_key)
        total.rules_run.sort()
        return total

    # -- whole-program pass -------------------------------------------------

    def _run_whole_program(self, total: LintResult,
                           baseline: Baseline | None) -> None:
        from repro.analysis.project import ProjectModel

        model = ProjectModel.build(self.root)
        for relpath, message in model.errors:
            total.diagnostics.append(Diagnostic(
                rule_id="SYNTAX", family="engine", path=relpath, line=1,
                col=0, message=f"unparseable file: {message}"))
        supp_by_path = {mod.relpath: scan_suppressions(mod.source)
                        for mod in model.modules.values()}
        for rule in self.rules:
            if not isinstance(rule, WholeProgramRule):
                continue
            if rule.id not in total.rules_run:
                total.rules_run.append(rule.id)
            for diag in rule.check_program(model):
                supp = supp_by_path.get(diag.path, {}).get(diag.line)
                _triage(total, rule, diag, supp, baseline)
        if baseline is not None:
            total.diagnostics.extend(stale_diagnostics(baseline))


__all__ = ["LintEngine", "LintResult", "iter_python_files", "SKIP_DIRS",
           "FIXTURE_CORPUS"]
