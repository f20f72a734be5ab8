"""Rule plugin registry.

A rule is a class deriving from :class:`Rule` (per-module AST checks) or
:class:`ProjectRule` (whole-repo checks, e.g. "no tracked bytecode"),
registered with the :func:`register` decorator::

    @register
    class BanWallClock(Rule):
        id = "DET-001"
        family = "determinism"
        description = "..."
        default_paths = ("src/repro/core/**",)

        def check(self, ctx):
            yield from ...

``default_paths`` scopes where a rule applies (empty = everywhere);
scope is part of the rule's contract, so nothing narrows or widens it
at run time.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic


def match_path(relpath: str, pattern: str) -> bool:
    """fnmatch with ``**`` behaving like "any subpath" (also zero dirs)."""
    if fnmatch.fnmatch(relpath, pattern):
        return True
    # "pkg/**" should also match direct children and the dir itself
    if pattern.endswith("/**"):
        base = pattern[:-3]
        return relpath == base or relpath.startswith(base + "/")
    return False


def match_any(relpath: str, patterns: tuple[str, ...]) -> bool:
    return any(match_path(relpath, p) for p in patterns)


@dataclass
class ModuleContext:
    """Everything a per-module rule may inspect about one source file."""

    relpath: str                      # repo-relative posix path used for scoping
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str, relpath: str) -> "ModuleContext":
        return cls(relpath=relpath, source=source, tree=ast.parse(source),
                   lines=source.splitlines())


class Rule:
    """Base class for per-module AST rules."""

    id: str = ""
    family: str = ""
    description: str = ""
    rationale: str = ""
    #: Glob patterns (repo-relative, posix) the rule applies to; empty = all.
    default_paths: tuple[str, ...] = ()
    #: When True, a suppression comment must carry a ``-- reason`` to count.
    requires_reason: bool = False

    def applies_to(self, relpath: str) -> bool:
        return not self.default_paths or match_any(relpath, self.default_paths)

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diag(self, ctx: ModuleContext, node: ast.AST | None, message: str,
             *, line: int | None = None, col: int | None = None) -> Diagnostic:
        return Diagnostic(
            rule_id=self.id,
            family=self.family,
            path=ctx.relpath,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule(Rule):
    """A rule that runs once per lint invocation against the repo root."""

    def check_project(self, root) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        return ()


class WholeProgramRule(Rule):
    """A rule that runs once per ``--whole-program`` pass.

    Instead of a single :class:`ModuleContext` it receives the linked
    :class:`repro.analysis.project.ProjectModel` (symbol table + call
    graph) and may emit diagnostics against any module in the model.
    These rules are skipped entirely unless the engine is invoked with
    ``whole_program=True`` — building the model costs one full parse of
    ``src/repro``.
    """

    def check_program(self, model) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        return ()

    def pdiag(self, relpath: str, line: int, message: str, *,
              col: int = 0) -> Diagnostic:
        return Diagnostic(rule_id=self.id, family=self.family, path=relpath,
                          line=line, col=col, message=message)


_RULES: dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and add a rule to the global registry."""
    inst = cls()
    if not inst.id or not inst.family:
        raise ValueError(f"rule {cls.__name__} must define id and family")
    if inst.id in _RULES:
        raise ValueError(
            f"duplicate rule id {inst.id!r}: {cls.__name__} collides with "
            f"already-registered {type(_RULES[inst.id]).__name__}; every "
            "rule id must be unique across the registry")
    _RULES[inst.id] = inst
    return cls


def all_rules() -> list[Rule]:
    """Registered rules sorted by id. Importing the rules package populates it."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_RULES[k] for k in sorted(_RULES)]


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_functions(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
    """Yield (function_node, ancestor_stack) for every def/async def."""
    stack: list[ast.AST] = []

    def _walk(node: ast.AST) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, list(stack)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                stack.append(child)
                yield from _walk(child)
                stack.pop()
            else:
                yield from _walk(child)

    yield from _walk(tree)


__all__ = [
    "Rule",
    "ProjectRule",
    "WholeProgramRule",
    "ModuleContext",
    "register",
    "all_rules",
    "dotted_name",
    "walk_functions",
    "match_path",
    "match_any",
]
