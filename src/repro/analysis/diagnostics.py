"""Diagnostic records emitted by lint rules.

A :class:`Diagnostic` is one finding: a rule id, a location, and a
message. Diagnostics are plain data — reporters decide how to render
them and the engine decides which ones survive suppression. Every
unsuppressed diagnostic fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding at a specific source location."""

    rule_id: str
    family: str
    path: str            # repo-relative posix path (or the path as given)
    line: int            # 1-based
    col: int             # 0-based, matching ast.col_offset
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


__all__ = ["Diagnostic"]
