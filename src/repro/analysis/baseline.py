"""Committed baseline for known-unproven whole-program findings.

The EXC family can hit edges it cannot prove statically, and the RES
and CONC families can flag code that is correct for a reason the
analyzer cannot see. Those findings are real but accepted: they live in
a reviewed, committed JSON file instead of inline suppressions, so the
set of accepted edges is visible in one place and every entry carries a
justification.

Format (``lint-baseline.json`` at the repo root, version 1)::

    {
      "version": 1,
      "entries": [
        {
          "rule": "EXC-001",
          "path": "src/repro/service/handlers.py",
          "symbol": "repro.service.handlers.do_compress",
          "contains": "repro.obs.metrics.MetricsRegistry._get",
          "reason": "programming-error guard, mapped by the app backstop"
        }
      ]
    }

Matching is deliberately line-number-free: an entry matches a diagnostic
when the rule id and path are equal and both ``symbol`` and ``contains``
occur in the message. Whole-program messages always lead with the
qualified symbol they are attached to, so entries survive unrelated
edits. A ``reason`` is mandatory — an unexplained baseline entry is just
a suppression with worse ergonomics.

Entries that match nothing are *stale* and reported as ``BAS-001``
findings, which fail the run like any other, so the baseline shrinks as
edges get proven.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic

BASELINE_VERSION = 1

#: The baseline's filename, at the repo root.
BASELINE_NAME = "lint-baseline.json"


@dataclass
class BaselineEntry:
    rule: str
    path: str
    symbol: str
    reason: str
    contains: str = ""

    def matches(self, diag: Diagnostic) -> bool:
        return (diag.rule_id == self.rule
                and diag.path == self.path
                and self.symbol in diag.message
                and self.contains in diag.message)


@dataclass
class Baseline:
    entries: list[BaselineEntry] = field(default_factory=list)
    _used: set[int] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read baseline {path}: {exc}") from exc
        if not isinstance(payload, dict) \
                or payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path}: expected a JSON object with "
                f'"version": {BASELINE_VERSION}')
        entries = []
        for i, raw in enumerate(payload.get("entries", [])):
            if not isinstance(raw, dict):
                raise ValueError(f"baseline {path}: entry {i} is not an object")
            missing = {"rule", "path", "symbol", "reason"} - raw.keys()
            if missing:
                raise ValueError(
                    f"baseline {path}: entry {i} is missing "
                    f"{', '.join(sorted(missing))} (a reason is mandatory: "
                    "unexplained entries are indistinguishable from "
                    "unreviewed suppressions)")
            if not str(raw["reason"]).strip():
                raise ValueError(f"baseline {path}: entry {i} has an empty "
                                 "reason")
            entries.append(BaselineEntry(
                rule=str(raw["rule"]), path=str(raw["path"]),
                symbol=str(raw["symbol"]), reason=str(raw["reason"]),
                contains=str(raw.get("contains", "")),
            ))
        return cls(entries=entries)

    def absorbs(self, diag: Diagnostic) -> bool:
        """True when some entry matches ``diag`` (and mark that entry used)."""
        hit = False
        for i, entry in enumerate(self.entries):
            if entry.matches(diag):
                self._used.add(i)
                hit = True
        return hit

    def stale_entries(self) -> list[BaselineEntry]:
        return [e for i, e in enumerate(self.entries) if i not in self._used]


def stale_diagnostics(baseline: Baseline) -> list[Diagnostic]:
    """BAS-001 findings for entries that no longer match any finding."""
    out = []
    for entry in baseline.stale_entries():
        out.append(Diagnostic(
            rule_id="BAS-001", family="baseline", path=entry.path,
            line=1, col=0,
            message=(f"stale baseline entry ({entry.rule} / {entry.symbol}): "
                     "no current finding matches it; delete it from "
                     f"{BASELINE_NAME}"),
        ))
    return out


__all__ = ["Baseline", "BaselineEntry", "BASELINE_VERSION",
           "BASELINE_NAME", "stale_diagnostics"]
