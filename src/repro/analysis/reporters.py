"""Reporters: render a LintResult as human text or machine JSON.

The JSON shape (``"version": 2``) is a stable contract consumed by the CI
artifact upload and asserted by ``tests/analysis/test_reporters.py`` —
bump the version if you change it. Version 2 dropped each diagnostic's
``severity`` key: every finding is an error.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.engine import LintResult

JSON_REPORT_VERSION = 2


def render_text(result: LintResult) -> str:
    lines = [d.format_text() for d in result.diagnostics]
    n = len(result.diagnostics)
    lines.append(
        f"{n} finding{'s' if n != 1 else ''} "
        f"({len(result.suppressed)} suppressed) in {result.files_checked} "
        f"file{'s' if result.files_checked != 1 else ''}; "
        f"{len(result.rules_run)} rules ran"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    by_rule = Counter(d.rule_id for d in result.diagnostics)
    payload = {
        "version": JSON_REPORT_VERSION,
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "diagnostics": [d.to_json() for d in result.diagnostics],
        "suppressed": [d.to_json() for d in result.suppressed],
        "summary": {
            "total": len(result.diagnostics),
            "suppressed": len(result.suppressed),
            "by_rule": dict(sorted(by_rule.items())),
        },
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=False)


__all__ = ["render_text", "render_json", "JSON_REPORT_VERSION"]
