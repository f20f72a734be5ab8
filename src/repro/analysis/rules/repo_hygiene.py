"""HYG — repository hygiene rules (project-level pre-checks).

PR 3 removed 15 committed ``.pyc`` files and added the ``.gitignore``;
this rule makes the fix permanent by failing the lint run if bytecode
ever gets tracked again.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import ProjectRule, register


def _git_tracked_files(root: Path) -> list[str] | None:
    """Tracked paths, or None when git/the repo is unavailable."""
    try:
        proc = subprocess.run(
            ["git", "ls-files", "-z"], cwd=root,
            capture_output=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return [p for p in proc.stdout.decode("utf-8", "replace").split("\0") if p]


@register
class NoTrackedBytecode(ProjectRule):
    id = "HYG-001"
    family = "repo-hygiene"
    description = "compiled python bytecode tracked by git"
    rationale = ("committed __pycache__/*.pyc files are machine-specific "
                 "noise that shadows real sources and churns every diff; "
                 ".gitignore covers them — this check guarantees they never "
                 "sneak back in")

    def check_project(self, root: Path) -> Iterable[Diagnostic]:
        tracked = _git_tracked_files(root)
        if tracked is None:
            return  # not a git checkout (e.g. sdist): nothing to enforce
        for path in tracked:
            parts = path.split("/")
            if "__pycache__" in parts or path.endswith((".pyc", ".pyo")):
                yield Diagnostic(
                    rule_id=self.id, family=self.family, path=path,
                    line=1, col=0,
                    message="compiled bytecode is tracked by git; "
                            "`git rm --cached` it (covered by .gitignore)",
                )
