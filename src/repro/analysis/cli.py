"""``repro-lint`` / ``python -m repro.analysis`` command line.

Stdout always carries the text report; ``--output FILE`` also writes the
JSON report there, so one run serves a log and a CI artifact. The repo
root (path scoping, ``lint-baseline.json``) is the nearest ancestor of
the working directory holding a ``pyproject.toml``.

Exit codes (CI contract):

* ``0`` — no findings (suppressed findings do not fail the build)
* ``1`` — at least one finding
* ``2`` — usage or internal error (argparse, missing path, bad baseline)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import BASELINE_NAME, Baseline
from repro.analysis.engine import LintEngine
from repro.analysis.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the CliZ reproduction: "
                    "determinism, decode-safety, numpy hygiene, observability "
                    "coverage, API consistency, repo hygiene.",
    )
    p.add_argument("paths", nargs="*", default=["src", "tests"],
                   help="files or directories to lint (default: src tests)")
    p.add_argument("--whole-program", action="store_true",
                   help="also build the project model over src/repro and "
                        "run the EXC/RES/CONC rule families against "
                        "lint-baseline.json")
    p.add_argument("--output", metavar="FILE",
                   help="also write the JSON report to FILE")
    return p


def find_root(start: Path) -> Path:
    """The nearest ancestor of ``start`` holding a pyproject.toml, else ``start``."""
    start = start.resolve()
    for candidate in [start, *start.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    root = find_root(Path.cwd())
    baseline = None
    if args.whole_program and (root / BASELINE_NAME).is_file():
        try:
            baseline = Baseline.load(root / BASELINE_NAME)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    result = LintEngine(root=root).run(
        paths, whole_program=args.whole_program, baseline=baseline)
    if args.output:
        Path(args.output).write_text(render_json(result) + "\n",
                                     encoding="utf-8")
    print(render_text(result))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
