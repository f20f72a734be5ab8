"""repro.analysis — AST-based invariant linter for this repository.

The reproduction's load-bearing conventions — bit-identical determinism
(PAPER.md §V), the ``DECODE_ERRORS`` decode-safety discipline
(docs/ROBUSTNESS.md), and full trace-span coverage of codec entry points
(docs/OBSERVABILITY.md) — are enforced mechanically here instead of by
reviewer folklore. Pure stdlib, no numpy import at lint time: the parent
``repro`` package lazy-loads its codec exports (PEP 562), so importing
``repro.analysis`` works on a bare interpreter (CI's lint job relies on
this and deliberately installs nothing).

Run it::

    python -m repro.analysis src tests          # or the repro-lint script
    python -m repro.analysis src tests --whole-program --output report.json

Suppress a finding::

    blob = risky()  # repro-lint: disable=DEC-001 -- header probe, re-raised below

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and how to add a
rule.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.engine import LintEngine, LintResult
from repro.analysis.registry import all_rules

__all__ = [
    "Baseline",
    "BaselineEntry",
    "LintEngine",
    "LintResult",
    "all_rules",
]
