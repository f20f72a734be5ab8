"""repro.runtime — durable I/O, the journaled run ledger, the HTTP core.

Everything in this package is pure stdlib (no numpy), so it imports on a
bare interpreter — the same constraint :mod:`repro.analysis` honours — and
can be reused by any layer without pulling in the scientific stack.

Three building blocks:

* :func:`atomic_write` / :func:`fsync_dir` — the durable-I/O primitive
  every artifact writer in the repo routes through (enforced by the
  DUR-001 lint rule). A crash at *any* point leaves either the old file
  or the new file, never a torn hybrid.
* :class:`RunLedger` — an append-only JSONL journal of work-unit
  lifecycles (``planned -> running -> done | failed``) whose replay is
  tolerant of a torn final line, the substrate of the kill-resumable
  sweep driver (:mod:`repro.experiments.sweep`).
* :mod:`repro.runtime.http` — the one HTTP/1.1 server core (lifecycle,
  request reader, response framing, bounded drain) under the ``/metrics``
  exporter, the compression service and the cluster router. Import it
  as ``repro.runtime.http``; it is not re-exported here.

See ``docs/ROBUSTNESS.md`` ("Checkpoint & resume") for the commit-ordering
invariant and ``docs/FORMATS.md`` for the ledger record schema.
"""

from repro.runtime.durable import (
    InjectedKillError,
    KillPoint,
    atomic_write,
    fsync_dir,
    heal_jsonl_tail,
)
from repro.runtime.ledger import (
    LedgerState,
    RunLedger,
    blake2b_file,
    replay_ledger,
)

__all__ = [
    "atomic_write",
    "fsync_dir",
    "heal_jsonl_tail",
    "KillPoint",
    "InjectedKillError",
    "RunLedger",
    "LedgerState",
    "replay_ledger",
    "blake2b_file",
]
