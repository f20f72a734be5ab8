"""repro.runtime.ledger: append-only journal, torn-tail replay, digests."""

import json

import pytest

from repro.runtime import RunLedger, atomic_write, blake2b_file, replay_ledger
from repro.runtime.ledger import blake2b_bytes


def test_lifecycle_fold(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl", fsync=False)
    ledger.planned("c1", meta={"dataset": "SSH"})
    ledger.planned("c2")
    ledger.running("c1", 1)
    ledger.done("c1", "cells/c1.json", "deadbeef", 1)
    ledger.running("c2", 1)
    ledger.failed("c2", "boom", "RuntimeError", 1)
    ledger.event("breaker_open", subject="SZ3", failures=3)

    state = replay_ledger(ledger.path)
    assert state.records == 7
    assert state.torn_lines == 0 and state.invalid_lines == 0
    assert state.status("c1") == "done"
    assert state.status("c2") == "failed"
    assert state.status("c3") is None
    assert state.by_status("done") == ["c1"]
    assert state.record("c1")["digest"] == "deadbeef"
    assert state.record("c2")["error_type"] == "RuntimeError"
    (event,) = state.events
    assert event["kind"] == "breaker_open" and event["subject"] == "SZ3"


def test_replay_missing_and_empty(tmp_path):
    assert replay_ledger(tmp_path / "none.jsonl").records == 0
    (tmp_path / "empty.jsonl").write_bytes(b"")
    assert replay_ledger(tmp_path / "empty.jsonl").records == 0


def test_replay_skips_byte_truncated_tail(tmp_path):
    """Regression: a crash mid-append leaves half a record with no
    newline; replay must keep every complete record and count the tear."""
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path, fsync=False)
    ledger.planned("c1")
    ledger.done("c1", "cells/c1.json", "beef", 1)
    whole = path.read_bytes()
    extra = json.dumps({"rec": "cell", "cell": "c2",
                        "status": "running", "attempt": 1}).encode()
    path.write_bytes(whole + extra[: len(extra) // 2])  # torn mid-record

    with pytest.warns(RuntimeWarning, match="torn final ledger line"):
        state = replay_ledger(path)
    assert state.torn_lines == 1
    assert state.invalid_lines == 0
    assert state.records == 2
    assert state.status("c1") == "done"
    assert state.status("c2") is None  # the torn record never happened


def test_replay_counts_invalid_interior_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"rec": "cell", "cell": "c1", "status": "planned"}\n'
                    "garbage\n"
                    '{"rec": "event", "kind": "resume"}\n')
    with pytest.warns(RuntimeWarning, match="invalid ledger line"):
        state = replay_ledger(path)
    assert state.invalid_lines == 1 and state.torn_lines == 0
    assert state.records == 2


def test_replay_rejects_unknown_status(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"rec": "cell", "cell": "c1", "status": "pondering"}\n')
    with pytest.warns(RuntimeWarning, match="malformed cell record"):
        state = replay_ledger(path)
    assert state.records == 0 and state.invalid_lines == 1


@pytest.mark.parametrize("line", [
    '{"rec": "event"}',                                    # no kind
    '{"rec": "note", "text": "x"}',                        # unknown record kind
    '{"rec": "cell", "status": "done"}',                   # no cell id
    '{"rec": "cell", "cell": "c1", "status": "running", "attempt": "2"}',
])
def test_replay_counts_malformed_records_instead_of_raising(tmp_path, line):
    path = tmp_path / "ledger.jsonl"
    path.write_text(line + "\n" + '{"rec": "event", "kind": "resume"}\n')
    with pytest.warns(RuntimeWarning, match="invalid ledger line"):
        state = replay_ledger(path)
    assert state.invalid_lines == 1 and state.records == 1


def test_replay_keeps_the_highest_attempt(tmp_path):
    """Attempts restart at 1 on resume; the fold keeps the highest seen."""
    ledger = RunLedger(tmp_path / "ledger.jsonl", fsync=False)
    ledger.running("c1", 1)
    ledger.running("c1", 2)
    ledger.running("c1", 1)  # resumed after a kill
    ledger.done("c1", "cells/c1.json", "d", 1)
    ledger.planned("c2")
    state = replay_ledger(ledger.path)
    assert state.max_attempt == {"c1": 2}


def test_writer_heals_torn_tail_before_appending(tmp_path):
    """A new appender truncates the torn tail so the next append cannot
    fuse with the half-written record into one unparseable line."""
    path = tmp_path / "ledger.jsonl"
    first = RunLedger(path, fsync=False)
    first.planned("c1")
    path.write_bytes(path.read_bytes() + b'{"rec": "cell", "cel')

    second = RunLedger(path, fsync=False)
    assert second.healed_bytes == len(b'{"rec": "cell", "cel')
    second.running("c1", 1)
    state = replay_ledger(path)
    assert state.torn_lines == 0 and state.invalid_lines == 0
    assert state.status("c1") == "running"


def test_verified_done_checks_artifact_digest(tmp_path):
    blob = b'{"bit_rate": 2.5}\n'
    artifact = tmp_path / "cells" / "c1.json"
    artifact.parent.mkdir()
    atomic_write(artifact, blob, fsync=False)

    ledger = RunLedger(tmp_path / "ledger.jsonl", fsync=False)
    ledger.done("c1", "cells/c1.json", blake2b_bytes(blob), 1)
    state = replay_ledger(ledger.path)
    assert state.verified_done("c1", tmp_path)

    artifact.write_bytes(b"tampered")
    assert not replay_ledger(ledger.path).verified_done("c1", tmp_path)
    artifact.unlink()
    assert not replay_ledger(ledger.path).verified_done("c1", tmp_path)
    assert not state.verified_done("c2", tmp_path)  # never recorded


def test_blake2b_file_missing_is_none(tmp_path):
    assert blake2b_file(tmp_path / "nope") is None
    (tmp_path / "a").write_bytes(b"xyz")
    assert blake2b_file(tmp_path / "a") == blake2b_bytes(b"xyz")


def test_ledger_is_wall_clock_free(tmp_path):
    """The determinism contract: two identical record sequences yield
    byte-identical journals (no timestamps, pids, or host state)."""
    for sub in ("a", "b"):
        ledger = RunLedger(tmp_path / sub / "ledger.jsonl", fsync=False)
        ledger.planned("c1", meta={"dataset": "SSH"})
        ledger.running("c1", 1)
        ledger.done("c1", "cells/c1.json", "beef", 1)
    assert (tmp_path / "a/ledger.jsonl").read_bytes() == \
        (tmp_path / "b/ledger.jsonl").read_bytes()
