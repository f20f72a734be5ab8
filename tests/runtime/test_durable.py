"""repro.runtime.durable: atomic commits, torn-tail healing, JSONL appends.

The soft-kill tests observe the exact on-disk state a power cut at each
stage leaves behind — the same states the subprocess SIGKILL test in
``tests/test_sweep_resume.py`` produces with hard kills.
"""

import os

import pytest

from repro.runtime import (
    InjectedKillError,
    KillPoint,
    RunLedger,
    append_jsonl,
    atomic_write,
    fsync_dir,
    heal_jsonl_tail,
)


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "a.bin"
        assert atomic_write(path, b"payload") == path
        assert path.read_bytes() == b"payload"

    def test_writes_str_as_utf8(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write(path, "héllo")
        assert path.read_bytes() == "héllo".encode("utf-8")

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old")
        atomic_write(path, "new")
        assert path.read_text() == "new"

    def test_no_fsync_mode(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write(path, "data", fsync=False)
        assert path.read_text() == "data"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write(tmp_path / "a.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_fsync_dir_tolerates_missing(self, tmp_path):
        fsync_dir(tmp_path / "definitely-not-here")  # must not raise


class TestKillPoints:
    """Soft kills: the destination state at each crash stage."""

    def test_invalid_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown kill point"):
            KillPoint(at="before_lunch")

    def test_mid_write_preserves_old_contents(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old")
        with pytest.raises(InjectedKillError) as exc:
            atomic_write(path, "new contents", kill=KillPoint("mid_write", hard=False))
        assert exc.value.at == "mid_write"
        assert path.read_text() == "old"
        (tmp,) = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert tmp.read_bytes() == b"new contents"[: len(b"new contents") // 2]

    def test_pre_commit_preserves_old_contents(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old")
        with pytest.raises(InjectedKillError):
            atomic_write(path, "new", kill=KillPoint("pre_commit", hard=False))
        assert path.read_text() == "old"
        (tmp,) = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert tmp.read_text() == "new"  # temp complete, rename never ran

    def test_post_commit_leaves_new_contents(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old")
        with pytest.raises(InjectedKillError):
            atomic_write(path, "new", kill=KillPoint("post_commit", hard=False))
        assert path.read_text() == "new"  # renamed before the kill

    def test_crashed_write_is_retryable(self, tmp_path):
        """The core idempotence contract: redoing the write after any
        crash stage converges to the new contents, no residue."""
        path = tmp_path / "a.txt"
        path.write_text("old")
        for stage in ("mid_write", "pre_commit", "post_commit"):
            with pytest.raises(InjectedKillError):
                atomic_write(path, "new", kill=KillPoint(stage, hard=False))
            atomic_write(path, "new")
            assert path.read_text() == "new"
            assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
            path.write_text("old")


class TestHealJsonlTail:
    def test_missing_file(self, tmp_path):
        assert heal_jsonl_tail(tmp_path / "none.jsonl") == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b"")
        assert heal_jsonl_tail(path) == 0

    def test_clean_file_untouched(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n')
        assert heal_jsonl_tail(path) == 0
        assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"c":')
        assert heal_jsonl_tail(path) == len(b'{"c":')
        assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_torn_only_line_truncates_to_empty(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"never finished"')
        assert heal_jsonl_tail(path) == len(b'{"never finished"')
        assert path.read_bytes() == b""

    def test_long_torn_tail_spanning_blocks(self, tmp_path):
        """The backward newline scan must cross its 4 KiB block size."""
        path = tmp_path / "a.jsonl"
        torn = b'{"x": "' + b"y" * 10_000
        path.write_bytes(b'{"a": 1}\n' + torn)
        assert heal_jsonl_tail(path) == len(torn)
        assert path.read_bytes() == b'{"a": 1}\n'


class TestAppendJsonl:
    """The one JSONL appender under the run ledger and the telemetry sinks."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        import repro.runtime.durable as durable

        calls = []
        monkeypatch.setattr(durable.os, "fsync", lambda fd: calls.append("file"))
        monkeypatch.setattr(durable, "fsync_dir", lambda path: calls.append("dir"))
        return calls

    def test_sorted_key_lines(self, tmp_path):
        path = tmp_path / "sub" / "a.jsonl"
        assert append_jsonl(path, [{"b": 1, "a": "é"}, {"c": None}]) == 0
        assert path.read_bytes() == b'{"a": "\\u00e9", "b": 1}\n{"c": null}\n'

    def test_heals_torn_tail_first(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b":')
        assert append_jsonl(path, [{"c": 3}]) == len(b'{"b":')
        assert path.read_bytes() == b'{"a": 1}\n{"c": 3}\n'

    def test_no_records_heals_but_creates_nothing(self, tmp_path):
        assert append_jsonl(tmp_path / "none.jsonl", []) == 0
        assert not (tmp_path / "none.jsonl").exists()

    def test_fsync_only_when_asked(self, tmp_path, fsyncs):
        path = tmp_path / "a.jsonl"
        append_jsonl(path, [{"a": 1}])
        assert fsyncs == []
        append_jsonl(path, [{"a": 2}], fsync=True)
        assert fsyncs == ["file"]
        fsyncs.clear()
        append_jsonl(tmp_path / "new.jsonl", [{"a": 1}], fsync=True)
        assert fsyncs == ["file", "dir"]  # created: the directory entry too

    def test_ledger_and_sink_write_the_same_bytes(self, tmp_path):
        from repro.obs import JsonlSink

        rec = {"rec": "event", "kind": "resume", "n": [1, 2.5]}
        RunLedger(tmp_path / "ledger.jsonl", fsync=False).append(rec)
        JsonlSink(tmp_path / "sink.jsonl").write([rec])
        append_jsonl(tmp_path / "direct.jsonl", [rec])
        assert ((tmp_path / "ledger.jsonl").read_bytes()
                == (tmp_path / "sink.jsonl").read_bytes()
                == (tmp_path / "direct.jsonl").read_bytes())


class TestUnwritableDestination:
    """A failing write must surface the OS error and leave no debris."""

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root bypasses directory permission bits")
    def test_read_only_dir_raises_and_leaves_no_temp(self, tmp_path):
        dest_dir = tmp_path / "sealed"
        dest_dir.mkdir()
        (dest_dir / "kept.txt").write_text("old")
        dest_dir.chmod(0o555)
        try:
            with pytest.raises(PermissionError):
                atomic_write(dest_dir / "kept.txt", "new")
            assert (dest_dir / "kept.txt").read_text() == "old"
            assert [p.name for p in dest_dir.iterdir()] == ["kept.txt"]
        finally:
            dest_dir.chmod(0o755)

    def test_parent_is_a_file_raises(self, tmp_path):
        not_a_dir = tmp_path / "file.txt"
        not_a_dir.write_text("x")
        with pytest.raises(OSError):
            atomic_write(not_a_dir / "child.txt", "data")
        assert not_a_dir.read_text() == "x"

    def test_missing_parent_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write(tmp_path / "nope" / "f.txt", b"data")
