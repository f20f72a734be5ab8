"""Per-stage profiling: ``obs.span`` timings aggregated by ``report.stage_table``.

``repro compress --profile`` prints these rows with ``report.print_stage_table``,
the same printer ``repro obs report`` uses for trace files.
"""

import threading

import pytest

from repro.obs import report, trace


@pytest.fixture(autouse=True)
def _no_active_run():
    trace.end_run()
    yield
    trace.end_run()


def _rows(run):
    return {r["path"]: r for r in report.stage_table(run.span_records())}


def _printed(rows, capsys):
    report.print_stage_table(rows)
    return capsys.readouterr().out.splitlines()


class TestProfileStage:
    def test_disabled_is_noop(self):
        with trace.run() as finished:
            pass
        with trace.span("x", nbytes=10) as sp:
            assert sp is None
        assert trace.get_run() is None
        assert finished.spans() == []

    def test_records_time_and_calls(self):
        with trace.run() as run:
            for _ in range(3):
                with trace.span("stage"):
                    pass
        (row,) = report.stage_table(run.span_records())
        assert row["path"] == "stage"
        assert row["calls"] == 3
        assert row["total_s"] >= 0.0

    def test_nested_paths(self):
        with trace.run() as run:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
                with trace.span("inner"):
                    pass
        rows = _rows(run)
        assert set(rows) == {"outer", "outer/inner"}
        assert rows["outer/inner"]["calls"] == 2
        assert rows["outer"]["calls"] == 1

    def test_bytes_accumulate(self):
        with trace.run() as run:
            with trace.span("s", nbytes=10):
                pass
            with trace.span("s", nbytes=5):
                pass
        (row,) = report.stage_table(run.span_records())
        assert row["nbytes"] == 15

    def test_exception_still_recorded(self, capsys):
        with trace.run() as run:
            with pytest.raises(RuntimeError):
                with trace.span("boom"):
                    raise RuntimeError("x")
            # the span stack unwound: the next span is top-level again
            with trace.span("after"):
                pass
        rows = _rows(run)
        assert set(rows) == {"boom", "after"}
        assert rows["boom"]["calls"] == 1 and rows["boom"]["errors"] == 1
        assert rows["after"]["errors"] == 0
        lines = {ln.split()[0]: ln for ln in _printed(list(rows.values()), capsys)[1:]}
        assert lines["boom"].rstrip().endswith("!")
        assert not lines["after"].rstrip().endswith("!")

    def test_format_profile(self, capsys):
        with trace.run() as run:
            run.record_span("compress", t_start=0.0, dur=0.5, nbytes=2_000_000)
            run.record_span("quantize", t_start=0.0, dur=0.25)
        lines = _printed(report.stage_table(run.span_records()), capsys)
        assert "path" in lines[0] and "MB/s" in lines[0]
        rows = {ln.split()[0]: ln for ln in lines[1:]}
        assert set(rows) == {"compress", "quantize"}
        assert rows["compress"].rstrip().endswith("4.0")
        # heaviest total first
        assert lines[1].startswith("compress")

    def test_format_zero_bytes_shows_dash(self, capsys):
        with trace.run() as run:
            with trace.span("empty"):
                pass
        (row,) = report.stage_table(run.span_records())
        assert row["nbytes"] == 0 and row["mb_s"] is None
        line = next(ln for ln in _printed([row], capsys) if ln.startswith("empty"))
        assert line.rstrip().endswith("-")


class TestThreadSafety:
    def test_two_threads_profile_independently(self):
        """Two threads nesting spans under one run never produce cross-thread
        parent/child paths in the stage table."""
        barrier = threading.Barrier(2)
        errors = []

        def worker(name):
            try:
                for _ in range(30):
                    with trace.span(f"{name}.outer"):
                        barrier.wait(timeout=10)
                        with trace.span(f"{name}.inner"):
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with trace.run() as run:
            threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        rows = _rows(run)
        assert set(rows) == {"a.outer", "a.outer/a.inner",
                             "b.outer", "b.outer/b.inner"}
        assert all(r["calls"] == 30 for r in rows.values())
