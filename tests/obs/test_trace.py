"""Tests for the span tracer: nesting, threads, exports, absorb."""

import json
import threading

import pytest

from repro import obs
from repro.obs.sinks import (
    chrome_trace_events,
    load_jsonl,
    validate_metrics_line,
    validate_trace_line,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.end_run()
    yield
    obs.end_run()


class TestSpans:
    def test_disabled_is_noop(self):
        with obs.span("x") as sp:
            assert sp is None
        assert obs.get_run() is None

    def test_nesting_builds_paths_and_parents(self):
        run = obs.start_run()
        with obs.span("a") as a:
            with obs.span("b") as b:
                assert b.parent_id == a.span_id
                assert b.path == "a/b"
        spans = {s.name: s for s in run.spans()}
        assert spans["b"].parent_id == spans["a"].span_id
        assert spans["a"].parent_id is None
        assert spans["a"].run_id == run.run_id

    def test_tags_nbytes_status(self):
        run = obs.start_run()
        with pytest.raises(RuntimeError):
            with obs.span("boom", nbytes=10, codec="cliz"):
                obs.add_bytes(5)
                obs.set_tag("k", "v")
                raise RuntimeError("x")
        (sp,) = run.spans()
        assert sp.nbytes == 15
        assert sp.tags == {"codec": "cliz", "k": "v"}
        assert sp.status == "error"

    def test_run_contextmanager_deactivates(self):
        with obs.run(tags={"t": 1}) as r:
            assert obs.get_run() is r
        assert obs.get_run() is None
        assert obs.last_run() is r

    def test_record_span_simulated_time(self):
        run = obs.start_run()
        with obs.span("dispatch") as parent:
            sp = run.record_span("sim", t_start=2.0, dur=3.0, parent=parent,
                                 tid=1001, lane="core0")
        assert sp.t_wall == pytest.approx(run.t0_wall + 2.0)
        assert sp.path == "dispatch/sim"
        assert sp.tid == 1001

    def test_threads_do_not_corrupt_each_others_stacks(self):
        """Two threads nesting concurrently each see only their own ancestry."""
        run = obs.start_run()
        barrier = threading.Barrier(2)
        errors = []

        def worker(name):
            try:
                for _ in range(50):
                    with obs.span(f"{name}.outer") as outer:
                        barrier.wait(timeout=10)
                        with obs.span(f"{name}.inner") as inner:
                            assert inner.parent_id == outer.span_id
                            assert inner.path == f"{name}.outer/{name}.inner"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        paths = {s.path for s in run.spans()}
        assert paths == {"t1.outer", "t1.outer/t1.inner", "t2.outer", "t2.outer/t2.inner"}
        assert len(run.spans()) == 200


class TestExports:
    def _sample_run(self):
        run = obs.start_run(tags={"dataset": "SSH"})
        with obs.span("compress", nbytes=100, codec="cliz"):
            with obs.span("quantize"):
                pass
        run.metrics.counter("calls").inc()
        run.metrics.histogram("ratio", buckets=[1.0, 10.0]).observe(5.0)
        obs.end_run()
        return run

    def test_jsonl_roundtrip_schema_valid(self, tmp_path):
        run = self._sample_run()
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.jsonl"
        run.export_jsonl(trace_path)
        run.export_metrics_jsonl(metrics_path)

        trace = load_jsonl(trace_path)
        assert len(trace) == 2
        for rec in trace:
            validate_trace_line(rec)
        by_name = {r["name"]: r for r in trace}
        assert by_name["quantize"]["parent"] == by_name["compress"]["id"]
        assert by_name["compress"]["tags"]["codec"] == "cliz"

        metrics = load_jsonl(metrics_path)
        assert [r["name"] for r in metrics] == [
            "calls", "ratio", "span.compress.seconds", "span.quantize.seconds"]
        for rec in metrics:
            validate_metrics_line(rec)

    def test_spans_reimport_from_records(self):
        run = self._sample_run()
        records = run.span_records()
        clone = obs.Run()
        clone.absorb(records)
        assert [s.path for s in clone.spans()] == [s.path for s in run.spans()]

    def test_chrome_trace_format(self, tmp_path):
        run = self._sample_run()
        path = tmp_path / "trace.json"
        run.export_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # run metadata
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        for e in xs:
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(e)
            assert e["ts"] >= 0 and e["dur"] >= 0
        assert chrome_trace_events(run)[0]["args"]["dataset"] == "SSH"

    def test_jsonl_sink_appends(self, tmp_path):
        path = tmp_path / "a.jsonl"
        sink = obs.JsonlSink(path)
        assert sink.write([{"a": 1}]) == 1
        assert sink.write([{"b": 2}]) == 1
        assert len(load_jsonl(path)) == 2

    def test_load_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_jsonl(path)

    def test_load_jsonl_skips_byte_truncated_tail(self, tmp_path):
        """Regression: a writer killed mid-append leaves an unterminated
        final line — an expected crash signature, not corruption."""
        path = tmp_path / "torn.jsonl"
        whole = b'{"a": 1}\n{"b": 2}\n{"c": 3}\n'
        path.write_bytes(whole[: len(whole) - 4])  # tear the final record
        with pytest.warns(RuntimeWarning, match="torn final line"):
            records = load_jsonl(path)
        assert records == [{"a": 1}, {"b": 2}]

    def test_jsonl_sink_heals_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "a.jsonl"
        sink = obs.JsonlSink(path)
        sink.write([{"a": 1}, {"b": 2}])
        path.write_bytes(path.read_bytes() + b'{"half')  # crashed append
        with pytest.warns(RuntimeWarning, match="healed"):
            sink.write([{"c": 3}])
        assert load_jsonl(path) == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_jsonl_sink_concurrent_appends_never_interleave(self, tmp_path):
        """Regression: threads appending to one sink (service handlers +
        exporter flushes) must not tear or interleave each other's lines."""
        import threading

        path = tmp_path / "hot.jsonl"
        n_threads, n_batches, batch = 8, 20, 5
        errors = []

        def pound(tid):
            sink = obs.JsonlSink(path)  # each thread its own sink instance
            try:
                for b in range(n_batches):
                    sink.write([{"t": tid, "b": b, "i": i}
                                for i in range(batch)])
            except Exception as exc:  # noqa: BLE001 - reported via errors
                errors.append(exc)

        threads = [threading.Thread(target=pound, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        records = load_jsonl(path)  # raises on any torn/interleaved line
        assert len(records) == n_threads * n_batches * batch
        # every batch arrived contiguously (the O_APPEND single-write
        # guarantee): its records appear in order with nothing in between
        for tid in range(n_threads):
            mine = [(r["b"], r["i"]) for r in records if r["t"] == tid]
            assert mine == [(b, i) for b in range(n_batches)
                            for i in range(batch)]
        positions = {}
        for pos, r in enumerate(records):
            positions.setdefault((r["t"], r["b"]), []).append(pos)
        for runs in positions.values():
            assert runs == list(range(runs[0], runs[0] + batch))


class TestValidation:
    def test_trace_line_missing_key(self):
        run = obs.start_run()
        with obs.span("x"):
            pass
        (rec,) = run.span_records()
        validate_trace_line(rec)
        del rec["dur"]
        with pytest.raises(ValueError, match="dur"):
            validate_trace_line(rec)

    def test_trace_line_bad_status(self):
        run = obs.start_run()
        with obs.span("x"):
            pass
        (rec,) = run.span_records()
        rec["status"] = "weird"
        with pytest.raises(ValueError, match="status"):
            validate_trace_line(rec)

    def test_metrics_line_histogram_shape(self):
        rec = {"type": "histogram", "name": "h", "buckets": [1.0],
               "counts": [1], "count": 1, "sum": 0.5}
        with pytest.raises(ValueError, match="len"):
            validate_metrics_line(rec)

    def test_metrics_line_unknown_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            validate_metrics_line({"type": "summary", "name": "x"})


class TestAbsorb:
    def test_absorb_reparents_and_prefixes_paths(self):
        parent_run = obs.start_run()
        with obs.span("compress_many") as dispatch:
            pass
        obs.end_run()

        worker_run = obs.Run(tags={"role": "worker"})
        token_spans = [
            {"type": "span", "run": worker_run.run_id, "id": "w-1", "parent": None,
             "name": "worker", "path": "worker", "ts": 1.0, "dur": 0.5,
             "pid": 999, "tid": 1, "nbytes": 0, "tags": {}, "status": "ok"},
            {"type": "span", "run": worker_run.run_id, "id": "w-2", "parent": "w-1",
             "name": "compress", "path": "worker/compress", "ts": 1.1, "dur": 0.4,
             "pid": 999, "tid": 1, "nbytes": 10, "tags": {}, "status": "ok"},
        ]
        parent_run.absorb(token_spans, reparent_to=dispatch)
        by_id = {s.span_id: s for s in parent_run.spans()}
        assert by_id["w-1"].parent_id == dispatch.span_id
        assert by_id["w-1"].path == "compress_many/worker"
        assert by_id["w-2"].parent_id == "w-1"
        assert by_id["w-2"].path == "compress_many/worker/compress"
        assert by_id["w-1"].run_id == parent_run.run_id
        assert by_id["w-1"].pid == 999  # worker pid preserved

    def test_absorb_merges_metrics(self):
        parent_run = obs.start_run()
        worker = obs.MetricsRegistry()
        worker.counter("files").inc(3)
        parent_run.absorb([], worker.snapshot())
        assert parent_run.metrics.counter("files").value == 3

    def test_worker_stage_latency_reaches_metrics(self):
        """Span latencies observed in pool workers ship back as histograms:
        a stage that runs only in workers renders on /metrics with one
        ``_count`` per span of that name in the trace."""
        import os

        import numpy as np

        from repro.obs.prom import render_run, sanitize_metric_name
        from repro.parallel import compress_chunked

        shape = (24, 16, 12)
        grids = np.meshgrid(*[np.linspace(0, 3, n) for n in shape],
                            indexing="ij")
        field = sum(np.sin(g) for g in grids).astype(np.float32)
        with obs.run() as run:
            compress_chunked(field, "sz3", axis=0, n_chunks=4, abs_eb=1e-3,
                             workers=2)
        spans = run.spans()
        parent_stages = {sp.name for sp in spans if sp.pid == os.getpid()}
        worker_only = {sp.name for sp in spans} - parent_stages
        assert worker_only, "expected a stage that runs only in workers"
        doc = render_run(run)
        for stage in sorted(worker_only):
            family = sanitize_metric_name(f"span.{stage}.seconds", "repro_")
            assert f"# TYPE {family} histogram" in doc.splitlines()
            n_spans = sum(sp.name == stage for sp in spans)
            assert f"{family}_count {n_spans}" in doc.splitlines()
