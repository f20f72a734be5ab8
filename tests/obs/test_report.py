"""Tests for the offline telemetry-analysis CLI (``repro obs ...``)."""

import json
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.obs import report, trace

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "fixtures"


@pytest.fixture
def trace_file(tmp_path):
    """A real trace JSONL written by the current pipeline."""
    trace.end_run()
    run = trace.start_run()
    with trace.span("outer", nbytes=1000):
        with trace.span("inner_slow"):
            pass
        with trace.span("inner_fast"):
            pass
    trace.end_run()
    # make the tree's durations deterministic for critical-path assertions
    spans = {sp.name: sp for sp in run.spans()}
    spans["outer"].dur = 1.0
    spans["inner_slow"].dur = 0.8
    spans["inner_fast"].dur = 0.1
    path = tmp_path / "trace.jsonl"
    obs.write_trace_jsonl(run, path)
    return path


class TestClassify:
    def test_pr2_fixtures(self):
        assert report.classify_file(FIXTURES / "trace_pr2.jsonl") == "trace"
        assert report.classify_file(FIXTURES / "metrics_pr2.jsonl") == "metrics"

    def test_ledger_dir(self, tmp_path):
        (tmp_path / "ledger.jsonl").write_text(
            '{"rec": "cell", "cell": "abc", "status": "done"}\n')
        assert report.classify_file(tmp_path) == "ledger"

    def test_bench_json(self, tmp_path):
        doc = tmp_path / "bench.json"
        doc.write_text(json.dumps({"results": [], "config": {}}, indent=1))
        assert report.classify_file(doc) == "bench"

    def test_garbage_is_unknown(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("not telemetry\n")
        assert report.classify_file(path) == "unknown"
        with pytest.raises(ValueError):
            report.load_any(path)


class TestSchemaGate:
    def test_pr2_era_lines_accepted(self):
        """Files written before schema versioning still load (satellite 3)."""
        kind, records = report.load_any(FIXTURES / "trace_pr2.jsonl")
        assert kind == "trace" and len(records) == 4
        kind, records = report.load_any(FIXTURES / "metrics_pr2.jsonl")
        assert kind == "metrics" and len(records) == 3

    def test_future_schema_rejected(self, tmp_path):
        rec = json.loads(
            (FIXTURES / "trace_pr2.jsonl").read_text().splitlines()[0])
        rec["schema"] = 99
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="schema version 99"):
            report.load_any(path)

    def test_cli_exits_nonzero_on_violation(self, tmp_path, capsys):
        rec = json.loads(
            (FIXTURES / "metrics_pr2.jsonl").read_text().splitlines()[0])
        rec["schema"] = 99
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        assert report.main(["report", str(path)]) == 2
        assert "SCHEMA VIOLATION" in capsys.readouterr().err


class TestStageTable:
    def test_aggregates_per_path(self):
        _, spans = report.load_any(FIXTURES / "trace_pr2.jsonl")
        rows = report.stage_table(spans)
        by_path = {r["path"]: r for r in rows}
        assert by_path["compress"]["calls"] == 1
        assert by_path["compress"]["mb_s"] == pytest.approx(
            1048576 / 0.08 / 1e6)
        # heaviest total first
        assert rows[0]["path"] == "compress"

    def test_current_pipeline_output(self, trace_file, capsys):
        assert report.main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "p95 ms" in out

    def test_zero_duration_span_has_no_throughput(self, capsys):
        """A 0-duration span with bytes must not divide by zero."""
        with trace.run() as run:
            run.record_span("instant", t_start=0.0, dur=0.0, nbytes=1024)
        (row,) = report.stage_table(run.span_records())
        assert row["nbytes"] == 1024 and row["mb_s"] is None
        report.print_stage_table([row])
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("instant"))
        assert line.rstrip().endswith("-")

    def test_empty_table_prints_header_only(self, capsys):
        report.print_stage_table(report.stage_table([]))
        assert capsys.readouterr().out.splitlines()[0].startswith("path")

    def test_cliz_roundtrip_stages(self):
        from repro.core.compressor import CliZ

        rng = np.random.default_rng(0)
        data = rng.standard_normal((16, 20))
        comp = CliZ()
        with trace.run() as run:
            blob = comp.compress(data, abs_eb=1e-3)
        paths = {r["path"] for r in report.stage_table(run.span_records())}
        assert {"compress", "compress/predict+quantize",
                "compress/encode.codes"} <= paths
        assert any(p.endswith("lz.compress") for p in paths)
        with trace.run() as run:
            out = comp.decompress(blob)
        assert np.allclose(out, data, atol=1e-3)
        paths = {r["path"] for r in report.stage_table(run.span_records())}
        assert {"decompress", "decompress/decode.codes",
                "decompress/reconstruct"} <= paths

    def test_no_run_collects_nothing(self):
        from repro.core.compressor import CliZ

        trace.end_run()
        with trace.run() as finished:
            pass
        CliZ().compress(np.random.default_rng(1).standard_normal((8, 8)),
                        abs_eb=1e-3)
        assert trace.get_run() is None
        assert trace.last_run() is finished and finished.spans() == []


class TestCriticalPath:
    def test_follows_heaviest_chain(self, trace_file):
        _, spans = report.load_any(trace_file)
        chain = report.critical_path(spans)
        assert [rec["name"] for rec in chain] == ["outer", "inner_slow"]

    def test_cli(self, trace_file, capsys):
        assert report.main(["critical-path", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "inner_slow" in out and "inner_fast" not in out

    def test_empty(self):
        assert report.critical_path([]) == []

    def test_cycle_raises_instead_of_recursing(self):
        """Untrusted trace input with cyclic parent links (reachable via a
        duplicated span id) must raise cleanly, not RecursionError."""
        spans = [
            {"id": "a", "parent": None, "dur": 1.0, "name": "a", "path": "a"},
            {"id": "b", "parent": "a", "dur": 1.0, "name": "b", "path": "b"},
            {"id": "a", "parent": "b", "dur": 1.0, "name": "a2", "path": "a2"},
        ]
        with pytest.raises(ValueError, match="cycle"):
            report.critical_path(spans)

    def test_deep_chain_no_recursion_error(self):
        depth = 5000  # far beyond the default interpreter recursion limit
        spans = [{"id": f"s{i}", "parent": f"s{i - 1}" if i else None,
                  "dur": 1.0, "name": f"n{i}", "path": f"p{i}"}
                 for i in range(depth)]
        chain = report.critical_path(spans)
        assert len(chain) == depth
        assert chain[0]["id"] == "s0" and chain[-1]["id"] == f"s{depth - 1}"


class TestTop:
    def test_ranks_by_duration(self, trace_file, capsys):
        assert report.main(["top", str(trace_file), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "outer" in lines[1]
        assert "inner_slow" in lines[2]


class TestDiff:
    BASE_ROWS = [
        {"codec": "cliz", "dataset": "SSH",
         "compress_mb_s": 100.0, "decompress_mb_s": 200.0},
        {"codec": "zfp", "dataset": "SSH",
         "compress_mb_s": 400.0, "decompress_mb_s": 800.0},
    ]

    def _docs(self, tmp_path, scale=1.0, regress=None):
        import copy

        cur = copy.deepcopy(self.BASE_ROWS)
        for row in cur:
            row["compress_mb_s"] *= scale
            row["decompress_mb_s"] *= scale
        if regress:
            cur[0][regress] *= 0.25
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"results": self.BASE_ROWS}, indent=1))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"results": cur}, indent=1))
        return base, new

    def test_uniform_machine_factor_passes(self, tmp_path):
        base, new = self._docs(tmp_path, scale=0.5)  # CI runner half as fast
        failures, n = report.diff_files(base, new, 0.20)
        assert failures == [] and n == 4

    def test_single_regression_fails(self, tmp_path, capsys):
        base, new = self._docs(tmp_path, regress="compress_mb_s")
        failures, _ = report.diff_files(base, new, 0.20)
        assert len(failures) == 1 and "cliz/SSH/compress_mb_s" in failures[0]
        assert report.main(["diff", str(base), str(new)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_no_overlap_fails_loud(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(
            {"results": [{"codec": "other", "dataset": "X",
                          "compress_mb_s": 1.0}]}))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"results": self.BASE_ROWS}, indent=1))
        failures, n = report.diff_files(base, new, 0.20)
        assert n == 0 and "no comparable rows" in failures[0]

    def test_metrics_jsonl_diff(self, tmp_path):
        """Bench gauges in metrics JSONL diff the same way."""
        base = tmp_path / "base.jsonl"
        base.write_text(json.dumps(
            {"schema": 1, "type": "gauge",
             "name": "bench.codec.cliz.SSH.compress_mb_s",
             "value": 100.0}) + "\n")
        new = tmp_path / "new.jsonl"
        new.write_text(json.dumps(
            {"schema": 1, "type": "gauge",
             "name": "bench.codec.cliz.SSH.compress_mb_s",
             "value": 95.0}) + "\n")
        failures, n = report.diff_files(base, new, 0.20)
        assert failures == [] and n == 1


class TestLedgerReport:
    def test_summarizes_cells_and_events(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        lines = [
            {"rec": "cell", "cell": "a", "status": "planned"},
            {"rec": "cell", "cell": "a", "status": "running", "attempt": 1},
            {"rec": "cell", "cell": "a", "status": "done", "attempt": 1},
            {"rec": "cell", "cell": "b", "status": "running", "attempt": 2},
            {"rec": "cell", "cell": "b", "status": "failed", "attempt": 2},
            {"rec": "event", "kind": "requeue"},
        ]
        ledger.write_text("".join(json.dumps(ln) + "\n" for ln in lines))
        assert report.main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 done" in out and "1 failed" in out
        assert "retried cells: 1" in out
        assert "requeue x1" in out
