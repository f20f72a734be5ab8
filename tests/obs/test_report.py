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

    def _docs(self, tmp_path, scale=1.0, regress=None, speedup=1.0):
        """Every row carries the reference job's time; ``scale`` is the machine's speed."""
        import copy

        base_rows = copy.deepcopy(self.BASE_ROWS)
        for row in base_rows:
            row["reference_ms"] = 5.0
        cur = copy.deepcopy(base_rows)
        for row in cur:
            row["compress_mb_s"] *= scale
            row["decompress_mb_s"] *= scale
            row["reference_ms"] /= scale
        if regress:
            cur[0][regress] *= 0.25
        cur[1]["compress_mb_s"] *= speedup
        cur[1]["decompress_mb_s"] *= speedup
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"results": base_rows}, indent=1))
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

    def test_speedup_of_half_the_rows_passes_the_rest(self, tmp_path):
        """A median-row factor would read 1.5x here and fail the cliz rows."""
        base, new = self._docs(tmp_path, speedup=3.0)
        failures, n = report.diff_files(base, new, 0.20)
        assert failures == [] and n == 4

    def test_slower_reference_scales_the_row(self, tmp_path):
        """On a machine twice as slow, unchanged rows pass and 30% slower ones fail,
        also when they are half the rows (a median-row factor would pass them)."""
        base, new = self._docs(tmp_path, scale=0.5, speedup=0.7)
        failures, _ = report.diff_files(base, new, 0.20)
        assert len(failures) == 2 and all("zfp/SSH" in f for f in failures)

    def test_no_overlap_fails_loud(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(
            {"results": [{"codec": "other", "dataset": "X",
                          "compress_mb_s": 1.0}]}))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"results": self.BASE_ROWS}, indent=1))
        failures, n = report.diff_files(base, new, 0.20)
        assert n == 0 and "no comparable rows" in failures[0]

    def test_one_slow_dataset_fails_its_row(self, tmp_path):
        """A path 30% slower on one of its three datasets fails on that row alone,
        however fast the other two are."""
        def doc(path, ssh_scale):
            rows = [{"codec": "cliz", "dataset": ds, "reference_ms": 5.0,
                     "compress_mb_s": 100.0 * (ssh_scale if ds == "SSH" else 1.3)}
                    for ds in ("SSH", "CESM-T", "Hurricane-T")]
            path.write_text(json.dumps({"results": rows}))
            return path

        base = doc(tmp_path / "base.json", 1 / 1.3)
        failures, n = report.diff_files(base, doc(tmp_path / "new.json", 0.7 / 1.3), 0.20)
        assert n == 3 and len(failures) == 1 and "cliz/SSH/compress_mb_s" in failures[0]

    def test_rows_without_reference_are_marked(self, tmp_path):
        """A baseline without reference times is compared unnormalized, and says so."""
        base, new = self._docs(tmp_path, scale=0.5)
        doc = json.loads(base.read_text())
        for row in doc["results"]:
            del row["reference_ms"]
        base.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="4 of 4 compared rows have no reference_ms"):
            failures, n = report.diff_files(base, new, 0.20)
        assert n == 4 and len(failures) == 4
        assert all("not machine-normalized" in f for f in failures)

    def test_unchanged_ratio_passes(self, tmp_path):
        base, new = self._docs(tmp_path)
        for path in (base, new):
            doc = json.loads(path.read_text())
            doc["results"][0]["ratio"] = 6.03
            path.write_text(json.dumps(doc))
        assert report.diff_files(base, new, 0.20) == ([], 4)

    def test_changed_ratio_fails_its_row(self, tmp_path, capsys):
        """Ratios are deterministic: a change of 0.01 fails, however fast the row."""
        base, new = self._docs(tmp_path, speedup=3.0)
        for path, ratio in ((base, 6.03), (new, 6.04)):
            doc = json.loads(path.read_text())
            doc["results"][1]["ratio"] = ratio
            path.write_text(json.dumps(doc))
        failures, n = report.diff_files(base, new, 0.20)
        assert n == 4 and failures == ["zfp/SSH: ratio 6.04 differs from the baseline's 6.03"]
        assert report.main(["diff", str(base), str(new)]) == 1
        assert "zfp/SSH: ratio 6.04" in capsys.readouterr().err

    def test_row_without_ratio_is_not_ratio_gated(self, tmp_path):
        """A kernel row records no ratio; only its throughput is compared."""
        base, new = self._docs(tmp_path)
        doc = json.loads(base.read_text())
        doc["results"][0]["ratio"] = 6.03
        base.write_text(json.dumps(doc))
        assert report.diff_files(base, new, 0.20) == ([], 4)

    def test_metrics_jsonl_row_reference(self, tmp_path):
        """A row's ``reference_ms`` gauge normalizes its throughput gauges."""
        def gauges(path, mb_s, ref_ms):
            path.write_text("".join(json.dumps(
                {"schema": 1, "type": "gauge", "name": f"bench.codec.cliz.SSH.{k}",
                 "value": v}) + "\n" for k, v in (("compress_mb_s", mb_s),
                                                  ("reference_ms", ref_ms))))
            return path

        base = gauges(tmp_path / "base.jsonl", 100.0, 5.0)
        assert report.diff_files(base, gauges(tmp_path / "slow.jsonl", 50.0, 10.0), 0.20) == ([], 1)
        failures, _ = report.diff_files(base, gauges(tmp_path / "bad.jsonl", 70.0, 5.0), 0.20)
        assert len(failures) == 1

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
        with pytest.warns(RuntimeWarning, match="not machine-normalized"):
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

    def test_reads_the_ledger_like_resume(self, tmp_path, capsys):
        """One fold: a torn final line is skipped, a damaged interior line
        is the schema gate's exit 2 (``--resume`` skips and counts it)."""
        from repro.runtime import RunLedger, replay_ledger

        ledger = RunLedger(tmp_path / "ledger.jsonl", fsync=False)
        ledger.planned("a")
        ledger.running("a", 1)
        ledger.running("a", 2)
        ledger.done("a", "cells/a.json", "d", 2)
        ledger.event("resume", records=4)
        raw = ledger.path.read_bytes()
        ledger.path.write_bytes(raw + b'{"rec": "cell", "ce')
        with pytest.warns(RuntimeWarning, match="torn final"):
            assert report.main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  cells: 1 (1 done)",
            "  retried cells: 1 (max attempt 2)",
            "  events: resume x1",
        ]
        lines = raw.split(b"\n")
        lines[1] = lines[1][:-3]  # damage one middle line
        ledger.path.write_bytes(b"\n".join(lines))
        with pytest.warns(RuntimeWarning, match="invalid ledger line"):
            assert replay_ledger(ledger.path).invalid_lines == 1
        with pytest.warns(RuntimeWarning, match="invalid ledger line"):
            assert report.main(["report", str(tmp_path)]) == 2
        assert "1 invalid ledger line(s)" in capsys.readouterr().err

    def test_ledger_file_with_damaged_first_line(self, tmp_path, capsys):
        """Given as a file, a ledger whose first line is damaged gets the verdict
        its sweep directory gets, not ``unrecognized telemetry file``."""
        from repro.experiments.sweep import plan_grid, run_sweep

        plan = plan_grid(["SSH"], [1e-2], ["SZ3"], shape=(12, 10, 48))
        run_sweep(tmp_path, plan, fsync=False)
        run_sweep(tmp_path, plan, resume=True, fsync=False)
        ledger = tmp_path / "ledger.jsonl"
        first, rest = ledger.read_bytes().split(b"\n", 1)
        ledger.write_bytes(first[:-5] + b"\n" + rest)
        assert report.classify_file(ledger) == "ledger"
        for target in (ledger, tmp_path):
            with pytest.warns(RuntimeWarning, match="invalid ledger line"):
                assert report.main(["report", str(target)]) == 2
            assert "1 invalid ledger line(s)" in capsys.readouterr().err
