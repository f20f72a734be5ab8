"""Tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def field_files(tmp_path):
    rng = np.random.default_rng(0)
    y, x = np.mgrid[0:24, 0:30]
    data = (np.sin(x / 6.0) + np.cos(y / 5.0) + 0.01 * rng.standard_normal((24, 30))).astype(np.float32)
    mask = np.ones(data.shape, dtype=bool)
    mask[:4] = False
    data[:4] = np.float32(9.96921e36)
    dpath = tmp_path / "data.npy"
    mpath = tmp_path / "mask.npy"
    np.save(dpath, data)
    np.save(mpath, mask)
    return dpath, mpath, data, mask


class TestCompressDecompress:
    def test_roundtrip(self, tmp_path, field_files, capsys):
        dpath, mpath, data, mask = field_files
        out = tmp_path / "data.rz"
        back = tmp_path / "back.npy"
        assert main(["compress", str(dpath), str(out), "--codec", "cliz",
                     "--rel-eb", "1e-3", "--mask", str(mpath)]) == 0
        assert "CR" in capsys.readouterr().out
        assert main(["decompress", str(out), str(back)]) == 0
        got = np.load(back)
        span = data[mask].max() - data[mask].min()
        err = np.abs(got.astype(np.float64) - data.astype(np.float64))
        assert err[mask].max() <= 1e-3 * span + 1e-6

    def test_requires_exactly_one_bound(self, tmp_path, field_files):
        dpath, _, _, _ = field_files
        with pytest.raises(SystemExit):
            main(["compress", str(dpath), str(tmp_path / "x.rz")])
        with pytest.raises(SystemExit):
            main(["compress", str(dpath), str(tmp_path / "x.rz"),
                  "--rel-eb", "1e-3", "--abs-eb", "0.1"])

    def test_info(self, tmp_path, field_files, capsys):
        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        main(["compress", str(dpath), str(out), "--codec", "sz3", "--abs-eb", "0.01"])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sz3" in text and "sections" in text


class TestResilienceFlags:
    def test_chunked_roundtrip_with_retries(self, tmp_path, field_files, capsys):
        dpath, _, data, _ = field_files
        out = tmp_path / "d.rz"
        back = tmp_path / "back.npy"
        assert main(["compress", str(dpath), str(out), "--codec", "sz3",
                     "--abs-eb", "1e-3", "--chunks", "4",
                     "--retries", "2", "--retry-backoff", "0",
                     "--inject-faults", "seed=1;crash:only=1"]) == 0
        assert main(["decompress", str(out), str(back)]) == 0
        assert np.abs(np.load(back) - data).max() <= 1e-3 + 1e-6

    def test_salvage_flag_with_injected_bitrot(self, tmp_path, field_files, capsys):
        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        back = tmp_path / "back.npy"
        rep = tmp_path / "report.json"
        main(["compress", str(dpath), str(out), "--codec", "sz3",
              "--abs-eb", "1e-3", "--chunks", "4"])
        capsys.readouterr()
        assert main(["decompress", str(out), str(back), "--salvage",
                     "--salvage-report", str(rep),
                     "--inject-faults", "seed=5;bitflip:n=4"]) == 0
        err = capsys.readouterr().err
        assert "salvage" in err and "injected" in err
        report = json.loads(rep.read_text())
        assert report["codec"] == "chunked" and not report["ok"]
        got = np.load(back)
        assert np.isnan(got).any() and not np.isnan(got).all()

    def test_salvage_clean_blob_reports_ok(self, tmp_path, field_files, capsys):
        dpath, _, data, _ = field_files
        out = tmp_path / "d.rz"
        back = tmp_path / "back.npy"
        rep = tmp_path / "report.json"
        main(["compress", str(dpath), str(out), "--codec", "sz3",
              "--abs-eb", "1e-3", "--chunks", "3"])
        assert main(["decompress", str(out), str(back), "--salvage",
                     "--salvage-report", str(rep)]) == 0
        assert json.loads(rep.read_text())["ok"]
        assert np.abs(np.load(back) - data).max() <= 1e-3 + 1e-6

    def test_pooled_decompress_equals_serial(self, tmp_path, field_files):
        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        main(["compress", str(dpath), str(out), "--codec", "sz3",
              "--abs-eb", "1e-3", "--chunks", "4"])
        serial, pooled = tmp_path / "serial.npy", tmp_path / "pooled.npy"
        assert main(["decompress", str(out), str(serial)]) == 0
        assert main(["decompress", str(out), str(pooled), "--workers", "2"]) == 0
        assert np.load(serial).tobytes() == np.load(pooled).tobytes()

    def test_salvage_rejects_non_chunked_blob(self, tmp_path, field_files):
        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        main(["compress", str(dpath), str(out), "--codec", "sz3",
              "--abs-eb", "1e-3"])
        with pytest.raises(SystemExit, match="chunked"):
            main(["decompress", str(out), str(tmp_path / "b.npy"), "--salvage"])

    def test_inject_faults_on_compress_needs_chunks(self, tmp_path, field_files):
        dpath, _, _, _ = field_files
        with pytest.raises(SystemExit, match="--chunks"):
            main(["compress", str(dpath), str(tmp_path / "x.rz"),
                  "--abs-eb", "1e-3", "--inject-faults", "seed=1;crash"])

    def test_bad_fault_spec_fails_clearly(self, tmp_path, field_files, capsys):
        dpath, _, _, _ = field_files
        with pytest.raises(SystemExit) as exc:
            main(["compress", str(dpath), str(tmp_path / "x.rz"),
                  "--abs-eb", "1e-3", "--chunks", "2",
                  "--inject-faults", "frobnicate"])
        assert exc.value.code == 2
        assert "offending token 'frobnicate'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compress", "in.npy", "out.rz", "--chunks", "2"],
        ["sweep", "--out", "sweep"],
        ["decompress", "missing.rz", "out.npy"],
    ])
    def test_bad_fault_spec_is_a_usage_error(self, tmp_path, monkeypatch, argv,
                                             capsys):
        # parsed as the flag's argparse type: exit 2 with one error line,
        # before any input is read or any output written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--inject-faults", "crash:p=2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error: argument --inject-faults:" in err
        assert "offending token 'crash:p=2'" in err
        assert list(tmp_path.iterdir()) == []


class TestTelemetryFlags:
    def test_compress_writes_trace_metrics_chrome(self, tmp_path, field_files, capsys):
        from repro.obs.sinks import load_jsonl, validate_metrics_line, validate_trace_line

        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        chrome = tmp_path / "chrome.json"
        assert main(["compress", str(dpath), str(out), "--codec", "cliz",
                     "--abs-eb", "1e-3",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics),
                     "--chrome-out", str(chrome)]) == 0
        err = capsys.readouterr().err
        assert str(trace) in err and str(metrics) in err

        trace_recs = load_jsonl(trace)
        assert trace_recs
        for rec in trace_recs:
            validate_trace_line(rec)
        assert any(r["name"] == "compress" for r in trace_recs)

        metric_recs = load_jsonl(metrics)
        assert metric_recs
        for rec in metric_recs:
            validate_metrics_line(rec)
        names = {r["name"] for r in metric_recs}
        assert "cliz.compression_ratio" in names

        doc = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_decompress_trace_out(self, tmp_path, field_files):
        from repro.obs.sinks import load_jsonl, validate_trace_line

        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        back = tmp_path / "back.npy"
        trace = tmp_path / "dec.jsonl"
        main(["compress", str(dpath), str(out), "--codec", "cliz", "--abs-eb", "1e-3"])
        assert main(["decompress", str(out), str(back),
                     "--trace-out", str(trace)]) == 0
        recs = load_jsonl(trace)
        for rec in recs:
            validate_trace_line(rec)
        assert any(r["name"] == "decompress" for r in recs)

    def test_profile_flag_prints_stage_table(self, tmp_path, field_files, capsys):
        dpath, _, _, _ = field_files
        out = tmp_path / "d.rz"
        back = tmp_path / "back.npy"
        for argv, root in (
                (["compress", str(dpath), str(out), "--abs-eb", "1e-3"],
                 "compress"),
                (["decompress", str(out), str(back)], "decompress")):
            assert main(argv + ["--profile"]) == 0
            err = capsys.readouterr().err
            table = err.split("per-stage profile:\n", 1)[1].splitlines()
            # the `repro obs report` stage table: header, then one row per path
            assert table[0].split() == ["path", "calls", "total", "s",
                                        "p50", "ms", "p95", "ms", "p99", "ms",
                                        "MB/s"]
            paths = {ln.split()[0] for ln in table[1:] if ln.strip()}
            assert root in paths
            assert any(p.startswith(f"{root}/") for p in paths)


def _exporter_threads():
    import threading

    return [t for t in threading.enumerate()
            if t.name == "repro-metrics-server" and t.is_alive()]


_FAILING_CHUNK = "seed=7;crash:only=1:attempts=5"


class TestTelemetrySession:
    """Every exit of a command closes its telemetry: files, exporter, run."""

    def test_failed_compress_leaves_its_trace(self, tmp_path, field_files):
        from repro import obs
        from repro.faults import FaultInjectedError
        from repro.obs.sinks import load_jsonl, validate_metrics_line, validate_trace_line

        dpath, _, _, _ = field_files
        trace = tmp_path / "failed.trace.jsonl"
        metrics = tmp_path / "failed.metrics.jsonl"
        with pytest.raises(FaultInjectedError):
            main(["compress", str(dpath), str(tmp_path / "f.rz"),
                  "--codec", "sz3", "--abs-eb", "1e-3", "--chunks", "4",
                  "--inject-faults", _FAILING_CHUNK,
                  "--trace-out", str(trace), "--metrics-out", str(metrics),
                  "--serve-metrics", "0"])
        trace_recs = load_jsonl(trace)
        assert trace_recs
        for rec in trace_recs:
            validate_trace_line(rec)
        metric_recs = load_jsonl(metrics)
        for rec in metric_recs:
            validate_metrics_line(rec)
        failures = [r["value"] for r in metric_recs
                    if r["name"] == "parallel.job_failures"]
        assert failures == [1]
        assert not _exporter_threads()
        assert obs.get_run() is None
        assert not (tmp_path / "f.rz").exists()

    def test_failed_sweep_leaves_no_run_or_exporter(self, tmp_path):
        from repro import obs

        with pytest.raises(ValueError):
            main(["sweep", "--out", str(tmp_path / "sweep"), "--datasets", "SSH",
                  "--shape", "12,10,48", "--compressors", "SZ3",
                  "--rel-ebs", "1e-2", "--no-fsync",
                  "--retries", "-1", "--serve-metrics", "0"])
        assert not _exporter_threads()
        assert obs.get_run() is None

    def test_sink_error_does_not_replace_the_command_error(
            self, tmp_path, field_files, capsys):
        from repro.faults import FaultInjectedError

        dpath, _, _, _ = field_files
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        metrics = tmp_path / "m.jsonl"
        with pytest.raises(FaultInjectedError):
            main(["compress", str(dpath), str(tmp_path / "f.rz"),
                  "--codec", "sz3", "--abs-eb", "1e-3", "--chunks", "4",
                  "--inject-faults", _FAILING_CHUNK,
                  "--trace-out", str(blocker / "t.jsonl"),
                  "--metrics-out", str(metrics)])
        assert "--trace-out not written" in capsys.readouterr().err
        assert metrics.exists()  # one failing sink does not skip the others

    def test_sink_error_on_success_is_raised(self, tmp_path, field_files):
        dpath, _, _, _ = field_files
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            main(["compress", str(dpath), str(tmp_path / "f.rz"),
                  "--abs-eb", "1e-3", "--trace-out", str(blocker / "t.jsonl")])

    def test_active_run_is_reused_and_left_running(self, tmp_path, field_files):
        from repro import obs
        from repro.obs.sinks import load_jsonl

        dpath, _, _, _ = field_files
        trace = tmp_path / "t.jsonl"
        with obs.run(tags={"outer": "yes"}) as outer:
            assert main(["compress", str(dpath), str(tmp_path / "f.rz"),
                         "--abs-eb", "1e-3", "--trace-out", str(trace)]) == 0
            assert obs.get_run() is outer
        assert {r["run"] for r in load_jsonl(trace)} == {outer.run_id}

    def test_no_flag_starts_no_run(self, tmp_path, field_files, monkeypatch):
        from repro.obs import trace

        started = []
        monkeypatch.setattr(trace, "start_run",
                            lambda *a, **k: started.append(1))
        dpath, _, _, _ = field_files
        assert main(["compress", str(dpath), str(tmp_path / "f.rz"),
                     "--abs-eb", "1e-3"]) == 0
        assert started == []

    def test_each_command_keeps_its_telemetry_flags(self):
        from repro.cli import build_parser
        from repro.obs import SESSION_FLAGS
        from repro.service.__main__ import _parser

        def flags(parser, argv):
            given = vars(parser.parse_args(argv))
            return [f for f in SESSION_FLAGS if f[2:].replace("-", "_") in given]

        cli, service = build_parser(), _parser()
        for argv in (["compress", "a", "b"], ["decompress", "a", "b"],
                     ["experiment", "headline"]):
            assert flags(cli, argv) == list(SESSION_FLAGS)
        assert flags(cli, ["sweep", "--out", "d"]) == [
            "--trace-out", "--metrics-out", "--serve-metrics"]
        assert flags(service, ["serve"]) == ["--serve-metrics"]
        assert flags(service, ["shard", "--index", "0", "--shards", "1",
                               "--config", "{}"]) == []


class TestTune:
    def test_tune_and_save_config(self, tmp_path, field_files, capsys):
        dpath, mpath, _, _ = field_files
        cfg_path = tmp_path / "pipeline.json"
        rc = main(["tune", str(dpath), "--rel-eb", "1e-3", "--mask", str(mpath),
                   "--horiz-axes", "0,1", "--max-layouts", "2",
                   "--sampling-rate", "0.1", "--save-config", str(cfg_path)])
        assert rc == 0
        assert "best" in capsys.readouterr().out
        from repro.core import PipelineConfig
        cfg = PipelineConfig.from_dict(json.loads(cfg_path.read_text()))
        assert cfg.layout.ndim_in == 2

    def test_tune_reports_its_workers(self, field_files, capsys):
        dpath, mpath, _, _ = field_files
        assert main(["tune", str(dpath), "--rel-eb", "1e-3", "--mask", str(mpath),
                     "--max-layouts", "2", "--sampling-rate", "0.1"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^tuning   : \d+\.\ds over \d+ pipelines on "
                         r"(1 worker|[2-9]\d* workers)$", out, re.MULTILINE)


class TestAssess:
    def test_assess_pass_and_fail(self, tmp_path, field_files, capsys):
        dpath, mpath, data, mask = field_files
        good = tmp_path / "good.npy"
        np.save(good, data)  # identical reconstruction
        assert main(["assess", str(dpath), str(good), "--mask", str(mpath),
                     "--abs-eb", "0.01"]) == 0
        assert "PASS" in capsys.readouterr().out
        bad = tmp_path / "bad.npy"
        np.save(bad, data + np.float32(1.0))
        assert main(["assess", str(dpath), str(bad), "--mask", str(mpath),
                     "--abs-eb", "0.01"]) == 1


class TestDatasetAndMisc:
    def test_dataset_generation(self, tmp_path, capsys):
        out = tmp_path / "hur.npy"
        assert main(["dataset", "Hurricane-T", "--out", str(out)]) == 0
        assert np.load(out).ndim == 3

    def test_dataset_with_mask(self, tmp_path, capsys):
        out = tmp_path / "ssh.npy"
        mout = tmp_path / "sshm.npy"
        assert main(["dataset", "SSH", "--out", str(out), "--mask-out", str(mout)]) == 0
        assert np.load(mout).dtype == bool

    def test_codecs_listing(self, capsys):
        assert main(["codecs"]) == 0
        text = capsys.readouterr().out
        for name in ("cliz", "sz3", "zfp", "sperr", "tthresh"):
            assert name in text

    def test_unknown_experiment_lists_options(self, capsys):
        assert main(["experiment", "fig99"]) == 1
        assert "headline" in capsys.readouterr().out

    def test_experiment_runs(self, capsys):
        assert main(["experiment", "table3_datasets"]) == 0
        assert "SOILLIQ" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--out", str(out), "--datasets", "SSH",
                "--shape", "12,10,48", "--compressors", "SZ3",
                "--rel-ebs", "1e-2", "--no-fsync"]
        assert main(args) == 0
        assert "complete" in capsys.readouterr().out
        assert (out / "ledger.jsonl").exists()
        assert (out / "results.json").exists()
        # resuming a finished sweep is a cheap no-op
        assert main(args + ["--resume"]) == 0
        assert "1 skipped (ledger)" in capsys.readouterr().out
