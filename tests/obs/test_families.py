"""Pin the ``/metrics`` families the real call sites produce.

One obs run drives every path that feeds a live series: a dispatch
retry, a per-job timeout, a pooled ``compress_chunked`` (queue depth,
worker span latencies), a sweep cell retry and a WAN simulation. The
rendered document must show exactly the pinned ``# TYPE`` family/kind
pairs, each family once, with the pinned ``_total`` sample values.
"""

import re

import numpy as np
import pytest

from repro import obs
from repro.experiments.sweep import plan_grid, run_sweep
from repro.faults import parse_fault_spec
from repro.obs.prom import render_run
from repro.parallel import compress_chunked, compress_many
from repro.transfer import WanLink, simulate_globus


def _arrays(n, shape=(12, 10)):
    rng = np.random.default_rng(0)
    return [rng.normal(0, 1, shape).astype(np.float32) for _ in range(n)]


def _field(shape=(24, 16, 12)):
    grids = np.meshgrid(*[np.linspace(0, 3, n) for n in shape], indexing="ij")
    return sum(np.sin(g) for g in grids).astype(np.float32)


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    obs.end_run()
    run = obs.start_run()
    try:
        # dispatch retry: job 0 crashes once, the retry succeeds
        compress_many(_arrays(2), "sz3", abs_eb=1e-2, retries=1,
                      retry_backoff=0.0, faults="seed=1;crash:only=0:attempts=1")
        # per-job timeout: the only attempt outlives its timeout
        with pytest.raises(TimeoutError):
            compress_many(_arrays(1), "sz3", abs_eb=1e-2, timeout=0.05,
                          retry_backoff=0.0, faults="seed=1;slow:delay=0.4")
        # pooled chunked compress: queue depth gauge, worker spans
        compress_chunked(_field(), "sz3", axis=0, n_chunks=4, abs_eb=1e-3,
                         workers=2)
        # sweep cell retry
        plan = plan_grid(["SSH"], [1e-2], ["SZ3", "ZFP"], shape=(12, 10, 48))
        run_sweep(tmp_path_factory.mktemp("sweep"), plan, retries=1, retry_backoff=0.0,
                  fsync=False,
                  faults=parse_fault_spec("seed=1;crash:only=0:attempts=1"))
        # WAN simulation
        simulate_globus("cliz", n_cores=2, uncompressed_bytes=400_000,
                        compressed_bytes=[10_000, 12_000],
                        link=WanLink(bandwidth=50_000.0))
    finally:
        obs.end_run()
    return render_run(run)


def _families(text):
    return [(name[len("repro_"):], kind)
            for name, kind in re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M)]


#: ``# TYPE`` family/kind pairs, without the ``repro_`` prefix.
EXPECTED_FAMILIES = {
    ("experiment_sz3_compression_ratio", "histogram"),
    ("experiment_sz3_psnr", "histogram"),
    ("experiment_zfp_compression_ratio", "histogram"),
    ("experiment_zfp_psnr", "histogram"),
    ("faults_crash_planned_total", "counter"),
    ("faults_slow_planned_total", "counter"),
    ("lz_attempted_total", "counter"),
    ("lz_kept_total", "counter"),
    ("parallel_job_attempts", "histogram"),
    ("parallel_job_failures_total", "counter"),
    ("parallel_job_seconds", "histogram"),
    ("parallel_jobs_ok_total", "counter"),
    ("parallel_jobs_total", "counter"),
    ("parallel_queue_depth", "gauge"),
    ("parallel_retries_total", "counter"),
    ("parallel_timeouts_total", "counter"),
    ("span_compress_chunked_seconds", "histogram"),
    ("span_compress_many_seconds", "histogram"),
    ("span_compress_seconds", "histogram"),
    ("span_decompress_seconds", "histogram"),
    ("span_huffman_decode_seconds", "histogram"),
    ("span_huffman_encode_seconds", "histogram"),
    ("span_lz_compress_seconds", "histogram"),
    ("span_lz_decompress_seconds", "histogram"),
    ("span_measure_point_seconds", "histogram"),
    ("span_sweep_cell_seconds", "histogram"),
    ("span_sweep_seconds", "histogram"),
    ("span_transfer_simulate_seconds", "histogram"),
    ("span_wan_fair_share_seconds", "histogram"),
    ("span_worker_seconds", "histogram"),
    ("sweep_cell_seconds", "histogram"),
    ("sweep_cells_done_total", "counter"),
    ("sweep_cells_total", "counter"),
    ("sweep_eta_seconds", "gauge"),
    ("sweep_progress_done", "gauge"),
    ("sweep_progress_failed", "gauge"),
    ("sweep_progress_pending", "gauge"),
    ("sweep_retries_total", "counter"),
    ("sz3_bits_per_value", "histogram"),
    ("sz3_compress_bytes_in_total", "counter"),
    ("sz3_compress_bytes_out_total", "counter"),
    ("sz3_compress_calls_total", "counter"),
    ("sz3_compression_ratio", "histogram"),
    ("sz3_decompress_bytes_in_total", "counter"),
    ("sz3_decompress_calls_total", "counter"),
    ("transfer_cliz_compress_time", "gauge"),
    ("transfer_cliz_total_time", "gauge"),
    ("transfer_files_total", "counter"),
    ("wan_bytes_sent_total", "counter"),
    ("wan_flow_seconds", "histogram"),
    ("wan_goodput", "gauge"),
    ("wan_link_utilization", "gauge"),
    ("wan_queue_depth", "histogram"),
    ("zfp_bits_per_value", "histogram"),
    ("zfp_compress_bytes_in_total", "counter"),
    ("zfp_compress_bytes_out_total", "counter"),
    ("zfp_compress_calls_total", "counter"),
    ("zfp_compression_ratio", "histogram"),
    ("zfp_decompress_bytes_in_total", "counter"),
    ("zfp_decompress_calls_total", "counter"),
}

EXPECTED_TOTALS = {
    "faults_crash_planned_total": "1",
    "faults_slow_planned_total": "1",
    "lz_attempted_total": "8",
    "lz_kept_total": "6",
    "parallel_job_failures_total": "1",
    "parallel_jobs_ok_total": "6",
    "parallel_jobs_total": "6",
    "parallel_retries_total": "1",
    "parallel_timeouts_total": "1",
    "sweep_cells_done_total": "2",
    "sweep_cells_total": "2",
    "sweep_retries_total": "1",
    "sz3_compress_bytes_in_total": "42432",
    "sz3_compress_bytes_out_total": "9310",
    "sz3_compress_calls_total": "7",
    "sz3_decompress_bytes_in_total": "5895",
    "sz3_decompress_calls_total": "1",
    "transfer_files_total": "2",
    "wan_bytes_sent_total": "22000",
    "zfp_compress_bytes_in_total": "23040",
    "zfp_compress_bytes_out_total": "35023",
    "zfp_compress_calls_total": "1",
    "zfp_decompress_bytes_in_total": "35023",
    "zfp_decompress_calls_total": "1",
}


def test_family_set_is_pinned(document):
    families = _families(document)
    assert len(families) == len({name for name, _ in families})
    assert set(families) == EXPECTED_FAMILIES


def test_total_samples_are_pinned(document):
    totals = {name[len("repro_"):]: value for name, value
              in re.findall(r"^(\S+_total) (\S+)$", document, re.M)}
    assert totals == EXPECTED_TOTALS
