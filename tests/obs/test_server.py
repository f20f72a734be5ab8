"""End-to-end tests for the asyncio /metrics exporter."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import trace
from repro.obs.server import MetricsServer
from tests.runtime.test_http import ServerContract


@pytest.fixture
def clean_run():
    """Isolate the process-global run state around each test."""
    trace.end_run()
    yield
    trace.end_run()


@pytest.fixture
def server(clean_run):
    run = trace.start_run(tags={"test": "server"})
    run.metrics.counter("files.compressed").inc(2)
    run.metrics.gauge("parallel.queue_depth").set(4)
    run.metrics.histogram("span.compress.seconds").observe(0.01)
    srv = MetricsServer(port=0).start()
    yield srv, run
    srv.stop()


def get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers, resp.read().decode()


class TestEndpoints:
    def test_metrics_exposition(self, server):
        srv, _ = server
        status, headers, body = get(srv.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        assert "repro_files_compressed_total 2" in body.splitlines()
        assert "repro_parallel_queue_depth 4" in body.splitlines()
        assert "repro_span_compress_seconds_count 1" in body.splitlines()
        assert body.endswith("\n")

    def test_health(self, server):
        srv, run = server
        status, headers, body = get(srv.url + "/health")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["run"] == run.run_id
        assert doc["collecting"] is True

    def test_snapshot(self, server):
        srv, run = server
        _, _, body = get(srv.url + "/snapshot")
        doc = json.loads(body)
        assert doc["run"] == run.run_id
        assert doc["metrics"]["files.compressed"]["value"] == 2
        assert doc["metrics"]["span.compress.seconds"]["count"] == 1
        assert "live" not in doc

    def test_unknown_path_404(self, server):
        srv, _ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            get(srv.url + "/nope")
        assert exc.value.code == 404

    def test_post_is_405(self, server):
        srv, _ = server
        req = urllib.request.Request(srv.url + "/metrics", data=b"x",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=5)
        assert exc.value.code == 405

    def test_scrapes_are_counted(self, server):
        srv, run = server
        for _ in range(3):
            get(srv.url + "/health")
        assert run.metrics.counter("obs.server.requests").value >= 3


class TestLifecycle(ServerContract):
    """The shared server contract, plus the exporter across obs runs."""

    @pytest.fixture
    def make(self, clean_run):
        return lambda port=0: MetricsServer(port=port,
                                            run_provider=lambda: None)

    def test_serves_last_run_after_end(self, clean_run):
        """The exporter stays useful after collection stops."""
        run = trace.start_run()
        run.metrics.counter("c").inc()
        trace.end_run()
        srv = MetricsServer(port=0).start()
        try:
            _, _, body = get(srv.url + "/metrics")
            assert "repro_c_total 1" in body.splitlines()
            doc = json.loads(get(srv.url + "/health")[2])
            assert doc["collecting"] is False
        finally:
            srv.stop()

    def test_no_run_serves_empty_doc(self, clean_run):
        srv = MetricsServer(port=0, run_provider=lambda: None).start()
        try:
            status, _, body = get(srv.url + "/metrics")
            assert status == 200
            assert body == "\n"
        finally:
            srv.stop()
