"""End-to-end HTTP tests for the service app (real sockets, live server)."""

import http.client
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import parse_fault_spec
from repro.obs import trace
from repro.service.app import ServiceConfig, ServiceServer
from repro.service.drill import DrillClock
from repro.service.schemas import encode_array
from tests.runtime.test_http import ServerContract


@pytest.fixture(autouse=True)
def clean_run():
    trace.end_run()
    trace.start_run(tags={"test": "service"})
    yield
    trace.end_run()


@pytest.fixture
def server(tmp_path):
    srv = ServiceServer(ServiceConfig(
        store_root=tmp_path / "blobs", max_queue=4,
        rate=1000.0, burst=10000)).start()
    yield srv
    srv.stop()


def call(port, method, path, doc=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    body = None if doc is None else json.dumps(doc).encode()
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else {}, \
            {k.lower(): v for k, v in resp.getheaders()}
    finally:
        conn.close()


def field(shape=(6, 10, 20)):
    z, y, x = np.meshgrid(*(np.arange(s) for s in shape), indexing="ij")
    return (np.sin(0.2 * x) * np.cos(0.3 * y) + 0.05 * z).astype(np.float32)


def compress_doc(codec="cliz", **extra):
    doc = {"codec": codec, "array": encode_array(field()), "rel_eb": 1e-3,
           "chunks": 2}
    doc.update(extra)
    return doc


class TestRoundTrip:
    def test_compress_decompress_within_bound(self, server):
        arr = field()
        status, body, _ = call(server.port, "POST", "/compress",
                               compress_doc())
        assert status == 200 and body["ratio"] > 1
        status, body, _ = call(server.port, "POST", "/decompress",
                               {"key": body["key"]})
        assert status == 200 and body["salvaged"] is False
        back = np.frombuffer(
            __import__("base64").b64decode(body["array"]["data"]),
            dtype=body["array"]["dtype"]).reshape(body["array"]["shape"])
        bound = 1e-3 * (arr.max() - arr.min())
        assert np.abs(back - arr).max() <= bound * 1.0001

    def test_compress_ratio_is_a_plain_histogram(self, server):
        """The ratio is recorded on the default edges, not as a latency."""
        from repro.obs.metrics import DEFAULT_BUCKETS

        status, body, _ = call(server.port, "POST", "/compress",
                               compress_doc())
        assert status == 200
        scraped = trace.get_run().metrics.snapshot()
        rec = scraped["service.compress.ratio"]
        assert rec["type"] == "histogram" and rec["count"] == 1
        assert rec["buckets"] == DEFAULT_BUCKETS
        assert rec["min"] == pytest.approx(body["ratio"], rel=1e-3)
        assert not any(name.startswith("service.compress.ratio.")
                       for name in scraped)

    def test_estimate(self, server):
        status, body, _ = call(server.port, "POST", "/estimate",
                               compress_doc("sz3"))
        assert status == 200
        assert body["sample_ratio"] > 1
        assert body["estimated_compressed_bytes"] > 0

    def test_health_and_ready(self, server):
        status, body, _ = call(server.port, "GET", "/health")
        assert status == 200 and body["status"] == "ok"
        assert body["queue"]["limit"] == 4
        # the blob-count gauge is sampled here, not on the write path
        gauge = trace.get_run().metrics.snapshot()["service.blob.count"]
        assert gauge["value"] == body["blobs"] == 0
        status, body, _ = call(server.port, "GET", "/ready")
        assert status == 200


class TestClassification:
    def test_bad_json_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/compress", body=b"{not json")
            resp = conn.getresponse()
            body = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400 and body["error"] == "bad_request"

    def test_unknown_codec_is_400(self, server):
        status, body, _ = call(server.port, "POST", "/compress",
                               compress_doc("nope"))
        assert status == 400 and body["error"] == "bad_request"

    def test_unknown_key_is_404(self, server):
        status, body, _ = call(server.port, "POST", "/decompress",
                               {"key": "ab" * 20})
        assert status == 404 and body["error"] == "not_found"

    def test_unknown_path_is_404_and_wrong_method_405(self, server):
        status, body, _ = call(server.port, "POST", "/nope", {})
        assert status == 404
        status, _, _ = call(server.port, "GET", "/compress")
        assert status == 405
        status, _, _ = call(server.port, "POST", "/health", {})
        assert status == 405

    def test_bad_deadline_is_400(self, server):
        status, body, _ = call(server.port, "POST", "/estimate",
                               compress_doc(), {"X-Deadline": "-1"})
        assert status == 400


class TestDegradation:
    def test_salvage_degrades_to_206(self, tmp_path):
        srv = ServiceServer(ServiceConfig(store_root=tmp_path)).start()
        try:
            _, body, _ = call(srv.port, "POST", "/compress",
                              compress_doc(chunks=4))
            key = body["key"]
            srv.store.corrupt(key)
            status, body, _ = call(srv.port, "POST", "/decompress",
                                   {"key": key})
            assert status == 206 and body["salvaged"] is True
            assert body["salvage_report"]["failures"]
            status, body, _ = call(srv.port, "POST", "/decompress",
                                   {"key": key, "salvage": False})
            assert status == 502 and body["error"] == "blob_corrupt"
        finally:
            srv.stop()

    def test_breaker_trips_and_recovers(self, tmp_path):
        clock = DrillClock()
        srv = ServiceServer(ServiceConfig(
            store_root=tmp_path, clock=clock, breaker_threshold=1,
            breaker_cooldown=30.0,
            faults=parse_fault_spec("seed=1;crash:p=1:only=0"))).start()
        try:
            status, body, _ = call(srv.port, "POST", "/compress",
                                   compress_doc())
            assert status == 500 and body["error"] == "codec_failure"
            status, body, hdrs = call(srv.port, "POST", "/compress",
                                      compress_doc())
            assert status == 503 and body["error"] == "breaker_open"
            assert "retry-after" in hdrs
            # degraded mode: estimate and other codecs still serve
            status, _, _ = call(srv.port, "POST", "/estimate",
                                compress_doc())
            assert status == 200
            status, _, _ = call(srv.port, "POST", "/compress",
                                compress_doc("sz3"))
            assert status == 200
            status, body, _ = call(srv.port, "GET", "/ready")
            assert status == 503 and body["error"] == "not_ready"
            clock.advance(30.01)
            status, _, _ = call(srv.port, "POST", "/compress",
                                compress_doc())
            assert status == 200  # half-open probe recovered
            status, _, _ = call(srv.port, "GET", "/ready")
            assert status == 200
        finally:
            srv.stop()

    def test_rate_limit_sheds_with_retry_after(self, tmp_path):
        srv = ServiceServer(ServiceConfig(
            store_root=tmp_path, rate=1.0, burst=2,
            clock=DrillClock())).start()
        try:
            statuses = []
            for _ in range(4):
                status, body, hdrs = call(srv.port, "POST", "/estimate",
                                          compress_doc(),
                                          {"X-Client": "greedy"})
                statuses.append(status)
            assert statuses == [200, 200, 429, 429]
            assert body["error"] == "rate_limited"
            assert "retry-after" in hdrs
        finally:
            srv.stop()

    def test_deadline_expiry_is_504(self, tmp_path):
        srv = ServiceServer(ServiceConfig(
            store_root=tmp_path,
            faults=parse_fault_spec("seed=1"))).start()
        try:
            status, body, _ = call(srv.port, "POST", "/compress",
                                   compress_doc(),
                                   {"X-Deadline": "0.01",
                                    "X-Drill-Stall": "0.1"})
            assert status == 504 and body["error"] == "deadline_exceeded"
        finally:
            srv.stop()

    def test_injected_abort_drops_connection_and_recovers(self, tmp_path):
        srv = ServiceServer(ServiceConfig(
            store_root=tmp_path,
            faults=parse_fault_spec("seed=1;abort:p=1:only=0"))).start()
        try:
            with pytest.raises((http.client.BadStatusLine, ConnectionError)):
                call(srv.port, "POST", "/estimate", compress_doc())
            # the next request (index 1) is served normally
            status, _, _ = call(srv.port, "POST", "/estimate",
                                compress_doc())
            assert status == 200
        finally:
            srv.stop()


class TestConfig:
    def test_json_roundtrip_keeps_every_tunable(self, tmp_path):
        cfg = ServiceConfig(
            host="0.0.0.0", port=9999, store_root=tmp_path, max_queue=3,
            rate=12.5, burst=7, breaker_threshold=4, breaker_cooldown=1.5,
            default_deadline=2.25, drain_deadline=0.75,
            faults=parse_fault_spec("seed=3;stall:p=0.123456789:delay=0.1"))
        back = ServiceConfig.from_json(cfg.to_json(), partition=(1, 2))
        assert back.faults.clauses == cfg.faults.clauses
        assert back.faults.seed == 3
        assert back == ServiceConfig(
            **{**vars(cfg), "store_root": str(tmp_path), "port": 0,
               "partition": (1, 2), "faults": back.faults})

    def test_serve_flags_default_to_service_config(self):
        """One declaration per tunable: no flag carries its own default."""
        from repro.service.__main__ import _parser, _service_config

        cfg = _service_config(_parser().parse_args(["serve"]))
        assert replace(cfg, port=ServiceConfig.port) == ServiceConfig()


class TestLifecycle(ServerContract):
    @pytest.fixture
    def make(self, tmp_path):
        return lambda port=0: ServiceServer(ServiceConfig(
            store_root=tmp_path, port=port, drain_deadline=0.5))
