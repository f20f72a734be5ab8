"""The sharded cluster: consistent-hash routing and a live two-shard fleet."""

import http.client
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import parse_fault_spec
from repro.obs import trace
from repro.service.app import ServiceConfig
from repro.service.blobstore import BlobStore, KeyRing, blob_key, shard_for_key
from repro.service.cluster import ClusterConfig, ClusterServer
from repro.service.router import ClusterRouter
from repro.service.schemas import encode_array
from tests.runtime.test_http import ServerContract


@pytest.fixture(autouse=True)
def clean_run():
    trace.end_run()
    yield
    trace.end_run()


# ---------------------------------------------------------------------- #
class TestKeyRing:
    def test_ownership_is_a_pure_function(self):
        keys = [blob_key(bytes([i])) for i in range(200)]
        ring = KeyRing(4)
        for key in keys:
            owner = ring.owner(key)
            assert owner == shard_for_key(key, 4) == KeyRing(4).owner(key)
            assert 0 <= owner < 4

    def test_successors_cover_every_shard_owner_first(self):
        ring = KeyRing(3)
        key = blob_key(b"somewhere")
        succ = ring.successors(key)
        assert succ[0] == ring.owner(key)
        assert sorted(succ) == [0, 1, 2]

    def test_load_is_roughly_balanced(self):
        keys = [blob_key(bytes([i, j])) for i in range(50) for j in range(20)]
        counts = [0, 0, 0]
        for key in keys:
            counts[shard_for_key(key, 3)] += 1
        assert min(counts) > len(keys) / 3 * 0.5  # no starved shard

    def test_adding_a_shard_moves_a_bounded_slice(self):
        keys = [blob_key(bytes([i, j])) for i in range(40) for j in range(25)]
        moved = sum(shard_for_key(k, 3) != shard_for_key(k, 4) for k in keys)
        # consistent hashing: ~1/4 of keys move for 3 -> 4; modulo
        # hashing would move ~3/4. Allow generous slack.
        assert moved / len(keys) < 0.5

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            KeyRing(0)
        with pytest.raises(ValueError):
            BlobStore("/tmp/unused-ring", partition=(2, 2))
        with pytest.raises(ValueError):
            BlobStore("/tmp/unused-ring", partition=(-1, 2))


def test_partitioned_stores_tile_the_keyspace(tmp_path):
    shards = [BlobStore(tmp_path, partition=(i, 3)) for i in range(3)]
    keys = [shards[0].put(bytes([i]) * 64) for i in range(30)]
    for key in keys:
        owners = [s.owns(key) for s in shards]
        assert sum(owners) == 1  # exactly one shard owns each key
    union = sorted(k for s in shards for k in s.keys() if s.owns(k))
    assert union == sorted(keys)
    for shard in shards:  # one shared root: every shard's sweep sees every blob
        assert shard.verify_all() == dict.fromkeys(keys, True)


# ---------------------------------------------------------------------- #
def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        payload = resp.read()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        doc = json.loads(payload) if payload.startswith(b"{") else payload
        return resp.status, doc, headers
    finally:
        conn.close()


def _post(port, path, doc):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(doc).encode(),
                     headers={"X-Client": "test"})
        resp = conn.getresponse()
        body = json.loads(resp.read() or b"{}")
        return resp.status, body, {k.lower(): v for k, v in resp.getheaders()}
    finally:
        conn.close()


def _doc(step):
    arr = (np.arange(240, dtype=np.float32) * 0.01
           + step).reshape(4, 6, 10)
    return {"codec": "cliz", "array": encode_array(arr), "rel_eb": 1e-3}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster-store")
    server = ClusterServer(ClusterConfig(
        n_shards=2,
        service=ServiceConfig(store_root=root, max_queue=8,
                              rate=1000.0, burst=100000),
        probe_interval=0.1, backoff_base=0.3, backoff_cap=1.0,
        start_timeout=20.0, hedge_budget=0.2)).start()
    yield server
    server.stop()


class TestClusterIntegration:
    def test_roundtrip_through_the_router(self, cluster):
        keys = {}
        for step in range(4):
            status, body, hdrs = _post(cluster.port, "/compress", _doc(step))
            assert status == 200, body
            assert "x-repro-shard" in hdrs  # serving shard is visible
            keys[body["key"]] = hdrs["x-repro-shard"]
        for key in keys:
            status, body, hdrs = _post(cluster.port, "/decompress",
                                       {"key": key})
            assert status == 200, body
            # decompress is owner-routed, independent of who compressed
            assert int(hdrs["x-repro-shard"]) == shard_for_key(key, 2)

    def test_health_exposes_topology_and_model(self, cluster):
        status, body, _ = _get(cluster.port, "/health")
        assert status == 200
        assert [s["index"] for s in body["shards"]] == [0, 1]
        assert all(s["state"] == "healthy" for s in body["shards"])
        assert body["backoff_model"]["max_restarts"] == 5
        status, _, _ = _get(cluster.port, "/ready")
        assert status == 200

    def test_metrics_scrape_covers_the_fleet(self, cluster):
        status, text, headers = _get(cluster.port, "/metrics")
        assert status == 200
        assert "text/plain" in headers["content-type"]
        text = text.decode() if isinstance(text, bytes) else str(text)
        assert 'repro_service_cluster_shard_state{shard="0"}' in text
        assert 'repro_service_cluster_shard_state{shard="1"}' in text

    def test_router_hygiene(self, cluster):
        status, body, _ = _post(cluster.port, "/nothing", {})
        assert status == 404 and body["error"] == "not_found"
        status, body, _ = _get(cluster.port, "/compress")
        assert status == 405
        # a shard-rendered 400 relays through untouched
        status, body, _ = _post(cluster.port, "/compress", {"codec": "nope"})
        assert status == 400 and body["error"] == "bad_request"

    def test_kill_recover_and_zero_corruption(self, cluster):
        status, body, _ = _post(cluster.port, "/compress", _doc(77))
        assert status == 200
        key = body["key"]
        victim = shard_for_key(key, 2)
        pid = cluster.supervisor.kill(victim)
        assert pid is not None
        # reads of the victim's keys fail over to the sibling meanwhile
        status, body, _ = _post(cluster.port, "/decompress", {"key": key})
        assert status == 200, body
        # the supervisor restarts the shard within its modeled bound
        bound = cluster.supervisor.max_recovery_seconds()
        deadline = time.monotonic() + bound
        while time.monotonic() < deadline:
            if _get(cluster.port, "/ready")[0] == 200:
                break
            time.sleep(0.05)
        assert _get(cluster.port, "/ready")[0] == 200
        assert cluster.supervisor.handles[victim].restarts >= 1
        # no collateral damage anywhere in the shared store
        intact = BlobStore(cluster.store_root).verify_all()
        assert intact and all(intact.values())

    def test_stop_is_idempotent(self, tmp_path):
        server = ClusterServer(ClusterConfig(
            n_shards=2, service=ServiceConfig(store_root=tmp_path / "s"),
            probe_interval=0.1, start_timeout=20.0))
        server.start()
        server.stop()
        server.stop()  # second stop is a no-op
        assert all(h.proc is None for h in server.supervisor.handles)


def test_shard_command_line_carries_its_config(tmp_path, monkeypatch):
    """Each shard gets the cluster's ServiceConfig as one --config JSON;
    a per-shard fault spec replaces ``service.faults`` for that shard."""
    spawned = []
    monkeypatch.setattr("subprocess.Popen",
                        lambda cmd, **kw: spawned.append(cmd))
    service = ServiceConfig(store_root=tmp_path, rate=7.5,
                            faults=parse_fault_spec("seed=4;stall:p=0.25"))
    server = ClusterServer(ClusterConfig(
        n_shards=3, service=service,
        shard_fault_specs={1: "seed=4;abort:p=0.123456789"}))
    for index in range(3):
        server._spawn_shard(index)
    assert len(spawned) == 3
    for index, cmd in enumerate(spawned):
        flags = dict(zip(cmd[4::2], cmd[5::2]))
        assert cmd[3] == "shard" and sorted(flags) == [
            "--config", "--index", "--port-file", "--shards"]
        assert (flags["--index"], flags["--shards"]) == (str(index), "3")
        shard = ServiceConfig.from_json(flags["--config"],
                                        partition=(index, 3))
        assert shard.rate == 7.5 and shard.store_root == str(tmp_path)
        expected = server.config.shard_fault_specs.get(index)
        want = parse_fault_spec(expected) if expected else service.faults
        assert shard.faults.clauses == want.clauses


class TestRouterLifecycle(ServerContract):
    """The shared server contract on a router over a stand-in supervisor
    (lifecycle and drain read only ``n_shards`` and ``drain_deadline``)."""

    @pytest.fixture
    def make(self):
        supervisor = SimpleNamespace(n_shards=1, drain_deadline=0.5)
        return lambda port=0: ClusterRouter(supervisor, port=port)
