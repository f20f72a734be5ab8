"""Content-addressed blob store: digest keys, verified reads, fault ops."""

import pytest

from repro.faults import parse_fault_spec
from repro.obs import trace
from repro.service.blobstore import BlobStore, blob_key
from repro.service.schemas import BlobCorruptError, BlobIOError, NotFoundError


@pytest.fixture(autouse=True)
def clean_run():
    trace.end_run()
    yield
    trace.end_run()


def test_put_get_roundtrip_and_idempotence(tmp_path):
    store = BlobStore(tmp_path)
    key = store.put(b"hello world")
    assert key == blob_key(b"hello world")
    assert store.get(key) == b"hello world"
    assert store.put(b"hello world") == key
    assert store.count() == 1


def test_put_never_walks_the_store(tmp_path, monkeypatch):
    """A commit's cost must not grow with the store: no listing on put."""
    def no_walk(self):
        raise AssertionError("put listed the store")

    trace.start_run(tags={"test": "blobstore"})
    monkeypatch.setattr(BlobStore, "keys", no_walk)
    store = BlobStore(tmp_path)
    keys = [store.put(bytes([i]) * 64) for i in range(20)]
    assert keys == [blob_key(bytes([i]) * 64) for i in range(20)]
    assert trace.get_run().metrics.snapshot()["service.blob.puts"]["value"] == 20


def test_unknown_key_is_not_found(tmp_path):
    with pytest.raises(NotFoundError):
        BlobStore(tmp_path).get("ab" * 20)
    with pytest.raises(NotFoundError):
        BlobStore(tmp_path).fetch_raw("ab" * 20)


def test_corrupt_blob_detected_on_read(tmp_path):
    store = BlobStore(tmp_path)
    key = store.put(b"x" * 1000)
    store.corrupt(key)
    with pytest.raises(BlobCorruptError):
        store.get(key)
    # the raw bytes are still retrievable for salvage
    raw = store.fetch_raw(key)
    assert len(raw) == 1000 and blob_key(raw) != key
    assert store.verify_all() == {key: False}


def test_verify_all_confines_damage(tmp_path):
    store = BlobStore(tmp_path)
    k1 = store.put(b"a" * 100)
    k2 = store.put(b"b" * 100)
    store.corrupt(k1)
    intact = store.verify_all()
    assert intact[k2] is True and intact[k1] is False


def test_injected_blob_errors_fire_on_op_index(tmp_path):
    # bloberr with only=1 fails exactly the second store operation
    faults = parse_fault_spec("seed=3;bloberr:p=1:only=1")
    store = BlobStore(tmp_path, faults=faults)
    key = store.put(b"payload")  # op 0: fine
    with pytest.raises(BlobIOError):
        store.get(key)  # op 1: injected failure
    assert store.get(key) == b"payload"  # op 2: fine again
    # an injected failure must never corrupt what is stored
    assert all(store.verify_all().values())


def test_injected_write_error_stores_nothing(tmp_path):
    faults = parse_fault_spec("seed=3;bloberr:p=1:op=write:only=0")
    store = BlobStore(tmp_path, faults=faults)
    with pytest.raises(BlobIOError):
        store.put(b"doomed")
    assert store.count() == 0


def test_stale_atomic_write_temp_is_litter_not_corruption(tmp_path):
    store = BlobStore(tmp_path)
    key = store.put(b"real blob")
    # a writer that died mid-put leaves its same-dir temp file behind
    fanout = store.path_for(key).parent
    (fanout / f".{key}.12345.tmp").write_bytes(b"torn half-writ")
    (fanout / "junk.tmp").write_bytes(b"other litter")
    assert store.keys() == [key]  # listings never see temp files
    assert store.count() == 1
    intact = store.verify_all()
    assert intact == {key: True}  # the janitor counts zero corruption
    assert store.get(key) == b"real blob"


def test_dot_directories_are_not_fanout_dirs(tmp_path):
    store = BlobStore(tmp_path)
    key = store.put(b"payload")
    # cluster runtime state lives in a dot-dir under the same root
    run_dir = tmp_path / ".cluster"
    run_dir.mkdir()
    (run_dir / "shard-0.port").write_text("12345\n")
    assert store.keys() == [key]
    assert all(store.verify_all().values())


def test_concurrent_writer_commits_are_atomic(tmp_path):
    """A reader racing many committing writers sees complete blobs or
    nothing — never a torn payload (atomic_write's rename contract)."""
    import threading

    store = BlobStore(tmp_path)
    payloads = [bytes([i]) * 4096 for i in range(24)]
    expected = {blob_key(p): p for p in payloads}
    stop = threading.Event()
    torn: list[str] = []

    def reader():
        other = BlobStore(tmp_path)  # a second handle, like a sibling shard
        while not stop.is_set():
            for key, ok in other.verify_all().items():
                if not ok:
                    torn.append(key)

    t = threading.Thread(target=reader)
    t.start()
    try:
        writers = [threading.Thread(target=store.put, args=(p,))
                   for p in payloads]
        for w in writers:
            w.start()
        for w in writers:
            w.join()
    finally:
        stop.set()
        t.join()
    assert torn == []  # no read ever saw a half-committed blob
    assert sorted(store.keys()) == sorted(expected)
    for key, payload in expected.items():
        assert store.get(key) == payload


def test_same_root_shared_by_two_partitions(tmp_path):
    """Two shard stores over one root: same key -> same bytes, and each
    partition's verify sweep sees the one shared blob."""
    a = BlobStore(tmp_path, partition=(0, 2))
    b = BlobStore(tmp_path, partition=(1, 2))
    key = a.put(b"shared content")
    assert b.put(b"shared content") == key  # idempotent across handles
    assert a.get(key) == b.get(key) == b"shared content"
    assert a.owns(key) != b.owns(key)  # exactly one owner
    owner, other = (a, b) if a.owns(key) else (b, a)
    assert owner.verify_all() == other.verify_all() == {key: True}
