"""Tests of the benchmark itself: hygiene, determinism and the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs briefly in this process, which then must hold no
child process, no service or client thread, no listening socket, no new
``/dev/shm`` segment and no temporary store. The command-line runs check the output contract
and that tracing does not change the stored bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_leaves_nothing_behind(name, trace, tmp_path):
    shm_before = _shm()
    cls = workloads.WORKLOADS[name]
    w = cls(tmp_path / "tmp") if cls is workloads.ServiceMixed else cls()
    tracer_state = _patch_targets()
    try:
        w.setup(3, 1.0)
        out = w.run(1.0, trace, layers.Recorder(), workloads.SpeedProbe())
    finally:
        w.close()
    assert out.failures == []
    assert out.ops and all(op.ok for op in out.ops)
    assert workloads.leftovers() == []
    assert _shm() == shm_before
    assert not (tmp_path / "tmp").exists()
    after = _patch_targets()  # the run may import more modules
    assert {k: after[k] for k in tracer_state} == tracer_state
    assert not [k for k, v in after.items() if _is_wrapper(v)]


def test_leftovers_sees_a_listening_socket():
    import socket

    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        assert os.fstat(sock.fileno()).st_ino in workloads.listening_sockets()
        assert any("listening" in p for p in workloads.leftovers())
    finally:
        sock.close()
    assert workloads.listening_sockets() == []


def _is_wrapper(value) -> bool:
    return hasattr(getattr(value, "__func__", value), "perfbench_span")


def _patch_targets() -> dict:
    """Everything the tracer may patch, as currently bound."""
    import importlib

    state = {}
    for modname, *_ in layers.FUNCTIONS + layers.METHODS:
        importlib.import_module(modname)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for _, attr, _ in layers.FUNCTIONS:
                if attr in module.__dict__:
                    state[(name, attr)] = module.__dict__[attr]
    for modname, clsname, attr, _ in layers.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        state[(clsname, attr)] = cls.__dict__[attr]
    state["ProcessPoolExecutor"] = importlib.import_module("repro.parallel").ProcessPoolExecutor
    return state


def test_tracer_restores_every_original_even_on_failure():
    import numpy as np

    from repro.core import CliZ

    before = _patch_targets()
    rec = layers.Recorder()
    with pytest.raises(RuntimeError, match="boom"):
        with layers.Tracer(rec):
            patched = _patch_targets()
            assert all(_is_wrapper(patched[k]) for k in before)
            CliZ().compress(np.linspace(0, 1, 4096).reshape(16, 256), rel_eb=1e-3)
            raise RuntimeError("boom")
    assert _patch_targets() == before
    assert rec.calls("cliz.compress") == 1
    assert rec.calls("prediction.interp_compress", "cliz.compress") == 1
    assert rec.calls("encoding.lz.compress") >= 1


def test_modules_imported_while_traced_get_the_originals_back():
    import importlib

    from repro.encoding import lz

    sys.modules.pop("repro.io.rcdf", None)
    with layers.Tracer():
        rcdf = importlib.import_module("repro.io.rcdf")
        assert _is_wrapper(rcdf.lz_compress)
    assert rcdf.lz_compress is lz.lz_compress


def test_tracer_refuses_to_wrap_twice():
    before = _patch_targets()
    tracer = layers.Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert _patch_targets() == before


def _run(workload: str, seed: int, seconds: float, trace: int,
         cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].split(" ", 1)[1])
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_store_identical_bytes(name):
    seconds = 3.0 if name == "service-mixed" else 1.0  # >= 16 stored blobs
    info0, res0 = _run(name, 7, seconds, 0)
    info1, res1 = _run(name, 7, seconds, 1)
    assert res0["correct"] and res1["correct"]
    assert res0["failed"] == res1["failed"] == 0
    assert info0["digest"] == info1["digest"]
    assert info0["digest_items"] == info1["digest_items"] > 0
    assert set(res0) == {"correct", "attempted", "failed", "metrics"}
    assert list(res0["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(res1["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        got = (res0["metrics"].get(m["name"]) or res1["metrics"][m["name"]])
        assert got["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in res0["metrics"].values())


def test_service_digest_repeats_for_a_seed():
    first, _ = _run("service-mixed", 11, 3.0, 0)
    second, _ = _run("service-mixed", 11, 3.0, 0)
    assert first["digest_items"] == second["digest_items"] == 16
    assert first["digest"] == second["digest"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec-fields", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
