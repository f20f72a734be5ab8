"""Steady-state codec calls reuse heap memory instead of fresh pages.

``repro.encoding`` pins glibc's mmap and trim thresholds on import. Before
the pin, a CliZ round trip of SSH 48x40x252 paid about 5,000 minor page
faults per call even after warm-up, because its arrays were mapped and
unmapped on every call.
"""

import platform

import pytest

import repro
from repro import encoding
from repro.core import CliZ
from repro.datasets import ssh

resource = pytest.importorskip("resource")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_round_trips_fault_in_no_fresh_pages():
    field = ssh(shape=(48, 40, 252), seed=1)

    def round_trip():
        repro.decompress(CliZ().compress(field.data, rel_eb=1e-3, mask=field.mask))

    for _ in range(3):
        round_trip()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        round_trip()
    per_call = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert per_call < 300


def test_pin_is_silent_without_mallopt(monkeypatch):
    class NoMallopt:
        pass

    monkeypatch.setattr(encoding.ctypes, "CDLL", lambda name: NoMallopt())
    encoding._pin_malloc_thresholds()
