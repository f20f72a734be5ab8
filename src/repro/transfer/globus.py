"""Compress-then-transfer scenario (the paper's Fig. 13 testbed).

Each core owns a set of files: it compresses them sequentially and pushes
every finished file onto the shared WAN link, where all in-flight files
split the bandwidth (``repro.transfer.network``). Compression speed comes
from a per-codec throughput model — the paper measured nearly identical
compression times for CliZ/SZ3 and a slightly slower ZFP, and the
end-to-end win comes from CliZ's smaller files, which is exactly what this
simulation reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.faults import FaultInjector, LinkFaults
from repro.transfer.network import WanLink, fair_share_stats

#: Per-file simulated-time spans are emitted only below this file count,
#: keeping traces of large sweeps bounded.
_MAX_TIMELINE_SPANS = 4096

__all__ = ["ThroughputModel", "PAPER_SPEEDS", "TransferResult", "simulate_globus"]


@dataclass(frozen=True)
class ThroughputModel:
    """Per-core compression throughput in (uncompressed) bytes/second."""

    bytes_per_second: float

    def seconds_for(self, n_bytes: int | float) -> float:
        return float(n_bytes) / self.bytes_per_second


#: Relative speeds calibrated from the paper's Fig. 13 (1024 cores: CliZ
#: 7.37 s, SZ3 7.38 s, ZFP 8.82 s on the same per-core workload). Absolute
#: scale is arbitrary; ratios are what matters.
_BASE = 150e6  # bytes/s per core
PAPER_SPEEDS: dict[str, ThroughputModel] = {
    "cliz": ThroughputModel(_BASE),  # reference speed
    "sz3": ThroughputModel(_BASE * 7.37 / 7.38),
    "zfp": ThroughputModel(_BASE * 7.37 / 8.82),
    "qoz": ThroughputModel(_BASE * 7.37 / 7.80),
    "sperr": ThroughputModel(_BASE * 7.37 / 20.0),  # "substantially slower"
}


@dataclass
class TransferResult:
    """Timeline of one simulated compress-and-transfer run."""

    codec: str
    n_cores: int
    n_files: int
    compress_time: float  # when the last core finishes compressing
    transfer_time: float  # last completion minus first arrival
    total_time: float  # wall clock until the last byte lands
    total_compressed_bytes: int
    per_file_completions: np.ndarray = field(repr=False, default=None)
    retransmits: int = 0  # deliveries dropped and resent (link faults)
    goodput: float = 1.0  # useful bytes / total bytes transmitted
    outage_time: float = 0.0  # seconds the link spent dark


def _emit_timeline(dispatch, codec: str, arrivals: np.ndarray,
                   completions: np.ndarray, sizes: np.ndarray,
                   per_file_compress: float, n_cores: int) -> None:
    """Emit *simulated-time* spans for each compress and transfer interval.

    Spans land on the run timeline at ``run.t0_wall + simulated seconds``
    with one Chrome-trace lane per core (compress) plus a rotating set of
    WAN lanes (transfer), so compute/transfer overlap is visible in
    Perfetto next to the real wall-clock spans.
    """
    run = obs.get_run()
    if run is None or arrivals.size > _MAX_TIMELINE_SPANS:
        return
    for i in range(arrivals.size):
        core = i % n_cores
        run.record_span("compress.sim", t_start=float(arrivals[i]) - per_file_compress,
                        dur=per_file_compress, parent=dispatch,
                        tid=1000 + core, codec=codec, file=i, lane=f"core{core}")
        run.record_span("transfer.sim", t_start=float(arrivals[i]),
                        dur=float(completions[i] - arrivals[i]), parent=dispatch,
                        tid=2000 + i % 64, nbytes=int(sizes[i]),
                        codec=codec, file=i, lane="wan")


def simulate_globus(codec: str, *, n_cores: int, uncompressed_bytes: int,
                    compressed_bytes: list[int] | np.ndarray,
                    link: WanLink,
                    faults: LinkFaults | FaultInjector | None = None) -> TransferResult:
    """Simulate ``len(compressed_bytes)`` files over ``n_cores`` cores.

    ``uncompressed_bytes`` is the per-file source size (drives compression
    time); ``compressed_bytes`` are the per-file payload sizes actually sent
    (measure them with the real codecs on the synthetic datasets).
    ``faults`` injects link outages and drop/retransmit behaviour — pass a
    :class:`~repro.faults.LinkFaults` directly or a
    :class:`~repro.faults.FaultInjector` (its outage/drop clauses apply).
    """
    if isinstance(faults, FaultInjector):
        faults = faults.link_faults()
    if codec not in PAPER_SPEEDS:
        raise ValueError(f"no throughput model for codec {codec!r}")
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    sizes = np.asarray(compressed_bytes, dtype=np.float64)
    n_files = sizes.size
    if n_files == 0:
        raise ValueError("no files to transfer")
    per_file_compress = PAPER_SPEEDS[codec].seconds_for(uncompressed_bytes)

    # Round-robin files onto cores; each core compresses sequentially.
    arrivals = np.empty(n_files)
    for i in range(n_files):
        position_on_core = i // n_cores  # how many files this core did before
        arrivals[i] = (position_on_core + 1) * per_file_compress
    with obs.span("transfer.simulate", codec=codec, n_cores=n_cores,
                  n_files=n_files, faulty=faults is not None) as dispatch:
        completions, stats = fair_share_stats(arrivals, sizes, link,
                                              faults=faults)
        _emit_timeline(dispatch, codec, arrivals, completions, sizes,
                       per_file_compress, n_cores)

    compress_time = float(arrivals.max())
    total_time = float(completions.max())
    run = obs.get_run()
    if run is not None:
        obs.set_gauge(f"transfer.{codec}.compress_time", compress_time)
        obs.set_gauge(f"transfer.{codec}.total_time", total_time)
        obs.inc_counter("transfer.files", n_files)
    return TransferResult(
        codec=codec,
        n_cores=n_cores,
        n_files=n_files,
        compress_time=compress_time,
        transfer_time=total_time - float(arrivals.min()),
        total_time=total_time,
        total_compressed_bytes=int(sizes.sum()),
        per_file_completions=completions,
        retransmits=int(stats["retransmits"]),
        goodput=float(stats["goodput"]),
        outage_time=float(stats["outage_time"]),
    )
