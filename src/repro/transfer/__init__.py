"""WAN transfer simulation (the paper's Globus experiment substrate)."""

from repro.transfer.globus import (
    PAPER_SPEEDS,
    ThroughputModel,
    TransferResult,
    simulate_globus,
)
from repro.faults import LinkFaults
from repro.transfer.network import WanLink, fair_share_stats

__all__ = [
    "WanLink",
    "LinkFaults",
    "fair_share_stats",
    "ThroughputModel",
    "PAPER_SPEEDS",
    "TransferResult",
    "simulate_globus",
]
