"""Shared utilities: argument validation and timing."""

from repro.utils.validation import (
    check_array,
    check_error_bound,
    check_mask,
    ensure_float,
)
from repro.utils.timer import Timer

__all__ = [
    "check_array",
    "check_error_bound",
    "check_mask",
    "ensure_float",
    "Timer",
]
