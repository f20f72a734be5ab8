"""Codec instrumentation decorators.

``@traced_compress`` / ``@traced_decompress`` wrap a compressor method in
a trace span tagged with the codec name and record the standard codec
metrics (calls, bytes in/out, ``<codec>.compression_ratio``,
``<codec>.bits_per_value``). The codec frame
(:class:`repro.core.codec.Codec`) applies both once for every codec (CliZ
decorates its own ``compress``), so CliZ and every baseline emit identical
telemetry and experiment harnesses can compare codecs straight from a
metrics snapshot. Near-free when no run is active.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.obs.trace import get_run, inc_counter, observe, span

__all__ = ["traced_compress", "traced_decompress", "record_codec_metrics"]


def record_codec_metrics(codec: str, *, bytes_in: int, bytes_out: int,
                         n_values: int) -> None:
    """Record one compression's worth of standard codec metrics."""
    if get_run() is None:
        return
    inc_counter(f"{codec}.compress.calls")
    inc_counter(f"{codec}.compress.bytes_in", int(bytes_in))
    inc_counter(f"{codec}.compress.bytes_out", int(bytes_out))
    if n_values and bytes_out:
        observe(f"{codec}.compression_ratio", bytes_in / bytes_out)
        observe(f"{codec}.bits_per_value", bytes_out * 8.0 / n_values)


def traced_compress(fn):
    """Wrap ``compress(self, data, **kwargs)`` in a span + codec metrics."""

    @functools.wraps(fn)
    def wrapper(self, data, **kwargs):
        arr = np.asarray(data)
        with span("compress", nbytes=arr.nbytes, codec=self.codec_name):
            blob = fn(self, data, **kwargs)
        record_codec_metrics(self.codec_name, bytes_in=arr.nbytes,
                             bytes_out=len(blob), n_values=arr.size)
        return blob

    return wrapper


def traced_decompress(fn):
    """Wrap ``decompress(self, blob, **kwargs)`` in a span + counters."""

    @functools.wraps(fn)
    def wrapper(self, blob, **kwargs):
        with span("decompress", nbytes=len(blob), codec=self.codec_name):
            out = fn(self, blob, **kwargs)
        if get_run() is not None:
            inc_counter(f"{self.codec_name}.decompress.calls")
            inc_counter(f"{self.codec_name}.decompress.bytes_in", len(blob))
        return out

    return wrapper
