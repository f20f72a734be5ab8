"""Shared infrastructure for the experiment harnesses.

Every table/figure of the paper's evaluation has a module in this package
exposing ``run(...) -> ExperimentResult`` (structured rows + printable
text) and a ``main()`` that prints it — so each experiment can be
regenerated standalone (``python -m repro.experiments.fig10_rate_distortion``)
or driven by the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import QoZ, SPERR, SZ3, ZFP, AutoTuner, obs
from repro.core import resolve_error_bound
from repro.datasets import ClimateField
from repro.metrics import RatePoint, bit_rate, compression_ratio, psnr, ssim

__all__ = [
    "ExperimentResult",
    "format_table",
    "tuned_config",
    "measure_point",
    "BASELINES",
    "rel_eb_to_abs",
]

#: Baseline compressor factories by display name.
BASELINES = {
    "SZ3": SZ3,
    "QoZ": QoZ,
    "ZFP": ZFP,
    "SPERR": SPERR,
}


@dataclass
class ExperimentResult:
    """Structured output of one experiment: header lines + row dicts."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"== {self.experiment}: {self.title} =="]
        out.extend(f"   {n}" for n in self.notes)
        if self.rows:
            out.append(format_table(self.rows))
        return out

    def text(self) -> str:
        return "\n".join(self.lines())

    def print(self) -> None:  # noqa: A003 - mirrors the harness contract
        print(self.text())


def format_table(rows: list[dict]) -> str:
    """Align a list of dicts into a fixed-width text table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)
    rendered = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def rel_eb_to_abs(fieldobj: ClimateField, rel_eb: float) -> float:
    """Relative bound -> absolute over the dataset's valid value range."""
    return resolve_error_bound(fieldobj.data, None, rel_eb, fieldobj.mask)


_CONFIG_CACHE: dict[tuple, object] = {}


def tuned_config(fieldobj: ClimateField, rel_eb: float = 1e-3,
                 sampling_rate: float = 0.01, **tuner_kwargs):
    """Auto-tune (and memoize) the CliZ pipeline for a dataset."""
    key = (fieldobj.name, fieldobj.shape, rel_eb, sampling_rate,
           tuple(sorted(tuner_kwargs.items())))
    if key not in _CONFIG_CACHE:
        tuner = AutoTuner(sampling_rate=sampling_rate,
                          **fieldobj.tuner_kwargs(), **tuner_kwargs)
        eb = rel_eb_to_abs(fieldobj, rel_eb)
        result = tuner.tune(fieldobj.data, abs_eb=eb, mask=fieldobj.mask)
        _CONFIG_CACHE[key] = result
    return _CONFIG_CACHE[key]


def measure_point(compressor, fieldobj: ClimateField, abs_eb: float,
                  *, pass_mask: bool = False) -> tuple[RatePoint, bytes]:
    """Compress+decompress once; return the rate-distortion point."""
    data, mask = fieldobj.data, fieldobj.mask
    kwargs = {"abs_eb": abs_eb}
    if pass_mask and mask is not None:
        kwargs["mask"] = mask
    codec = getattr(compressor, "codec_name", type(compressor).__name__.lower())
    with obs.span("measure_point", codec=codec, dataset=fieldobj.name, eb=abs_eb):
        blob = compressor.compress(data, **kwargs)
        dec = compressor.decompress(blob)
    # SSIM is a 2D perceptual metric: evaluate it on horizontal slices by
    # rotating the (lat, lon) axes to the end.
    x = data.astype(np.float64)
    y = dec.astype(np.float64)
    m = mask
    if fieldobj.horiz_axes is not None and data.ndim > 2:
        order = [a for a in range(data.ndim) if a not in fieldobj.horiz_axes]
        order += list(fieldobj.horiz_axes)
        x = np.transpose(x, order)
        y = np.transpose(y, order)
        m = np.transpose(mask, order) if mask is not None else None
    point = RatePoint(
        eb=abs_eb,
        bit_rate=bit_rate(data.size, len(blob)),
        compression_ratio=compression_ratio(data.size, len(blob)),
        psnr=psnr(data, dec, mask),
        ssim=ssim(x, y, mask=m) if data.ndim >= 2 else 1.0,
    )
    if obs.get_run() is not None:
        obs.observe(f"experiment.{codec}.compression_ratio", point.compression_ratio)
        if np.isfinite(point.psnr):
            obs.observe(f"experiment.{codec}.psnr", point.psnr,
                        buckets=[20, 40, 60, 80, 100, 120, 150, 200])
    return point, blob
