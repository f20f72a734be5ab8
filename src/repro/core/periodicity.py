"""Periodic component extraction (paper §VI-D).

Climate fields follow an annual cycle: snapshots one period apart along the
time dimension resemble each other more than spatial neighbours do. CliZ
therefore splits such datasets into

* a **template** — the mean over all full periods, with the time dimension
  shrunk to one period length, and
* a **residual** — the original minus the tiled template,

compresses both separately (the residual is far smoother in every
direction), and re-assembles them at decompression.

The period is estimated exactly as in the paper: FFT amplitude spectra of a
few sampled rows along the time axis peak at the fundamental frequency
(Fig. 8's SSH example: N=1032, peak at f=86, period 12); we take the
smallest peaked frequency, i.e. the largest period.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "detect_period",
    "row_spectra",
    "split_periodic",
    "merge_periodic",
]

#: A clear spectral peak is at least this many times the median amplitude.
_MIN_PEAK_RATIO = 4.0
#: A true period leaves at most this (noise-adjusted) residual variance ratio.
_MAX_RESIDUAL_RATIO = 0.3


def _sample_rows(data: np.ndarray, time_axis: int, n_rows: int,
                 seed: int, mask: np.ndarray | None) -> np.ndarray:
    """Pick ``n_rows`` rows along the time axis (valid-only when masked)."""
    data = np.asarray(data, dtype=np.float64)
    moved = np.moveaxis(data, time_axis, -1)
    n_time = moved.shape[-1]
    flat = moved.reshape(-1, n_time)
    if mask is not None:
        mmoved = np.moveaxis(np.asarray(mask, dtype=bool), time_axis, -1)
        valid_rows = mmoved.reshape(-1, n_time).all(axis=1)
        candidates = np.flatnonzero(valid_rows)
        if candidates.size == 0:
            candidates = np.arange(flat.shape[0])
    else:
        candidates = np.arange(flat.shape[0])
    rng = np.random.default_rng(seed)
    pick = rng.choice(candidates, size=min(n_rows, candidates.size), replace=False)
    return flat[pick]


def row_spectra(data: np.ndarray, time_axis: int, n_rows: int = 10,
                seed: int = 0, mask: np.ndarray | None = None) -> np.ndarray:
    """FFT amplitude spectra of ``n_rows`` random rows along ``time_axis``.

    Returns an (n_rows, n_freq) array of |rfft| amplitudes with the DC term
    zeroed (the constant component is not a period). Rows are sampled at
    valid spatial positions when a ``mask`` is given. This reproduces the
    paper's Fig. 8 computation (FFTW on ten data rows of the SSH dataset).
    """
    rows = _sample_rows(data, time_axis, n_rows, seed, mask)
    spectra = np.abs(np.fft.rfft(rows, axis=1))
    spectra[:, 0] = 0.0
    return spectra


def _residual_ratio(rows: np.ndarray, period: int) -> float:
    """Residual-to-signal variance after removing the period-mean template.

    Near 0 for truly periodic rows, near 1 for aperiodic ones.
    """
    n_rows, n_time = rows.shape
    n_full = n_time // period
    if n_full < 2:
        return 1.0
    head = rows[:, : n_full * period]
    centred = head - head.mean(axis=1, keepdims=True)
    chunks = centred.reshape(n_rows, n_full, period)
    template = chunks.mean(axis=1)
    resid = chunks - template[:, None, :]
    denom = float(centred.var())
    if denom <= 0:
        return 0.0
    return float(resid.var()) / denom


def detect_period(data: np.ndarray, time_axis: int, n_rows: int = 10,
                  seed: int = 0, mask: np.ndarray | None = None) -> int | None:
    """Estimate the dominant period along ``time_axis`` (or None).

    Three stages, following the paper's method plus robustness checks:

    1. The mean FFT amplitude spectrum across sampled rows must show a clear
       peak (``_MIN_PEAK_RATIO`` x the median amplitude) — otherwise the data
       is treated as aperiodic. Every strongly peaked frequency proposes the
       period ``round(n/f)``; small multiples are added as candidates so the
       fundamental is found even when a harmonic bin carries more energy
       (DFT leakage when the series length is not a multiple of the period).
    2. Each candidate is scored by its template-removal residual: the
       residual/signal variance ratio after subtracting the period-mean,
       normalized by the ``1 - 1/n_chunks`` value white noise would give
       (so few-chunk overfitting does not fake periodicity).
    3. Among candidates that truly collapse the variance (adjusted ratio
       below ``_MAX_RESIDUAL_RATIO``), the smallest period within 3x of the
       best score wins — this rejects divisor periods (harmonics), which is
       the paper's "adopt the peak with the smallest frequency" rule.
    """
    data = np.asarray(data)
    n_time = data.shape[time_axis]
    if n_time < 8:
        return None
    rows = _sample_rows(data, time_axis, n_rows, seed, mask)
    spectra = np.abs(np.fft.rfft(rows, axis=1))
    spectra[:, 0] = 0.0
    mean_spec = spectra.mean(axis=0)
    if not np.isfinite(mean_spec).all():
        return None
    median = np.median(mean_spec[1:])
    floor = median if median > 0 else float(mean_spec.max()) * 1e-6
    peak_amp = float(mean_spec.max())
    if peak_amp < _MIN_PEAK_RATIO * floor:
        return None
    strong = np.flatnonzero(mean_spec >= 0.25 * peak_amp)
    strong = strong[strong >= 1]
    candidates: set[int] = set()
    for f in strong:
        base = int(round(n_time / int(f)))
        for mult in (1, 2, 3, 4):
            p = base * mult
            if 2 <= p <= n_time // 2:
                candidates.add(p)
    if not candidates:
        return None
    adjusted: dict[int, float] = {}
    for p in candidates:
        n_chunks = n_time // p
        if n_chunks < 2:
            continue
        baseline = 1.0 - 1.0 / n_chunks  # expected ratio for white noise
        adjusted[p] = _residual_ratio(rows, p) / baseline
    eligible = {p: a for p, a in adjusted.items() if a <= _MAX_RESIDUAL_RATIO}
    if not eligible:
        return None
    best = min(eligible.values())
    threshold = max(3.0 * best, 0.05)
    winners = [p for p, a in eligible.items() if a <= threshold]
    return min(winners)


def split_periodic(data: np.ndarray, time_axis: int, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Decompose into (template, residual); ``data = tile(template) + residual``.

    The template is the mean over all *complete* periods; the ragged tail
    (``n_time % period`` steps) is handled by tiling the template partially.
    """
    data = np.asarray(data, dtype=np.float64)
    n_time = data.shape[time_axis]
    if not 2 <= period <= n_time:
        raise ValueError(f"period {period} out of range for time length {n_time}")
    moved = np.moveaxis(data, time_axis, 0)
    n_full = n_time // period
    head = moved[: n_full * period]
    chunks = head.reshape(n_full, period, *moved.shape[1:])
    template_moved = chunks.mean(axis=0)
    reps = int(np.ceil(n_time / period))
    tiled = np.concatenate([template_moved] * reps, axis=0)[:n_time]
    residual_moved = moved - tiled
    template = np.moveaxis(template_moved, 0, time_axis)
    residual = np.moveaxis(residual_moved, 0, time_axis)
    return np.ascontiguousarray(template), np.ascontiguousarray(residual)


def merge_periodic(template: np.ndarray, residual: np.ndarray, time_axis: int) -> np.ndarray:
    """Inverse of :func:`split_periodic`."""
    template = np.asarray(template, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    t_moved = np.moveaxis(template, time_axis, 0)
    r_moved = np.moveaxis(residual, time_axis, 0)
    n_time = r_moved.shape[0]
    period = t_moved.shape[0]
    reps = int(np.ceil(n_time / period))
    tiled = np.concatenate([t_moved] * reps, axis=0)[:n_time]
    return np.ascontiguousarray(np.moveaxis(tiled + r_moved, 0, time_axis))
