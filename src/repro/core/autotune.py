"""Sampling-based pipeline auto-tuning (paper §VI-A, Figs. 11-12, Table IV).

The tuner extracts ``2^n`` blocks centred at 1/3 and 2/3 of each dimension —
each side about ``½·rate^(1/n)`` of the full side — assembles them into one
test array, then compresses it under every candidate pipeline (layout ×
fitting × bin-classification × periodicity) and keeps the pipeline with the
best estimated compression ratio. For a 3D periodic dataset that is the
paper's 2 × 2 × 6 × 4 × 2 = 192 candidates.

Trials share work: a candidate's prediction stage (periodic split, layout,
predict+quantize) does not depend on its bin-classification choice, so the
two candidates that differ only there encode one shared prediction
(:func:`repro.core.compressor.predict` once, then
:func:`~repro.core.compressor.encode` per candidate) — 96 predictions for
the 192 candidates above, with the same ratios a full compress per
candidate would give.

The groups are independent, so by default they are scored on two
processes: :meth:`AutoTuner.tune` makes each group one job and dispatches
the jobs through the job loop of :mod:`repro.parallel` (the one
``compress_chunked`` uses). Each job carries a pickled copy of the sample;
results go back by candidate index, so the trials and ``best`` do not
depend on the worker count.

The period itself is estimated once from full-length rows (the FFT is cheap
regardless of sampling rate, which is why the paper's Table IV finds
period 12 even at 0.001% sampling). When a period exists, sample blocks
span the *entire* time axis — with correspondingly thinner spatial sides to
keep the volume budget — because a short time window systematically
understates the template/residual benefit (the template overhead amortizes
over the number of periods). This also reproduces Fig. 11's observation
that periodic datasets pay a constant extra sampling cost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.codec import codec_input
from repro.core.compressor import encode, predict, prediction_key
from repro.core.dims import enumerate_layouts
from repro.core.periodicity import detect_period
from repro.core.pipeline import PipelineConfig
from repro.parallel import RetryPolicy, _finalize, _run_jobs
from repro.utils.timer import Timer

__all__ = ["AutoTuner", "AutoTuneResult", "TrialResult", "sample_blocks", "mask_aware_anchors"]

#: Axes this short or shorter are sampled in full (see ``AutoTuner.tune``).
_FULL_AXIS_THRESHOLD = 32
#: Smallest block side on a sampled axis (shorter axes: half their length).
_MIN_SIDE = 4
#: Default tune workers (fewer if fewer CPUs are usable). Two is the count
#: the pooled tune has been measured at; more are used only when asked for.
_DEFAULT_WORKERS = 2


def mask_aware_anchors(shape: tuple[int, ...], mask: np.ndarray | None) -> dict[int, tuple[int, int]]:
    """Anchor centers per dimension: 1/3 and 2/3 of the *valid mass*.

    Without a mask these are the paper's index-space 1/3 and 2/3 points.
    With one, the anchors sit where the valid data actually is (e.g. the
    polar bands of an ice dataset), so sampled blocks stay representative.
    """
    out = {}
    for d, size in enumerate(shape):
        if mask is None:
            out[d] = (size // 3, 2 * size // 3)
            continue
        profile = mask.sum(axis=tuple(a for a in range(len(shape)) if a != d)).astype(np.float64)
        total = profile.sum()
        if total <= 0:
            out[d] = (size // 3, 2 * size // 3)
            continue
        cum = np.cumsum(profile) / total
        out[d] = (int(np.searchsorted(cum, 1.0 / 3.0)),
                  int(np.searchsorted(cum, 2.0 / 3.0)))
    return out


def sample_blocks(shape: tuple[int, ...], sampling_rate: float,
                  full_axes: tuple[int, ...] = (),
                  anchors: dict[int, tuple[int, int]] | None = None) -> list[tuple[slice, ...]]:
    """Block slices at the 1/3 and 2/3 anchor points of each dimension.

    Axes listed in ``full_axes`` are spanned entirely by every block (used
    for the time axis of periodic datasets, where a short time window would
    misjudge the template/residual benefit); the remaining ``m`` axes get
    the paper's 2 anchors with side ``≈ ½·rate^(1/m)`` so the total sampled
    volume still approximates ``sampling_rate``. ``anchors`` overrides the
    default index-space anchor centers (see :func:`mask_aware_anchors`).
    Returns ``2^m`` tuples of slices with identical block shape.
    """
    if not (0.0 < sampling_rate <= 1.0):
        raise ValueError("sampling_rate must be in (0, 1]")
    full = set(full_axes)
    sampled_dims = [d for d in range(len(shape)) if d not in full]
    m = len(sampled_dims)
    if m == 0:
        return [tuple(slice(0, n) for n in shape)]
    frac = sampling_rate ** (1.0 / m) / 2.0
    sides = {}
    for d in sampled_dims:
        size = shape[d]
        b = int(round(size * frac))
        b = max(min(b, size // 2), min(_MIN_SIDE, size // 2), 1)
        sides[d] = b
    out = []
    if anchors is None:
        anchors = {d: (shape[d] // 3, 2 * shape[d] // 3) for d in sampled_dims}
    for corner in np.ndindex(*(2,) * m):
        slices: list[slice] = [slice(0, n) for n in shape]
        for which, d in zip(corner, sampled_dims):
            b = sides[d]
            center = anchors[d][which]
            start = min(max(center - b // 2, 0), shape[d] - b)
            slices[d] = slice(start, start + b)
        out.append(tuple(slices))
    return out


def assemble_sample(data: np.ndarray, blocks: list[tuple[slice, ...]]) -> np.ndarray:
    """Connect the sampled blocks into one array (2x grid per sampled dim)."""
    n = data.ndim
    block_shape = tuple(s.stop - s.start for s in blocks[0])
    # axes where the two anchor slices differ get doubled; full axes do not
    doubled = [False] * n
    if len(blocks) > 1:
        for d in range(n):
            starts = {b[d].start for b in blocks}
            doubled[d] = len(starts) > 1
    out_shape = tuple(2 * b if doubled[d] else b for d, b in enumerate(block_shape))
    out = np.empty(out_shape, dtype=data.dtype)
    seen = set()
    for blk in blocks:
        corner = tuple(
            (0 if blk[d].start == min(b[d].start for b in blocks) else 1) if doubled[d] else 0
            for d in range(n)
        )
        if corner in seen:
            continue
        seen.add(corner)
        dest = tuple(
            slice(corner[d] * block_shape[d], (corner[d] + 1) * block_shape[d])
            for d in range(n)
        )
        out[dest] = data[blk]
    return out


@dataclass
class TrialResult:
    """One candidate pipeline's estimated performance on the sample.

    ``est_ratio`` is the sample's float32 size over the length of the blob
    this pipeline makes of it (0.0 if the pipeline fails on the sample);
    ``trial_time`` is the trial's own encode plus an equal share of the
    prediction it shares with the other pipelines of its group.
    """

    config: PipelineConfig
    est_ratio: float
    trial_time: float

    @property
    def name(self) -> str:
        return self.config.describe()


@dataclass
class AutoTuneResult:
    """Outcome of :meth:`AutoTuner.tune`.

    ``total_time`` is wall-clock time; ``workers`` is how many processes
    scored the trials (1: in-process), so with ``workers > 1`` the trials'
    ``trial_time`` can add up to more than ``total_time``.
    """

    best: PipelineConfig
    trials: list[TrialResult]
    sample_shape: tuple[int, ...]
    sampling_rate: float
    period: int | None
    total_time: float
    workers: int

    def sorted_trials(self) -> list[TrialResult]:
        return sorted(self.trials, key=lambda t: -t.est_ratio)


# A candidate layout/period combo can be invalid for the sample's shape
# (ValueError), reference an axis the sample does not have (IndexError), or
# be numerically degenerate (ArithmeticError); such a candidate is scored out
# of the race rather than aborting the tune. Anything else (TypeError, ...)
# is a real bug and must propagate. tests/core/test_autotune.py pins this
# tuple against the known failure modes.
_TRIAL_ERRORS = (ValueError, ArithmeticError, LookupError, NotImplementedError)


def _score_group(configs: list[PipelineConfig], sample: np.ndarray, eb: float,
                 sample_mask: np.ndarray | None) -> list[TrialResult]:
    """Trial every config of one prediction group on a single prediction.

    The configs share a :func:`prediction_key`; each encodes the same
    prediction and is charged its own encode plus an equal share of the
    prediction. The prediction is dropped on return.
    """
    obs.inc_counter("autotune.predictions")
    shared = Timer()
    with shared:
        try:
            pred = predict(sample, configs[0], abs_eb=eb, mask=sample_mask)
        except _TRIAL_ERRORS:
            pred = None
    share = shared.elapsed / len(configs)
    out = []
    for cfg in configs:
        t = Timer()
        with t:
            ratio = 0.0
            if pred is not None:
                try:
                    ratio = sample.size * 4 / len(encode(pred, cfg))  # single-precision convention
                except _TRIAL_ERRORS:
                    pass
        out.append(TrialResult(cfg, ratio, share + t.elapsed))
    return out


def _score_job(job) -> list[TrialResult]:
    """:func:`_score_group` on one pool job, ``(configs, sample, eb, sample_mask)``."""
    return _score_group(*job)


class AutoTuner:
    """Exhaustive pipeline search over a sampled subset of the data.

    Parameters
    ----------
    sampling_rate:
        Fraction of the data volume used for trials (paper default 1%).
    time_axis, horiz_axes:
        Dataset metadata (original axis roles); ``None`` disables the
        periodicity / bin-classification candidate families respectively.
    fittings:
        Fitting functions to try.
    max_layouts:
        Optional cap on the number of (perm, fusion) layouts, for quick runs.
    workers:
        Processes that score the prediction groups. ``None`` (default)
        means two, capped by the usable CPUs and the number of groups;
        ``1`` scores them in-process. Unlike ``compress_chunked``, whose
        default is serial, the tune defaults to the pool: it is CPU-bound
        and embarrassingly parallel, and every worker count gives the same
        trials and ``best``.
    """

    def __init__(self, *, sampling_rate: float = 0.01,
                 time_axis: int | None = None,
                 horiz_axes: tuple[int, int] | None = None,
                 fittings: tuple[str, ...] = ("linear", "cubic"),
                 try_binclass: bool = True,
                 try_periodic: bool = True,
                 max_layouts: int | None = None,
                 workers: int | None = None,
                 seed: int = 0) -> None:
        if not (0.0 < sampling_rate <= 1.0):
            raise ValueError("sampling_rate must be in (0, 1]")
        if max_layouts is not None and max_layouts < 1:
            raise ValueError("max_layouts must be >= 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.sampling_rate = sampling_rate
        self.time_axis = time_axis
        self.horiz_axes = horiz_axes
        self.fittings = tuple(fittings)
        self.try_binclass = try_binclass
        self.try_periodic = try_periodic
        self.max_layouts = max_layouts
        self.workers = workers
        self.seed = seed

    # ------------------------------------------------------------------ #
    def candidate_pipelines(self, ndim: int, period: int | None) -> list[PipelineConfig]:
        """All pipelines for the search (paper: 192 for periodic 3D data)."""
        layouts = enumerate_layouts(ndim, max_layouts=self.max_layouts)
        periodic_opts = [False, True] if (period is not None and self.try_periodic) else [False]
        binclass_opts = [False, True] if (self.try_binclass and self.horiz_axes) else [False]
        out = []
        for periodic in periodic_opts:
            for binclass in binclass_opts:
                for layout in layouts:
                    for fitting in self.fittings:
                        out.append(PipelineConfig(
                            layout=layout,
                            fitting=fitting,
                            periodic=periodic,
                            time_axis=self.time_axis,
                            period=period if periodic else None,
                            binclass=binclass,
                            horiz_axes=self.horiz_axes,
                        ))
        return out

    def tune(self, data: np.ndarray, *, abs_eb: float | None = None,
             rel_eb: float | None = None, mask: np.ndarray | None = None) -> AutoTuneResult:
        """Search all candidate pipelines on the sampled data; pick the best.

        Candidates are grouped by :func:`~repro.core.compressor.prediction_key`
        (periodicity, layout, fitting): each group is predicted once and
        that prediction is encoded once per bin-classification choice, so
        every ``est_ratio`` is exactly what ``CliZ(cfg).compress`` of the
        sample gives. The groups run in-process or one job each on a
        process pool (see ``workers``); either way trials come back in
        :meth:`candidate_pipelines` order and ``best`` is the first maximum.
        """
        inp = codec_input(data, abs_eb=abs_eb, rel_eb=rel_eb, mask=mask)
        arr, mask, eb = inp.data, inp.mask, inp.eb
        total = Timer()
        with total:
            period = None
            if self.time_axis is not None and self.try_periodic:
                period = detect_period(arr, self.time_axis, mask=mask, seed=self.seed)

            # Short axes are taken in full: subsampling them leaves too few
            # points per block to judge layouts (block-seam artifacts), and
            # the volume saved is negligible. The periodic time axis is also
            # taken in full (see module docstring).
            full_axes = tuple(
                d for d, n in enumerate(arr.shape)
                if n <= _FULL_AXIS_THRESHOLD
                or (period is not None and d == self.time_axis)
            )
            blocks = sample_blocks(arr.shape, self.sampling_rate, full_axes=full_axes,
                                   anchors=mask_aware_anchors(arr.shape, mask))
            sample = assemble_sample(arr, blocks)
            sample_mask = assemble_sample(mask, blocks) if mask is not None else None
            if sample_mask is not None and not sample_mask.any():
                sample_mask = None  # degenerate sample: fall back to unmasked

            candidates = self.candidate_pipelines(arr.ndim, period)
            keyed: dict[tuple, list[int]] = {}
            for i, cfg in enumerate(candidates):
                keyed.setdefault(prediction_key(cfg), []).append(i)
            jobs = [([candidates[i] for i in members], sample, eb, sample_mask)
                    for members in keyed.values()]
            workers = min(self.workers or min(_DEFAULT_WORKERS, len(os.sched_getaffinity(0))),
                          len(jobs))
            if workers == 1:
                results = [_score_job(job) for job in jobs]
            else:
                with obs.span("autotune.dispatch", workers=workers,
                              jobs=len(jobs)) as dispatch:
                    results = _finalize(_run_jobs(
                        _score_job, jobs, workers=workers, policy=RetryPolicy(),
                        faults=None, scope="autotune", dispatch=dispatch),
                        True, "autotune")
            scored: dict[int, TrialResult] = {}
            for members, group_trials in zip(keyed.values(), results):
                scored.update(zip(members, group_trials))
            trials = [scored[i] for i in range(len(candidates))]

        best = max(trials, key=lambda t: t.est_ratio).config
        return AutoTuneResult(
            best=best,
            trials=trials,
            sample_shape=sample.shape,
            sampling_rate=self.sampling_rate,
            period=period,
            total_time=total.elapsed,
            workers=workers,
        )
