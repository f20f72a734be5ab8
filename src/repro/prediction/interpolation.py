"""SZ3-style multigrid spline-interpolation predictor + quantizer.

This engine is the shared substrate of the SZ3 baseline, QoZ, and CliZ:

* Compression proceeds level by level on a dyadic grid hierarchy: a single
  anchor (the origin, predicted as 0), then for strides ``2^L, ..., 2``
  each level fills the half-stride grid by predicting along one dimension at
  a time — the classic dynamic spline interpolation of SZ3 [Zhao et al.,
  ICDE'21], with the paper's Formula (1)/(2) stencils.
* The *dimension order* within a level is configurable (CliZ's dimension
  permutation); *fusion* is performed by the caller as a reshape before
  calling in here.
* Every reference's validity combines in-bounds checks with the optional
  mask-map, feeding the Theorem-1 coefficient tables — so boundary fallback
  (SZ3's hard-coded degradation to lower-degree fits) and mask-aware
  prediction (CliZ §VI-B) are one mechanism.
* All per-(level, dim) passes are fully vectorized: every point of a pass is
  predicted from the already-reconstructed coarser grid, so there is no
  sequential dependency inside a pass (this is what makes a pure-NumPy SZ3
  practical).
* One gather-free kernel (:func:`_predict_fast`) predicts every pass, masked
  or not: references are strided views of the reconstruction and, with a
  mask, each point's validity code comes from strided views of the mask.
  :func:`interp_compress` fuses it with quantization in one loop and
  :func:`interp_decompress` replays it in one loop. The gather form
  :func:`_predict` remains for passes too small for the views to pay.

The produced code stream (valid positions only, deterministic traversal
order) plus the unpredictable-value list fully determine the reconstruction;
:func:`interp_decompress` replays the identical traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.prediction.coefficients import (
    CUBIC_OFFSETS,
    CUBIC_TABLE,
    LINEAR_OFFSETS,
    LINEAR_TABLE,
)
from repro.quantization.linear import DEFAULT_RADIUS, UNPREDICTABLE, LinearQuantizer

__all__ = [
    "InterpSpec",
    "InterpResult",
    "interp_compress",
    "interp_decompress",
    "interpolation_steps",
    "max_level",
    "traversal_indices",
]

_FIT_LINEAR = 0
_FIT_CUBIC = 1
_WEIGHTS4 = np.array([8, 4, 2, 1], dtype=np.int64)
_WEIGHTS2 = np.array([2, 1], dtype=np.int64)


@dataclass(frozen=True)
class InterpSpec:
    """Configuration of one interpolation compression pass.

    Attributes
    ----------
    order:
        Dimension processing order within each level (a permutation of
        ``range(ndim)``). Later dimensions in the order receive more
        predictions (the paper's ``2^{i-1}/(2^n - 1)`` fractions), so the
        smoothest dimension should come last.
    fitting:
        ``'linear'``, ``'cubic'``, or ``'auto'`` (choose per (level, dim)
        step by observed squared error — the QoZ behaviour; choices are
        recorded in :attr:`InterpResult.fit_choices` and must be passed back
        to :func:`interp_decompress`).
    level_eb_factors:
        Optional per-level error-bound scaling factors (coarsest level
        first), each in (0, 1]. Coarse-level points are referenced by many
        later predictions, so tightening them (QoZ) improves overall quality
        at slight rate cost. Missing entries default to 1.0.
    radius:
        Quantizer radius (alphabet is ``2 * radius`` codes).
    """

    order: tuple[int, ...]
    fitting: str = "cubic"
    level_eb_factors: tuple[float, ...] = field(default_factory=tuple)
    radius: int = DEFAULT_RADIUS

    def __post_init__(self) -> None:
        if self.fitting not in ("linear", "cubic", "auto"):
            raise ValueError(f"unknown fitting {self.fitting!r}")
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"order {self.order} is not a permutation")
        for f in self.level_eb_factors:
            if not (0.0 < f <= 1.0):
                raise ValueError("level_eb_factors must lie in (0, 1]")


@dataclass
class InterpResult:
    """Output of :func:`interp_compress`."""

    codes: np.ndarray  # int64 stream over valid points, traversal order
    unpredictable: np.ndarray  # float64 exact values for code==0 entries
    reconstructed: np.ndarray  # error-bounded reconstruction (masked -> 0.0)
    fit_choices: list[int]  # per-step fit used (only populated for 'auto')


def max_level(shape: tuple[int, ...]) -> int:
    """Number of dyadic levels needed to cover ``shape`` from a single anchor."""
    n = max(shape)
    if n <= 1:
        return 0
    return int(np.ceil(np.log2(n)))


def interpolation_steps(shape: tuple[int, ...], order: tuple[int, ...]):
    """Yield the deterministic (stride, fine_stride, dim_position) traversal.

    Each yielded tuple is ``(level_index, coarse_stride, fine_stride, k)``
    where ``k`` indexes into ``order``. Steps with no target points are
    still yielded (both sides skip them identically).
    """
    levels = max_level(shape)
    for level_idx, level in enumerate(range(levels, 0, -1)):
        s = 1 << level
        h = s >> 1
        for k in range(len(order)):
            yield level_idx, s, h, k


def _step_geometry(shape, order, s, h, k):
    """Slices and target indices for one (level, dim) pass.

    Dimensions earlier in ``order`` were already refined this level (stride
    ``h``); later ones are still at stride ``s``; the active dimension ``d``
    takes targets at odd multiples of ``h``.
    """
    d = order[k]
    slices = [None] * len(shape)
    for j, dim in enumerate(order):
        if j < k:
            slices[dim] = slice(None, None, h)
        elif j > k:
            slices[dim] = slice(None, None, s)
    slices[d] = slice(None)
    targets = np.arange(h, shape[d], s)
    return d, tuple(slices), targets


def _predict(rec, valid, axis, slices, targets, h, fit):
    """Predict all targets of one (level, dim) pass from reconstructed refs.

    ``rec[slices]`` is the stride-restricted view with the active dimension
    left whole at ``axis``; ``targets`` are indices along that axis and
    ``h`` is the fine stride (reference offsets are ``offsets * h``).
    Returns the prediction array shaped like the target selection.
    """
    offsets = CUBIC_OFFSETS if fit == _FIT_CUBIC else LINEAR_OFFSETS
    table = CUBIC_TABLE if fit == _FIT_CUBIC else LINEAR_TABLE
    weights = _WEIGHTS4 if fit == _FIT_CUBIC else _WEIGHTS2
    view = rec[slices]
    n = view.shape[axis]
    ref_idx = targets[:, None] + offsets[None, :] * h
    inb = (ref_idx >= 0) & (ref_idx < n)
    ref_clip = np.clip(ref_idx, 0, n - 1)
    take = (slice(None),) * axis + (ref_clip,)
    refs = view[take]  # shape: pre + (T, R) + post
    # Broadcast the (T, R) in-bounds matrix onto the gathered shape.
    expand = (1,) * axis + ref_idx.shape + (1,) * (view.ndim - axis - 1)
    if valid is None:
        vrefs = np.broadcast_to(inb.reshape(expand), refs.shape)
    else:
        vrefs = valid[slices][take] & inb.reshape(expand)
    wshape = (1,) * axis + (1, len(weights)) + (1,) * (view.ndim - axis - 1)
    codes = (vrefs * weights.reshape(wshape)).sum(axis=axis + 1)
    coeffs = np.moveaxis(table[codes], -1, axis + 1)
    return (refs * coeffs).sum(axis=axis + 1)


def _interior_rows(n: int, h: int, offsets: np.ndarray,
                   n_targets: int) -> tuple[int, int]:
    """Target-row range ``[i0, i1)`` whose references are all in bounds.

    Targets sit at ``h + 2*h*i`` along an axis of length ``n``; a row is
    *interior* when every reference offset ``o*h`` (``o`` in ``offsets``)
    stays inside ``[0, n)``. Rows inside form one block of strided views;
    rows outside have some references clamped and dropped from the
    validity code (see :func:`_predict_fast`).
    """
    o_min = int(offsets[0])
    o_max = int(offsets[-1])
    # first row with h + 2*h*i + o_min*h >= 0
    i0 = max(0, -((1 + o_min) // 2))
    # last row with h + 2*h*i + o_max*h <= n - 1
    num = n - 1 - h * (1 + o_max)
    i1 = num // (2 * h) + 1 if num >= 0 else 0
    i0 = min(i0, n_targets)
    i1 = max(i0, min(i1, n_targets))
    return i0, i1


def _stencil(view, vview, srcs, inb, table, out) -> None:
    """``out = sum_j view[srcs[j]] * c_j`` with Theorem-1 coefficients ``c``.

    ``srcs[j]`` selects reference ``j`` of every target in ``out`` (clipped
    to the grid) and ``inb[j]`` says whether that reference is in bounds.
    The validity code sums ``1 << (R-1-j)`` over the in-bounds references
    that are valid: one scalar without a mask, and per point — from strided
    views of the mask — with one (``vview``). The products are accumulated
    left to right, zero-coefficient terms included, which is exactly the
    reference kernel's ``(refs * coeffs).sum(axis)`` (NumPy reduces a
    length-2/4 axis sequentially), so NaN/inf propagate the same way.
    """
    top = len(srcs) - 1
    if vview is None:
        coeffs = table[sum(1 << (top - j) for j in range(len(srcs)) if inb[j])]
    else:
        code = None
        for j, src in enumerate(srcs):
            if inb[j]:
                bit = vview[src] << np.uint8(top - j)
                code = bit if code is None else np.bitwise_or(code, bit, out=code)
        code = code.astype(np.intp)  # take() is ~10x slower on uint8 indices
    term = np.empty_like(out)  # one product buffer reused by every term
    for j, src in enumerate(srcs):
        if vview is None:
            c = coeffs[j]
        else:
            c = np.take(table[:, j], code, out=term, mode="clip")
        np.multiply(view[src], c, out=out if j == 0 else term)
        if j:
            out += term


def _predict_fast(rec, valid, axis, slices, targets, h, fit):
    """Gather-free form of :func:`_predict` — bit-identical predictions.

    Interior target rows (all references in bounds) form one block of
    strided views; each edge row (at most three per pass) is its own block
    of length-1 slices clamped to the grid, with its out-of-bounds
    references dropped from the validity code. Both go through
    :func:`_stencil`, so masked and unmasked data share the kernel and no
    ``(T, R)`` gather is materialized.
    """
    offsets = CUBIC_OFFSETS if fit == _FIT_CUBIC else LINEAR_OFFSETS
    table = CUBIC_TABLE if fit == _FIT_CUBIC else LINEAR_TABLE
    view = rec[slices]
    vview = valid[slices].view(np.uint8) if valid is not None else None
    n = view.shape[axis]
    n_targets = targets.size
    i0, i1 = _interior_rows(n, h, offsets, n_targets)
    if i1 - i0 < 4:  # tiny pass: the view arithmetic is all overhead
        return _predict(rec, valid, axis, slices, targets, h, fit)
    head = (slice(None),) * axis
    block_shape = list(view.shape)
    block_shape[axis] = n_targets
    pred = np.empty(tuple(block_shape), dtype=np.float64)
    t0 = int(targets[i0])
    t1 = int(targets[i1 - 1])
    srcs = [head + (slice(t0 + int(o) * h, t1 + int(o) * h + 1, 2 * h),)
            for o in offsets]
    _stencil(view, vview, srcs, [True] * len(offsets), table,
             pred[head + (slice(i0, i1),)])
    for i in list(range(i0)) + list(range(i1, n_targets)):
        refs = [int(targets[i]) + int(o) * h for o in offsets]
        clamped = [min(max(p, 0), n - 1) for p in refs]
        _stencil(view, vview, [head + (slice(p, p + 1),) for p in clamped],
                 [0 <= p < n for p in refs], table, pred[head + (slice(i, i + 1),)])
    return pred


def _level_quantizer(spec: InterpSpec, eb: float, level_idx: int) -> LinearQuantizer:
    factor = 1.0
    if level_idx < len(spec.level_eb_factors):
        factor = spec.level_eb_factors[level_idx]
    return LinearQuantizer(eb * factor, radius=spec.radius)


def _fit_error(tvals, pred, tmask):
    """Summed absolute error of one candidate fit over the valid targets."""
    err = np.abs(tvals - pred)
    return (err if tmask is None else err[tmask]).sum()


def interp_compress(data: np.ndarray, eb: float, spec: InterpSpec,
                    mask: np.ndarray | None = None) -> InterpResult:
    """Compress ``data`` to a quantization-code stream under bound ``eb``.

    ``mask`` marks valid points (True); invalid points are excluded from the
    stream, never used as references, and reconstructed as 0.0 (callers
    restore fill values).

    Each (level, dim) pass predicts via :func:`_predict_fast` and quantizes
    with :meth:`~repro.quantization.linear.LinearQuantizer.quantize_into`.
    Unmasked, the codes land straight in their segment of one preallocated
    stream (the dyadic traversal visits every grid point exactly once); with
    a mask they land in a per-pass buffer whose valid entries are copied
    into the stream, and masked targets are reconstructed as 0.0.
    """
    data = np.asarray(data, dtype=np.float64)
    shape = data.shape
    if len(spec.order) != data.ndim:
        raise ValueError(f"spec.order has {len(spec.order)} dims, data has {data.ndim}")
    valid = mask.astype(bool) if mask is not None else None
    rec = np.zeros_like(data)
    n_stream = data.size if valid is None else int(np.count_nonzero(valid))
    codes_all = np.empty(n_stream, dtype=np.int64)
    unpred_parts: list[np.ndarray] = []
    fit_choices: list[int] = []
    auto = spec.fitting == "auto"
    global_fit = _FIT_CUBIC if spec.fitting == "cubic" else _FIT_LINEAR

    # --- anchor: origin, predicted as zero -------------------------------- #
    origin = (0,) * data.ndim
    off = 0
    if valid is None or bool(valid[origin]):
        q0 = _level_quantizer(spec, eb, 0)
        codes, recv = q0.quantize(np.array([data[origin]]), np.zeros(1))
        rec[origin] = recv[0]
        codes_all[0] = codes[0]
        off = 1
        if codes[0] == UNPREDICTABLE:
            unpred_parts.append(np.array([data[origin]]))

    # --- levels ------------------------------------------------------------ #
    for level_idx, s, h, k in interpolation_steps(shape, spec.order):
        d, slices, targets = _step_geometry(shape, spec.order, s, h, k)
        if targets.size == 0:
            continue
        quant = _level_quantizer(spec, eb, level_idx)
        axis = d
        # targets is arange(h, shape[d], 2h): a basic slice, so the target
        # values and the reconstruction destination are zero-copy views.
        tslice = (slice(None),) * axis + (slice(h, None, s),)
        tvals = data[slices][tslice]
        # contiguous copy: the mask is read three times below
        tmask = (np.ascontiguousarray(valid[slices][tslice])
                 if valid is not None else None)

        if auto:
            pred_lin = _predict_fast(rec, valid, axis, slices, targets, h, _FIT_LINEAR)
            pred_cub = _predict_fast(rec, valid, axis, slices, targets, h, _FIT_CUBIC)
            err_lin = _fit_error(tvals, pred_lin, tmask)
            err_cub = _fit_error(tvals, pred_cub, tmask)
            fit = _FIT_CUBIC if err_cub <= err_lin else _FIT_LINEAR
            fit_choices.append(fit)
            pred = pred_cub if fit == _FIT_CUBIC else pred_lin
        else:
            pred = _predict_fast(rec, valid, axis, slices, targets, h, global_fit)

        if tmask is None:
            codeseg = codes_all[off : off + pred.size].reshape(pred.shape)
            recv, ok = quant.quantize_into(tvals, pred, codeseg)
            off += pred.size
            unp = ~ok
        else:
            codeseg = np.empty(pred.shape, dtype=np.int64)
            recv, ok = quant.quantize_into(tvals, pred, codeseg)
            kept = codeseg[tmask]
            codes_all[off : off + kept.size] = kept
            off += kept.size
            unp = ~ok & tmask
            np.copyto(recv, 0.0, where=~tmask)
        rec[slices][tslice] = recv
        if unp.any():
            unpred_parts.append(tvals[unp])

    if off != codes_all.size:  # pragma: no cover - traversal covers the grid
        raise AssertionError(
            f"traversal covered {off} of {codes_all.size} points")
    unpred_all = (
        np.concatenate(unpred_parts) if unpred_parts else np.zeros(0, dtype=np.float64)
    )
    return InterpResult(codes_all, unpred_all, rec, fit_choices)


def interp_decompress(shape: tuple[int, ...], eb: float, spec: InterpSpec,
                      codes: np.ndarray, unpredictable: np.ndarray,
                      mask: np.ndarray | None = None,
                      fit_choices: list[int] | None = None) -> np.ndarray:
    """Replay the traversal of :func:`interp_compress` and reconstruct.

    All arguments must match the compression call; ``fit_choices`` is
    required when ``spec.fitting == 'auto'``. Both streams must be consumed
    exactly: leftover codes or unpredictable values raise ``ValueError``.
    """
    shape = tuple(shape)
    codes = np.asarray(codes, dtype=np.int64)
    unpredictable = np.asarray(unpredictable, dtype=np.float64)
    if len(spec.order) != len(shape):
        raise ValueError("spec.order rank mismatch")
    auto = spec.fitting == "auto"
    if auto and fit_choices is None:
        raise ValueError("fit_choices required for fitting='auto'")
    global_fit = _FIT_CUBIC if spec.fitting == "cubic" else _FIT_LINEAR

    rec = np.zeros(shape, dtype=np.float64)
    valid = mask.astype(bool) if mask is not None else None
    cpos = 0
    upos = 0
    step_i = 0

    def take_codes(n: int) -> np.ndarray:
        nonlocal cpos
        if cpos + n > codes.size:
            raise ValueError("code stream shorter than traversal requires")
        out = codes[cpos : cpos + n]
        cpos += n
        return out

    def take_unpred(n: int) -> np.ndarray:
        nonlocal upos
        if upos + n > unpredictable.size:
            raise ValueError("unpredictable stream exhausted")
        out = unpredictable[upos : upos + n]
        upos += n
        return out

    origin = (0,) * len(shape)
    q0 = _level_quantizer(spec, eb, 0)
    if valid is None or bool(valid[origin]):
        c = take_codes(1)
        if c[0] == UNPREDICTABLE:
            rec[origin] = take_unpred(1)[0]
        else:
            rec[origin] = (int(c[0]) - spec.radius) * 2.0 * q0.error_bound

    for level_idx, s, h, k in interpolation_steps(shape, spec.order):
        d, slices, targets = _step_geometry(shape, spec.order, s, h, k)
        if targets.size == 0:
            continue
        quant = _level_quantizer(spec, eb, level_idx)
        axis = d
        tslice = (slice(None),) * axis + (slice(h, None, s),)
        if auto:
            fit = fit_choices[step_i]
            step_i += 1
        else:
            fit = global_fit
        pred = _predict_fast(rec, valid, axis, slices, targets, h, fit)
        if valid is None:
            tmask = None
            full = take_codes(pred.size).reshape(pred.shape)
        else:
            # masked targets get the zero-residual code, so they are never
            # read as unpredictable
            tmask = np.ascontiguousarray(valid[slices][tslice])
            full = np.full(pred.shape, spec.radius, dtype=np.int64)
            full[tmask] = take_codes(int(np.count_nonzero(tmask)))
        recv = pred + (full - spec.radius) * (2.0 * quant.error_bound)
        unp = full == UNPREDICTABLE
        n_unp = int(np.count_nonzero(unp))
        if n_unp:
            recv[unp] = take_unpred(n_unp)
        if tmask is not None:
            np.copyto(recv, 0.0, where=~tmask)
        rec[slices][tslice] = recv

    if cpos != codes.size:
        raise ValueError(f"code stream has {codes.size - cpos} unconsumed entries")
    if upos != unpredictable.size:
        raise ValueError(
            f"unpredictable stream has {unpredictable.size - upos} unconsumed values")
    return rec


def traversal_indices(shape: tuple[int, ...], order: tuple[int, ...],
                      mask: np.ndarray | None = None) -> np.ndarray:
    """Flat grid index of every code-stream entry, in stream order.

    Lets callers relate stream positions back to grid coordinates (CliZ's
    quantization-bin classification groups stream entries by their
    horizontal location). With a ``mask``, invalid positions are omitted,
    mirroring :func:`interp_compress`.
    """
    shape = tuple(shape)
    strides = np.ones(len(shape), dtype=np.int64)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    mask_flat = mask.ravel() if mask is not None else None
    parts: list[np.ndarray] = []
    if mask is None or bool(mask.ravel()[0]):
        parts.append(np.zeros(1, dtype=np.int64))
    for level_idx, s, h, k in interpolation_steps(shape, order):
        d, slices, targets = _step_geometry(shape, order, s, h, k)
        if targets.size == 0:
            continue
        axes_idx = []
        for dim in range(len(shape)):
            if dim == d:
                axes_idx.append(targets)
            else:
                sl = slices[dim]
                axes_idx.append(np.arange(0, shape[dim], sl.step or 1))
        flat = np.zeros((1,) * len(shape), dtype=np.int64)
        for dim, idx in enumerate(axes_idx):
            reshape = (1,) * dim + (idx.size,) + (1,) * (len(shape) - dim - 1)
            flat = flat + idx.reshape(reshape) * strides[dim]
        flat = flat.ravel()
        if mask_flat is not None:
            flat = flat[mask_flat[flat]]
        parts.append(flat)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
