"""Reference implementation of the interpolation compress pass.

The two-pass form of :func:`repro.prediction.interp_compress`: every
(level, dim) pass gathers its references with :func:`_predict`, quantizes
with :meth:`LinearQuantizer.quantize`, and masks the result with
``np.where`` — simple, obviously-correct full-size intermediates. It is the
differential oracle for the fused engine, which must return the same code
stream, unpredictable values, reconstruction and auto-fit choices on every
input, masked or not.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.interpolation import (
    _FIT_CUBIC,
    _FIT_LINEAR,
    InterpResult,
    InterpSpec,
    _level_quantizer,
    _predict,
    _step_geometry,
    interpolation_steps,
)
from repro.quantization.linear import UNPREDICTABLE


def interp_compress_reference(data: np.ndarray, eb: float, spec: InterpSpec,
                              mask: np.ndarray | None = None) -> InterpResult:
    """Two-pass reference for :func:`repro.prediction.interp_compress`."""
    data = np.asarray(data, dtype=np.float64)
    shape = data.shape
    if len(spec.order) != data.ndim:
        raise ValueError(f"spec.order has {len(spec.order)} dims, data has {data.ndim}")
    rec = np.zeros_like(data)
    valid = mask.astype(bool) if mask is not None else None

    code_parts: list[np.ndarray] = []
    unpred_parts: list[np.ndarray] = []
    fit_choices: list[int] = []
    auto = spec.fitting == "auto"
    global_fit = _FIT_CUBIC if spec.fitting == "cubic" else _FIT_LINEAR

    # --- anchor: origin, predicted as zero -------------------------------- #
    origin = (0,) * data.ndim
    q0 = _level_quantizer(spec, eb, 0)
    anchor_valid = valid is None or bool(valid[origin])
    if anchor_valid:
        codes, recv = q0.quantize(np.array([data[origin]]), np.zeros(1))
        rec[origin] = recv[0]
        code_parts.append(codes)
        if codes[0] == UNPREDICTABLE:
            unpred_parts.append(np.array([data[origin]]))

    # --- levels ------------------------------------------------------------ #
    for level_idx, s, h, k in interpolation_steps(shape, spec.order):
        d, slices, targets = _step_geometry(shape, spec.order, s, h, k)
        if targets.size == 0:
            continue
        quant = _level_quantizer(spec, eb, level_idx)
        view_rec = rec[slices]
        axis = d
        tidx = (slice(None),) * axis + (targets,)
        tvals = data[slices][tidx]
        tmask = valid[slices][tidx] if valid is not None else None

        if auto:
            pred_lin = _predict(rec, valid, axis, slices, targets, h, _FIT_LINEAR)
            pred_cub = _predict(rec, valid, axis, slices, targets, h, _FIT_CUBIC)
            if tmask is not None:
                err_lin = np.abs((tvals - pred_lin))[tmask].sum()
                err_cub = np.abs((tvals - pred_cub))[tmask].sum()
            else:
                err_lin = np.abs(tvals - pred_lin).sum()
                err_cub = np.abs(tvals - pred_cub).sum()
            fit = _FIT_CUBIC if err_cub <= err_lin else _FIT_LINEAR
            fit_choices.append(fit)
            pred = pred_cub if fit == _FIT_CUBIC else pred_lin
        else:
            pred = _predict(rec, valid, axis, slices, targets, h, global_fit)

        codes, recv = quant.quantize(tvals, pred)
        if tmask is not None:
            recv = np.where(tmask, recv, 0.0)
            codes_stream = codes[tmask]
            unpred_sel = (codes == UNPREDICTABLE) & tmask
        else:
            codes_stream = codes.ravel()
            unpred_sel = codes == UNPREDICTABLE
        view_rec[tidx] = recv
        code_parts.append(codes_stream.ravel())
        if unpred_sel.any():
            unpred_parts.append(tvals[unpred_sel].ravel())

    if valid is not None:
        rec[~valid] = 0.0
    codes_all = np.concatenate(code_parts) if code_parts else np.zeros(0, dtype=np.int64)
    unpred_all = (
        np.concatenate(unpred_parts) if unpred_parts else np.zeros(0, dtype=np.float64)
    )
    return InterpResult(codes_all, unpred_all, rec, fit_choices)
