"""The CliZ error-bounded lossy compressor (the paper's contribution).

``CliZ.compress`` orchestrates the full pipeline of Fig. 1:

1. optional mask-map handling (§VI-B): masked points are excluded from the
   stream, never referenced by predictions, and restored to the dataset's
   fill value on decompression;
2. optional periodic-component extraction (§VI-D): FFT-estimated period,
   template/residual split, each compressed with its own share of the error
   bound;
3. layout transform (§VI-C): dimension permutation + fusion;
4. multigrid spline prediction with mask-aware Theorem-1 coefficients and
   linear-scale quantization (the SZ3 framework);
5. optional quantization-bin classification + multi-Huffman coding (§VI-E),
   otherwise classic single-tree Huffman; both post-processed by LZ.

The output is a self-describing :class:`~repro.encoding.container.Container`
blob; ``CliZ.decompress`` needs nothing but the blob.

Steps 1-4 are the prediction stage (:func:`predict`), step 5 and the
container the encoding stage (:func:`encode`); ``CliZ.compress`` is
``encode(predict(...))``. Pipelines with the same :func:`prediction_key`
can encode one shared prediction, which is how the auto-tuner scores both
bin-classification choices for the price of one predict+quantize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.binclass import BinClassification, classify_bins, undo_shift
from repro.core.codec import (
    Codec,
    codec_input,
    decode_code_stream,
    decode_floats,
    encode_code_stream,
    encode_floats,
    resolve_error_bound,
)
from repro.core.dims import apply_layout, undo_layout
from repro.core.periodicity import detect_period, merge_periodic, split_periodic
from repro.core.pipeline import PipelineConfig
from repro.encoding.container import Container, CorruptStreamError
from repro.encoding.lz import lz_compress, lz_decompress
from repro.encoding.multihuffman import decode_grouped, encode_grouped
from repro.encoding.rle import pack_bitmap, unpack_bitmap
from repro.prediction.interpolation import (
    InterpResult,
    InterpSpec,
    interp_compress,
    interp_decompress,
    traversal_indices,
)
from repro.quantization.linear import DEFAULT_RADIUS
from repro.obs import inc_counter, set_gauge, span, traced_compress

__all__ = ["CliZ", "Prediction", "encode", "predict", "prediction_key", "resolve_error_bound"]

_CODEC = "cliz"


def _hpos_grid(shape: tuple[int, ...], horiz_axes: tuple[int, int]) -> np.ndarray:
    """Flat horizontal-location index (lat * n_lon + lon) per grid point."""
    lat, lon = horiz_axes
    n_lon = shape[lon]
    lat_idx = np.arange(shape[lat], dtype=np.int64).reshape(
        tuple(-1 if i == lat else 1 for i in range(len(shape)))
    )
    lon_idx = np.arange(n_lon, dtype=np.int64).reshape(
        tuple(-1 if i == lon else 1 for i in range(len(shape)))
    )
    return np.ascontiguousarray(np.broadcast_to(lat_idx * n_lon + lon_idx, shape))


def _mask_time_invariant(mask: np.ndarray, time_axis: int) -> bool:
    moved = np.moveaxis(mask, time_axis, 0)
    return bool((moved == moved[0]).all())


@dataclass
class PredictedComponent:
    """One component after predict+quantize.

    It keeps the laid-out values and the whole :class:`InterpResult` until
    it is dropped, as the one-pass compressor did: releasing them before
    encoding left the heap fragmented and raised peak RSS measurably.
    """

    name: str
    shape: tuple[int, ...]  # before the layout transform
    laid: np.ndarray
    laid_mask: np.ndarray | None
    result: InterpResult


@dataclass
class Prediction:
    """Output of :func:`predict`: what :func:`encode` turns into a blob.

    ``key`` is :func:`prediction_key` of the pipeline that made it; any
    pipeline with the same key may encode it.
    """

    key: tuple
    header: dict  # the blob's header, all but the pipeline config
    mask: np.ndarray | None  # the mask the blob stores, if any
    components: list[PredictedComponent]


def prediction_key(cfg: PipelineConfig) -> tuple:
    """The pipeline fields :func:`predict` reads.

    Pipelines that differ only in their encoding choices (bin
    classification and its parameters) share one key and one prediction.
    """
    return (cfg.layout, cfg.fitting, cfg.periodic, cfg.time_axis, cfg.period,
            cfg.use_mask, cfg.template_eb_ratio)


def predict(data: np.ndarray, cfg: PipelineConfig, *, abs_eb: float | None = None,
            rel_eb: float | None = None, mask: np.ndarray | None = None,
            fill_value: float | None = None) -> Prediction:
    """The prediction stage: periodic split, layout, predict+quantize.

    Arguments are those of :meth:`CliZ.compress` with the pipeline made
    explicit.
    """
    inp = codec_input(data, abs_eb=abs_eb, rel_eb=rel_eb, mask=mask)
    work, mask = inp.data, inp.mask
    if cfg.layout.ndim_in != work.ndim:
        raise ValueError(
            f"config layout is {cfg.layout.ndim_in}D but data is {work.ndim}D"
        )
    eb = inp.eb
    eff_mask = mask if mask is not None and cfg.use_mask else None

    if fill_value is None:
        if mask is not None and (~mask).any():
            fill_value = float(work[~mask].flat[0])
        else:
            fill_value = 0.0

    # ---- periodic split ------------------------------------------- #
    period = None
    if cfg.periodic and cfg.time_axis is not None:
        n_time = work.shape[cfg.time_axis]
        mask_ok = eff_mask is None or _mask_time_invariant(eff_mask, cfg.time_axis)
        if n_time >= 8 and mask_ok:
            period = cfg.period or detect_period(work, cfg.time_axis, mask=eff_mask)
            if period is not None and not (2 <= period <= n_time // 2):
                period = None

    if period is not None:
        template, residual = split_periodic(work, cfg.time_axis, period)
        eb_t = eb * cfg.template_eb_ratio
        t_mask = None
        if eff_mask is not None:
            moved = np.moveaxis(eff_mask, cfg.time_axis, 0)
            t_mask = np.ascontiguousarray(
                np.moveaxis(moved[:period], 0, cfg.time_axis)
            )
        parts = [("template", template, eb_t, t_mask), ("residual", residual, eb - eb_t, eff_mask)]
    else:
        parts = [("main", work, eb, eff_mask)]
    components = [_predict_component(*part, cfg) for part in parts]
    header = {
        "shape": list(work.shape),
        "dtype": inp.dtype.str,
        "eb": eb,
        "fill_value": float(fill_value),
        "has_mask": eff_mask is not None,
        "period": period,
        "components": [{"name": name, "eb": part_eb, "shape": list(part.shape),
                        "mask": part_mask is not None}
                       for name, part, part_eb, part_mask in parts],
    }
    return Prediction(prediction_key(cfg), header, eff_mask, components)


def _predict_component(name: str, arr: np.ndarray, eb: float, mask: np.ndarray | None,
                       cfg: PipelineConfig) -> PredictedComponent:
    laid = apply_layout(arr, cfg.layout)
    lmask = apply_layout(mask, cfg.layout) if mask is not None else None
    spec = InterpSpec(order=tuple(range(laid.ndim)), fitting=cfg.fitting)
    with span("predict+quantize", nbytes=laid.nbytes, component=name):
        res = interp_compress(laid, eb, spec, mask=lmask)
    if res.codes.size:
        set_gauge(f"cliz.quantize.hit_rate.{name}",
                  1.0 - res.unpredictable.size / res.codes.size)
    if res.fit_choices:
        for fit in res.fit_choices:
            inc_counter("cliz.predictor.cubic" if fit else "cliz.predictor.linear")
    else:
        inc_counter(f"cliz.predictor.{cfg.fitting}")
    return PredictedComponent(name, arr.shape, laid, lmask, res)


def encode(pred: Prediction, cfg: PipelineConfig) -> bytes:
    """The encoding stage: quantization codes, unpredictables, container.

    ``cfg`` picks single-tree Huffman or bin-classified multi-Huffman and is
    the pipeline the blob records; it must have ``pred``'s prediction key.
    ``pred`` is only read, so one prediction can be encoded many times.
    """
    if prediction_key(cfg) != pred.key:
        raise ValueError("pipeline does not match the one the prediction was made with")
    container = Container(_CODEC)
    if pred.mask is not None:
        with span("mask.pack"):
            container.add_section("mask", pack_bitmap(pred.mask))
    for comp in pred.components:
        _encode_component(comp, cfg, container)
    container.header = {**pred.header, "config": cfg.to_dict()}
    return container.to_bytes()


def _encode_component(comp: PredictedComponent, cfg: PipelineConfig,
                      container: Container) -> None:
    name = comp.name
    if cfg.binclass and cfg.horiz_axes is not None:
        with span("binclass"):
            hgrid = apply_layout(_hpos_grid(comp.shape, cfg.horiz_axes), cfg.layout).ravel()
            order = tuple(range(comp.laid.ndim))
            hpos = hgrid[traversal_indices(comp.laid.shape, order, comp.laid_mask)]
            lat, lon = cfg.horiz_axes
            n_hpos = comp.shape[lat] * comp.shape[lon]
            cls, shifted, groups = classify_bins(
                comp.result.codes, hpos, n_hpos, DEFAULT_RADIUS,
                j=cfg.binclass_j, k=cfg.binclass_k, lam=cfg.binclass_lambda,
            )
        with span("encode.codes"):
            grouped = encode_grouped(shifted, groups, cls.n_groups)
            with span("lz.compress", nbytes=len(grouped)):
                blob = lz_compress(grouped)
            container.add_section(f"{name}.codes", blob)
        container.add_section(f"{name}.cls", cls.serialize())
    else:
        with span("encode.codes"):
            container.add_section(f"{name}.codes", encode_code_stream(comp.result.codes))
    with span("encode.unpred"):
        container.add_section(f"{name}.unpred", encode_floats(comp.result.unpredictable))


class CliZ(Codec):
    """CliZ compressor facade.

    Parameters
    ----------
    config:
        The compression pipeline, usually produced by
        :class:`repro.core.autotune.AutoTuner`. Defaults to a neutral
        pipeline (natural order, cubic fitting, no extras) matching the
        data's dimensionality at compress time.

    ``compress`` stays in this class body (it builds its container in
    :func:`encode`, and the tuner shares :func:`predict`/:func:`encode`
    with it); the input contract is :func:`predict`'s, and decompression
    runs through the :class:`~repro.core.codec.Codec` frame.
    """

    codec_name = _CODEC

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    @traced_compress
    def compress(self, data: np.ndarray, *, abs_eb: float | None = None,
                 rel_eb: float | None = None, mask: np.ndarray | None = None,
                 fill_value: float | None = None) -> bytes:
        """Compress ``data`` under a pointwise error bound; returns a blob.

        ``mask`` marks valid points (True). ``fill_value`` is what masked
        points decompress to (default: the first masked value in ``data``,
        matching CESM files where invalid points carry a fill constant).
        The work is ``encode(predict(...))``.
        """
        cfg = self.config or PipelineConfig.default(np.ndim(data))
        return encode(predict(data, cfg, abs_eb=abs_eb, rel_eb=rel_eb, mask=mask,
                              fill_value=fill_value), cfg)

    # ------------------------------------------------------------------ #
    def _decode(self, container: Container) -> np.ndarray:
        header = container.header
        cfg = PipelineConfig.from_dict(header["config"])
        shape = tuple(header["shape"])
        mask = None
        if header["has_mask"]:
            with span("mask.unpack"):
                mask = unpack_bitmap(container.section("mask"), shape=shape)

        period = header["period"]
        parts: dict[str, np.ndarray] = {}
        for comp in header["components"]:
            name = comp["name"]
            comp_shape = tuple(comp["shape"])
            comp_mask = mask
            if mask is not None and comp_shape != shape:
                # template component: mask restricted to the first period
                moved = np.moveaxis(mask, cfg.time_axis, 0)
                comp_mask = np.ascontiguousarray(
                    np.moveaxis(moved[: comp_shape[cfg.time_axis]], 0, cfg.time_axis)
                )
            parts[name] = self._decompress_component(
                name, comp_shape, comp["eb"], comp_mask if comp["mask"] else None,
                cfg, container,
            )

        if period is not None:
            work = merge_periodic(parts["template"], parts["residual"], cfg.time_axis)
        else:
            work = parts["main"]

        if mask is not None:
            work[~mask] = header["fill_value"]
        return work

    def _decompress_component(self, name: str, shape: tuple[int, ...], eb: float,
                              mask: np.ndarray | None, cfg: PipelineConfig,
                              container: Container) -> np.ndarray:
        laid_shape = cfg.layout.fused_shape(shape)
        lmask = apply_layout(mask, cfg.layout) if mask is not None else None
        order = tuple(range(len(laid_shape)))
        spec = InterpSpec(order=order, fitting=cfg.fitting)

        if container.has_section(f"{name}.cls"):
            with span("decode.codes"):
                cls = BinClassification.deserialize(container.section(f"{name}.cls"))
                hgrid = apply_layout(_hpos_grid(shape, cfg.horiz_axes), cfg.layout).ravel()
                tidx = traversal_indices(laid_shape, order, lmask)
                hpos = hgrid[tidx]
                section = container.section(f"{name}.codes")
                with span("lz.decompress", nbytes=len(section)):
                    grouped_blob = lz_decompress(section)
                groups = cls.group_map[hpos]
                shifted, end = decode_grouped(grouped_blob, groups)
                if end != len(grouped_blob):
                    raise CorruptStreamError(
                        f"{name}.codes has {len(grouped_blob) - end} trailing bytes")
                codes = undo_shift(shifted, hpos, cls)
        else:
            with span("decode.codes"):
                codes = decode_code_stream(container.section(f"{name}.codes"))
        with span("decode.unpred"):
            unpred = decode_floats(container.section(f"{name}.unpred"))
        with span("reconstruct", nbytes=codes.size * 8):
            laid = interp_decompress(laid_shape, eb, spec, codes, unpred, mask=lmask)
        return undo_layout(laid, shape, cfg.layout)
