"""Codec-facing request handlers (no HTTP in here).

Each ``do_*`` function takes a validated request dataclass plus the
service's shared state (blob store, fault injector, deadline) and
returns a JSON-ready response dict, raising only the service exception
vocabulary (:data:`repro.service.schemas.SERVICE_ERRORS`) or the codec
decode vocabulary (``DECODE_ERRORS``) — the DEC-003 lint rule holds this
module to exactly those catches. The app layer maps exceptions to HTTP
statuses.

Every stored blob is a *chunked* container (even single-chunk requests)
so decompression always has per-section CRCs to salvage against, and the
request deadline propagates into :func:`repro.parallel.compress_chunked`
— an admitted request whose client stopped waiting is cancelled, not
computed for nobody.
"""

from __future__ import annotations

import numpy as np

from repro import compressor_for
from repro.encoding.container import DECODE_ERRORS
from repro.faults import FaultInjector
from repro.obs import add_bytes, inc_counter, observe, span
from repro.parallel import (
    DeadlineExceededError,
    compress_chunked,
    decompress_chunked,
)
from repro.service.blobstore import BlobStore
from repro.service.schemas import (
    CodecFailureError,
    CompressRequest,
    DeadlineError,
    DecompressRequest,
    EstimateRequest,
    encode_array,
)

__all__ = ["do_compress", "do_decompress", "do_estimate"]


def _run_codec(fn, codec: str, *args, **kwargs):
    """Run codec work, translating failures into the service vocabulary.

    ``DeadlineExceededError`` becomes a 504; anything else the codec
    throws (worker crash, exhausted retries, bad numerics) becomes a 500
    ``codec_failure`` that the app layer feeds to the codec's breaker.
    """
    try:
        return fn(*args, **kwargs)
    except DeadlineExceededError as exc:
        raise DeadlineError(f"codec {codec}: {exc}") from exc
    except DECODE_ERRORS as exc:
        raise CodecFailureError(
            f"codec {codec} failed: {type(exc).__name__}: {exc}") from exc
    except (RuntimeError, ArithmeticError, TypeError, MemoryError) as exc:
        raise CodecFailureError(
            f"codec {codec} failed: {type(exc).__name__}: {exc}") from exc


def do_compress(req: CompressRequest, store: BlobStore, *,
                deadline: float | None = None,
                faults: FaultInjector | None = None) -> dict:
    """Compress, store under the content address, return key + stats."""
    with span("service.compress", codec=req.codec):
        blob = _run_codec(
            compress_chunked, req.codec, req.array, req.codec,
            n_chunks=req.chunks, mask=req.mask, deadline=deadline,
            faults=faults, **req.eb)
        key = store.put(blob)
        add_bytes(len(blob))
    inc_counter("service.compress.ok")
    raw = req.array.nbytes
    observe("service.compress.ratio", raw / max(len(blob), 1))
    return {
        "key": key,
        "codec": req.codec,
        "raw_bytes": raw,
        "compressed_bytes": len(blob),
        "ratio": round(raw / max(len(blob), 1), 4),
        "shape": list(req.array.shape),
        "dtype": req.array.dtype.str,
    }


def do_decompress(req: DecompressRequest, store: BlobStore, *,
                  deadline: float | None = None) -> dict:
    """Fetch + decode a stored blob; damaged blobs degrade to salvage.

    The store digest-verifies on read. A corrupt blob does not 500: when
    the request allows salvage (the default) the damaged bytes are decoded
    in salvage mode — missing/damaged chunks come back NaN-filled with a
    section-level report — and the response is flagged ``salvaged`` (the
    app layer sends 206). ``salvage=false`` surfaces the 502 instead.
    """
    from repro.service.schemas import BlobCorruptError

    salvaged = False
    report = None
    try:
        blob = store.get(req.key)
    except BlobCorruptError:
        if not req.salvage:
            raise
        inc_counter("service.decompress.salvage_attempts")
        blob = store.fetch_raw(req.key)
        salvaged = True
    with span("service.decompress", key=req.key[:12]):
        add_bytes(len(blob))
        if salvaged:
            try:
                array, report = _run_codec(
                    decompress_chunked, "chunked", blob, salvage=True,
                    deadline=deadline)
            except DECODE_ERRORS as exc:
                # even salvage mode could not parse the outer container
                raise BlobCorruptError(
                    f"blob {req.key!r} is damaged beyond salvage: {exc}",
                    detail={"key": req.key}) from exc
        else:
            array = _run_codec(decompress_chunked, "chunked", blob,
                               deadline=deadline)
    inc_counter("service.decompress.ok")
    doc = {"array": encode_array(array), "salvaged": salvaged}
    if report is not None:
        doc["salvage_report"] = report.to_dict()
    return doc


def do_estimate(req: EstimateRequest, *, deadline: float | None = None) -> dict:
    """Cheap compressibility probe: compress a leading slab, extrapolate.

    Runs entirely in-process on at most ``sample_budget`` elements (a
    contiguous leading slab, preserving the spatial smoothness the
    predictor exploits), so it keeps serving while pools are broken or a
    codec's breaker is open — exactly the degraded-mode role the endpoint
    exists for.
    """
    arr = req.array
    per_row = int(np.prod(arr.shape[1:])) if arr.ndim > 1 else 1
    rows = max(1, min(arr.shape[0], -(-req.sample_budget // max(per_row, 1))))
    sample = np.ascontiguousarray(arr[:rows])
    mask = None if req.mask is None else np.ascontiguousarray(req.mask[:rows])
    with span("service.estimate", codec=req.codec):
        kwargs = dict(req.eb)
        if mask is not None:
            kwargs["mask"] = mask
        blob = _run_codec(
            lambda: compressor_for(req.codec).compress(sample, **kwargs),
            req.codec)
    ratio = sample.nbytes / max(len(blob), 1)
    inc_counter("service.estimate.ok")
    return {
        "codec": req.codec,
        "sampled_elements": int(sample.size),
        "total_elements": int(arr.size),
        "sample_ratio": round(ratio, 4),
        "estimated_compressed_bytes": int(arr.nbytes / max(ratio, 1e-9)),
    }
