"""RCDF — a NetCDF-like dataset container with lossy-compressed variables.

A dataset holds named **dimensions**, global **attributes**, and
**variables**; each variable maps to named dimensions, carries its own
attributes, and is stored either losslessly (LZ over raw bytes) or through
any registered lossy codec with a per-variable error bound.

CF conventions supported:

* ``missing_value`` / ``_FillValue`` attributes — on write, a validity mask
  is derived automatically and handed to mask-aware codecs (CliZ); on read,
  masked points come back as the fill value;
* coordinate variables (a variable named like its single dimension);
* an ``axes`` attribute (e.g. ``"lat,lon,time"``) that lets
  :meth:`RcdfVariable.tuner_kwargs` recover the axis roles CliZ's tuner
  needs.

The on-disk layout reuses :class:`repro.encoding.container.Container`
(codec tag ``rcdf``): one JSON header describing the schema, one section
per variable payload. Reading is lazy per variable: decompression happens
on first :meth:`RcdfDataset.get` of each variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.encoding.container import (
    Container,
    CorruptStreamError,
    DECODE_ERRORS,
    SalvageReport,
)
from repro.encoding.lz import lz_compress, lz_decompress
from repro.utils.validation import check_array

__all__ = ["RcdfVariable", "RcdfDataset", "write_rcdf", "read_rcdf"]

_CODEC = "rcdf"
_ATTR_TYPES = (str, int, float, bool)


def _check_attrs(attrs: dict) -> dict:
    for key, value in attrs.items():
        if not isinstance(key, str):
            raise TypeError("attribute names must be strings")
        if not isinstance(value, _ATTR_TYPES):
            raise TypeError(
                f"attribute {key!r} has unsupported type {type(value).__name__}; "
                f"allowed: {', '.join(t.__name__ for t in _ATTR_TYPES)}"
            )
    return dict(attrs)


@dataclass
class RcdfVariable:
    """One dataset variable plus its storage policy."""

    name: str
    dims: tuple[str, ...]
    data: np.ndarray
    attrs: dict = field(default_factory=dict)
    codec: str = "raw"  # 'raw' (lossless) or any repro codec name
    rel_eb: float | None = None
    abs_eb: float | None = None

    def __post_init__(self) -> None:
        self.data = check_array(self.data, name=f"variable {self.name!r}")
        if len(self.dims) != self.data.ndim:
            raise ValueError(
                f"variable {self.name!r}: {len(self.dims)} dims for {self.data.ndim}D data"
            )
        self.attrs = _check_attrs(self.attrs)
        if self.codec != "raw" and self.rel_eb is None and self.abs_eb is None:
            raise ValueError(f"variable {self.name!r}: lossy codec needs rel_eb or abs_eb")

    # ------------------------------------------------------------------ #
    @property
    def fill_value(self) -> float | None:
        for key in ("missing_value", "_FillValue"):
            if key in self.attrs:
                return float(self.attrs[key])
        return None

    def derive_mask(self) -> np.ndarray | None:
        """Validity mask from the CF missing_value attribute (True = valid)."""
        fill = self.fill_value
        if fill is None:
            return None
        mask = self.data != np.asarray(fill, dtype=self.data.dtype)
        if mask.all():
            return None
        if not mask.any():
            raise ValueError(f"variable {self.name!r} contains only fill values")
        return mask

    def tuner_kwargs(self) -> dict:
        """Axis-role kwargs for :class:`repro.core.AutoTuner` (from ``axes``)."""
        roles = self.attrs.get("axes", ",".join(self.dims)).split(",")
        out: dict = {"time_axis": None, "horiz_axes": None}
        if "time" in roles:
            out["time_axis"] = roles.index("time")
        if "lat" in roles and "lon" in roles:
            out["horiz_axes"] = (roles.index("lat"), roles.index("lon"))
        return out


class RcdfDataset:
    """An in-memory dataset: dimensions + attributes + variables."""

    def __init__(self, attrs: dict | None = None) -> None:
        self.dimensions: dict[str, int] = {}
        self.attrs: dict = _check_attrs(attrs or {})
        self._variables: dict[str, RcdfVariable] = {}
        self._pending: dict[str, tuple[dict, bytes]] = {}  # lazy payloads
        self.salvage_report: SalvageReport = SalvageReport(codec=_CODEC)

    # ------------------------------------------------------------------ #
    def create_dimension(self, name: str, size: int) -> None:
        if name in self.dimensions:
            raise ValueError(f"dimension {name!r} already exists")
        if size <= 0:
            raise ValueError(f"dimension {name!r} must have positive size")
        self.dimensions[name] = int(size)

    def add_variable(self, name: str, dims: tuple[str, ...], data: np.ndarray,
                     *, attrs: dict | None = None, codec: str = "raw",
                     rel_eb: float | None = None,
                     abs_eb: float | None = None) -> RcdfVariable:
        """Create a variable; its dims must match declared dimension sizes."""
        if name in self._variables or name in self._pending:
            raise ValueError(f"variable {name!r} already exists")
        var = RcdfVariable(name, tuple(dims), np.asarray(data),
                           attrs=attrs or {}, codec=codec,
                           rel_eb=rel_eb, abs_eb=abs_eb)
        for dim, size in zip(var.dims, var.data.shape):
            if dim not in self.dimensions:
                raise ValueError(f"variable {name!r} uses undeclared dimension {dim!r}")
            if self.dimensions[dim] != size:
                raise ValueError(
                    f"variable {name!r}: dimension {dim!r} is {self.dimensions[dim]}, "
                    f"data has {size}"
                )
        self._variables[name] = var
        return var

    @property
    def variable_names(self) -> list[str]:
        return sorted(set(self._variables) | set(self._pending))

    def get(self, name: str) -> RcdfVariable:
        """Fetch a variable, decompressing it on first access."""
        if name in self._pending:
            self._variables[name] = _decode_variable(*self._pending.pop(name))
        if name in self._variables:
            return self._variables[name]
        raise KeyError(f"no variable {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._variables or name in self._pending

    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        container = Container(_CODEC)
        var_meta = []
        for name in self.variable_names:
            var = self.get(name)
            meta, payload = _encode_variable(var)
            var_meta.append(meta)
            container.add_section(f"var:{name}", payload)
        container.header = {
            "dimensions": self.dimensions,
            "attrs": self.attrs,
            "variables": var_meta,
        }
        return container.to_bytes()

    @classmethod
    def from_bytes(cls, blob: bytes, *, salvage: bool = False) -> "RcdfDataset":
        """Parse a dataset; variables decode lazily on :meth:`get`.

        With ``salvage=True`` corruption no longer aborts the read:
        variables whose payload section is missing, fails its CRC
        (container v2), or fails to decode come back NaN-filled
        (zero-filled for integer dtypes) with their metadata intact, and
        :attr:`salvage_report` describes exactly what was lost. Salvage
        decodes every variable eagerly so the report is complete on
        return.
        """
        container = Container.from_bytes(blob, salvage=salvage)
        if container.codec != _CODEC:
            raise ValueError(f"not an RCDF stream (codec {container.codec!r})")
        header = container.header
        if not isinstance(header.get("attrs"), dict) or \
                not isinstance(header.get("dimensions"), dict) or \
                not isinstance(header.get("variables"), list):
            raise CorruptStreamError("RCDF header is missing attrs/dimensions/variables")
        ds = cls(attrs=header["attrs"])
        ds.dimensions = dict(header["dimensions"])
        metas = {meta.get("name"): meta for meta in header["variables"]}
        report = SalvageReport(codec=_CODEC, total=len(header["variables"]))
        payloads = container.payloads({name: f"var:{name}" for name in metas},
                                      report if salvage else None)
        ds._pending = {name: (metas[name], payloads[name]) for name in payloads}
        ds.salvage_report = report
        if not salvage:
            return ds
        lost = [name for name in metas if name not in payloads]
        for name in payloads:  # eager decode so the report is complete
            try:
                ds.get(name)
            except DECODE_ERRORS as exc:
                report.add(name, "decode", f"{type(exc).__name__}: {exc}")
                lost.append(name)
        for name in lost:
            meta = metas[name]
            dtype = np.dtype(meta["dtype"])
            data = np.full(tuple(meta["shape"]), report.lost_fill(dtype, "vars"), dtype)
            ds._variables[name] = _variable(meta, data)
        report.count("vars")
        return ds


# ---------------------------------------------------------------------- #
def _variable(meta: dict, data: np.ndarray) -> RcdfVariable:
    """``data`` under the variable metadata ``meta`` records."""
    return RcdfVariable(
        meta["name"], tuple(meta["dims"]), data, attrs=meta["attrs"],
        codec=meta["codec"], rel_eb=meta["rel_eb"], abs_eb=meta["abs_eb"],
    )


def _encode_variable(var: RcdfVariable) -> tuple[dict, bytes]:
    meta = {
        "name": var.name,
        "dims": list(var.dims),
        "shape": list(var.data.shape),
        "dtype": var.data.dtype.str,
        "attrs": var.attrs,
        "codec": var.codec,
        "rel_eb": var.rel_eb,
        "abs_eb": var.abs_eb,
    }
    if var.codec == "raw":
        return meta, lz_compress(np.ascontiguousarray(var.data).tobytes())
    from repro import compressor_for  # late import: avoids a cycle at import time

    comp = compressor_for(var.codec)
    mask = var.derive_mask()
    if var.rel_eb is not None:
        return meta, comp.compress(var.data, rel_eb=var.rel_eb, mask=mask)
    return meta, comp.compress(var.data, abs_eb=var.abs_eb, mask=mask)


def _decode_variable(meta: dict, payload: bytes) -> RcdfVariable:
    dtype = np.dtype(meta["dtype"])
    shape = tuple(meta["shape"])
    if meta["codec"] == "raw":
        data = np.frombuffer(lz_decompress(payload), dtype=dtype).reshape(shape).copy()
    else:
        from repro import decompress

        data = decompress(payload)
        if data.shape != shape:
            raise ValueError(f"variable {meta['name']!r}: shape mismatch after decode")
        data = data.astype(dtype, copy=False)
    return _variable(meta, data)


def write_rcdf(path, dataset: RcdfDataset) -> None:
    """Serialize a dataset to a file path.

    The write is durable and atomic (temp file + fsync + rename via
    :func:`repro.runtime.atomic_write`): a crash mid-write can no longer
    leave a truncated container that a later read misdiagnoses as
    transit corruption (``CorruptStreamError``).
    """
    from repro.runtime import atomic_write

    atomic_write(path, dataset.to_bytes())


def read_rcdf(path, *, salvage: bool = False) -> RcdfDataset:
    """Load a dataset from a file path (variables decode lazily).

    ``salvage=True`` tolerates corruption: damaged variables come back
    NaN-filled and the returned dataset's ``salvage_report`` lists them.
    """
    with open(path, "rb") as fh:
        return RcdfDataset.from_bytes(fh.read(), salvage=salvage)
