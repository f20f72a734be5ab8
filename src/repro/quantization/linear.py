"""Fixed-bin-size linear-scale quantization with a hard error guarantee.

This is the SZ-family quantizer: prediction residuals are mapped to integer
bins of width ``2 * eb``; reconstruction adds the bin center back onto the
prediction, so every quantized point satisfies ``|x - x̂| <= eb`` exactly.
Residuals whose bin would overflow the radius — or whose floating-point
round-trip would violate the bound — escape to lossless storage
("unpredictable" values, code 0 in the stream).

Stream convention (shared by the interpolation engine and the encoders)::

    code = 0                      -> unpredictable, exact value stored aside
    code = q + radius, q != ±radius -> reconstructed as pred + 2*eb*q

so the code alphabet is ``[0, 2*radius)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearQuantizer", "DEFAULT_RADIUS", "UNPREDICTABLE"]

DEFAULT_RADIUS = 32768
UNPREDICTABLE = 0


class LinearQuantizer:
    """Vectorized error-bounded linear quantizer.

    Parameters
    ----------
    error_bound:
        Absolute pointwise error bound (> 0).
    radius:
        Half-width of the usable bin range. Codes live in ``[0, 2*radius)``.
    """

    def __init__(self, error_bound: float, radius: int = DEFAULT_RADIUS) -> None:
        if error_bound <= 0 or not np.isfinite(error_bound):
            raise ValueError(f"error_bound must be finite and positive, got {error_bound}")
        if radius < 2:
            raise ValueError("radius must be >= 2")
        self.error_bound = float(error_bound)
        self.radius = int(radius)
        self._bin_width = 2.0 * self.error_bound

    @property
    def alphabet_size(self) -> int:
        return 2 * self.radius

    # ------------------------------------------------------------------ #
    def quantize(self, values: np.ndarray, preds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantize ``values`` against ``preds``.

        Returns ``(codes, reconstructed)`` where ``codes`` is an int64 array
        (0 marks unpredictable points whose reconstruction equals the exact
        value) and ``reconstructed`` honours the error bound everywhere.
        """
        values = np.asarray(values, dtype=np.float64)
        preds = np.asarray(preds, dtype=np.float64)
        err = values - preds
        q = np.rint(err / self._bin_width)
        # Keep |q| strictly below radius so code = q + radius stays in range.
        in_range = np.abs(q) < self.radius
        q = np.where(in_range, q, 0.0)
        rec = preds + q * self._bin_width
        # Floating-point safety: verify the bound actually holds.
        ok = in_range & (np.abs(rec - values) <= self.error_bound) & np.isfinite(rec)
        codes = np.where(ok, q.astype(np.int64) + self.radius, UNPREDICTABLE)
        rec = np.where(ok, rec, values)
        return codes, rec

    def quantize_into(self, values: np.ndarray, preds: np.ndarray,
                      codes_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused variant of :meth:`quantize`: codes land in ``codes_out``.

        Bit-identical to :meth:`quantize` (same operations in the same
        order), but writes the int64 codes into the caller-provided
        ``codes_out`` (shaped like ``values``, typically a view into a
        preallocated stream) instead of allocating a fresh array, and
        returns ``(reconstructed, ok)`` where ``ok`` marks predictable
        points (``~ok`` selects the unpredictable values, in C order).
        ``values`` may be a strided view; it is never written to.
        """
        values = np.asarray(values, dtype=np.float64)
        q = values - preds
        np.divide(q, self._bin_width, out=q)
        np.rint(q, out=q)
        scratch = np.abs(q)
        ok = scratch < self.radius  # in-range lanes (False for NaN, as in quantize)
        np.logical_not(ok, out=ok)
        np.copyto(q, 0.0, where=ok)  # zero out-of-range / non-finite lanes
        np.logical_not(ok, out=ok)
        rec = np.multiply(q, self._bin_width, out=scratch)
        np.add(rec, preds, out=rec)
        err = np.subtract(rec, values)
        np.abs(err, out=err)
        bound_ok = err <= self.error_bound
        ok &= bound_ok
        np.isfinite(rec, out=bound_ok)
        ok &= bound_ok
        # q is integer-valued and |q| < radius, so q + radius is exact and
        # the int64 cast below truncates losslessly.
        np.add(q, float(self.radius), out=q)
        codes_out[...] = q
        np.logical_not(ok, out=bound_ok)
        np.copyto(codes_out, UNPREDICTABLE, where=bound_ok)
        np.copyto(rec, values, where=bound_ok)
        return rec, ok

    def dequantize(self, codes: np.ndarray, preds: np.ndarray,
                   unpredictable: np.ndarray) -> np.ndarray:
        """Reconstruct values from stream codes.

        ``unpredictable`` supplies exact values for code-0 entries, in C-order
        of their appearance within ``codes``.
        """
        codes = np.asarray(codes, dtype=np.int64)
        preds = np.asarray(preds, dtype=np.float64)
        rec = preds + (codes - self.radius) * self._bin_width
        unpred_mask = codes == UNPREDICTABLE
        n_unpred = int(unpred_mask.sum())
        if n_unpred:
            vals = np.asarray(unpredictable, dtype=np.float64)
            if vals.size < n_unpred:
                raise ValueError("not enough unpredictable values in stream")
            rec[unpred_mask] = vals[:n_unpred]
        return rec
