"""Quantization-bin classification (paper §VI-E).

Topography leaves per-location signatures in the quantization bins: at a
given (lat, lon) position the bins across heights/timesteps are *shifted*
(peak away from 0) or *dispersed* (no dominant bin). Mixing both patterns
into one Huffman tree wastes bits, so CliZ

1. **shifts** each location's bins so its modal bin becomes 0 (shifts are
   limited to ±j, j=1 — the paper found larger j unprofitable),
2. **classifies** locations into concentrated vs dispersed by whether the
   post-shift peak frequency exceeds λ = 0.4 (Theorem 2's optimum), and
3. encodes each class with its own Huffman tree
   (:mod:`repro.encoding.multihuffman`), storing a per-location map that
   costs about ``log2((2j+1)(k+1))`` bits per location.

Everything here operates on the engine's code stream (code 0 = the
unpredictable escape and is never shifted; a guard forces shift 0 at
locations where shifting would collide with the escape code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encoding.lz import lz_compress, lz_decompress
from repro.quantization.linear import UNPREDICTABLE

__all__ = ["BinClassification", "classify_bins", "undo_shift", "LAMBDA_DEFAULT"]

#: Theorem 2's optimal dispersion threshold.
LAMBDA_DEFAULT = 0.4


@dataclass
class BinClassification:
    """Per-horizontal-location shift and dispersion-group maps."""

    shift_map: np.ndarray  # int64 per location, in [-j, j]
    group_map: np.ndarray  # int64 per location, in [0, k]
    j: int
    k: int

    @property
    def n_groups(self) -> int:
        return self.k + 1

    def serialize(self) -> bytes:
        """Pack the per-location map at ~log2((2j+1)(k+1)) bits and LZ it.

        Values are radix-packed (as many per byte as fit) so the raw cost
        matches the paper's accounting even when the map is speckled, and
        spatially coherent maps compress further under LZ.
        """
        combined = (self.shift_map + self.j) * (self.k + 1) + self.group_map
        base = (2 * self.j + 1) * (self.k + 1)
        if base == 1:  # degenerate j=k=0 map carries no information
            payload = bytearray([self.j, self.k])
            payload += int(combined.size).to_bytes(4, "little")
            return lz_compress(bytes(payload))
        per_byte = 1
        while base ** (per_byte + 1) <= 256:
            per_byte += 1
        n = combined.size
        pad = (-n) % per_byte
        vals = np.concatenate([combined, np.zeros(pad, dtype=np.int64)])
        packed = np.zeros(vals.size // per_byte, dtype=np.int64)
        for i in range(per_byte):
            packed = packed * base + vals[i::per_byte]
        payload = bytearray([self.j, self.k])
        payload += n.to_bytes(4, "little")
        payload += packed.astype(np.uint8).tobytes()
        return lz_compress(bytes(payload))

    @classmethod
    def deserialize(cls, blob: bytes) -> "BinClassification":
        payload = lz_decompress(blob)
        j, k = payload[0], payload[1]
        n = int.from_bytes(payload[2:6], "little")
        base = (2 * j + 1) * (k + 1)
        if base == 1:
            zeros = np.zeros(n, dtype=np.int64)
            return cls(zeros, zeros.copy(), j, k)
        per_byte = 1
        while base ** (per_byte + 1) <= 256:
            per_byte += 1
        packed = np.frombuffer(payload[6:], dtype=np.uint8).astype(np.int64)
        vals = np.empty(packed.size * per_byte, dtype=np.int64)
        for i in range(per_byte - 1, -1, -1):
            vals[i::per_byte] = packed % base
            packed = packed // base
        combined = vals[:n]
        shift_map = combined // (k + 1) - j
        group_map = combined % (k + 1)
        return cls(shift_map, group_map, j, k)


def _location_mode_shift(codes: np.ndarray, hpos: np.ndarray, n_hpos: int,
                         radius: int, j: int) -> np.ndarray:
    """Per-location shift: the bin in [-j, j] with the highest frequency."""
    q = codes - radius
    sel = (codes != UNPREDICTABLE) & (np.abs(q) <= j)
    span = 2 * j + 1
    counts = np.zeros(n_hpos * span, dtype=np.int64)
    np.add.at(counts, hpos[sel] * span + (q[sel] + j), 1)
    counts = counts.reshape(n_hpos, span)
    shift = counts.argmax(axis=1) - j
    shift[counts.max(axis=1) == 0] = 0
    return shift.astype(np.int64)


def _collision_guard(codes: np.ndarray, hpos: np.ndarray, shift: np.ndarray,
                     radius: int) -> np.ndarray:
    """Zero out shifts that would map a real code onto the escape code 0 or
    push one past the top of the alphabet."""
    nonzero = codes != UNPREDICTABLE
    top = 2 * radius - 1
    out = shift.copy()
    for s in np.unique(shift):
        if s == 0:
            continue
        # After subtracting s, code must stay in [1, top].
        bad = nonzero & ((codes - s < 1) | (codes - s > top))
        if bad.any():
            bad_locs = np.unique(hpos[bad])
            mask = np.isin(bad_locs, np.flatnonzero(out == s))
            out[bad_locs[mask]] = 0
    return out


def _dispersion_groups(shifted: np.ndarray, hpos: np.ndarray, n_hpos: int,
                       radius: int, k: int, lam: float) -> np.ndarray:
    """Group locations by post-shift peak frequency f0 = freq(bin 0)."""
    if k == 0:
        return np.zeros(n_hpos, dtype=np.int64)
    nonzero = shifted != UNPREDICTABLE
    total = np.bincount(hpos[nonzero], minlength=n_hpos).astype(np.float64)
    at_peak = np.bincount(hpos[nonzero & (shifted == radius)], minlength=n_hpos).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        f0 = np.where(total > 0, at_peak / np.maximum(total, 1), 1.0)
    groups = np.zeros(n_hpos, dtype=np.int64)
    # k thresholds: lam, lam/2, lam/4, ... (k=1 is the paper's single-λ split)
    for level in range(1, k + 1):
        groups[f0 <= lam / (2 ** (level - 1))] = level
    return groups


def classify_bins(codes: np.ndarray, hpos: np.ndarray, n_hpos: int, radius: int,
                  j: int = 1, k: int = 1,
                  lam: float = LAMBDA_DEFAULT) -> tuple[BinClassification, np.ndarray, np.ndarray]:
    """Compute maps, shifted codes and per-entry groups for a code stream.

    Parameters
    ----------
    codes:
        Engine code stream (0 = unpredictable escape).
    hpos:
        Horizontal-location index of each stream entry (``[0, n_hpos)``).
    radius:
        Quantizer radius (code of bin 0 is ``radius``).
    j, k:
        Shift range and number of extra dispersion groups (paper: j=k=1).
    lam:
        Dispersion threshold (Theorem 2: 0.4).
    """
    codes = np.asarray(codes, dtype=np.int64)
    hpos = np.asarray(hpos, dtype=np.int64)
    if codes.shape != hpos.shape:
        raise ValueError("codes and hpos must align")
    if hpos.size and (hpos.min() < 0 or hpos.max() >= n_hpos):
        raise ValueError("hpos out of range")
    if j < 0 or k < 0:
        raise ValueError("j and k must be >= 0")
    shift = (
        _location_mode_shift(codes, hpos, n_hpos, radius, j)
        if j > 0 else np.zeros(n_hpos, dtype=np.int64)
    )
    if j > 0:
        shift = _collision_guard(codes, hpos, shift, radius)
    entry_shift = shift[hpos] if codes.size else np.zeros(0, dtype=np.int64)
    shifted = np.where(codes == UNPREDICTABLE, codes, codes - entry_shift)
    groups_map = _dispersion_groups(shifted, hpos, n_hpos, radius, k, lam)
    entry_groups = groups_map[hpos] if codes.size else np.zeros(0, dtype=np.int64)
    return BinClassification(shift, groups_map, j, k), shifted, entry_groups


def undo_shift(shifted: np.ndarray, hpos: np.ndarray, cls: BinClassification) -> np.ndarray:
    """Invert the shift applied by :func:`classify_bins`."""
    shifted = np.asarray(shifted, dtype=np.int64)
    entry_shift = cls.shift_map[hpos] if shifted.size else np.zeros(0, dtype=np.int64)
    return np.where(shifted == UNPREDICTABLE, shifted, shifted + entry_shift)

