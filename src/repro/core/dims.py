"""Dimension permutation and fusion (paper §VI-C).

The interpolation predictor makes ~``2^{i-1}/(2^n - 1)`` of its predictions
along the *i*-th processed dimension, so processing the smoothest dimension
last concentrates predictions where they are most accurate. CliZ explores:

* **Permutation** — physically transpose the array so the prediction
  traversal (which always walks axes in natural order) sees the dimensions
  in the chosen sequence. The paper writes these as digit strings
  (``"201"`` = axes (2, 0, 1) of the original array).
* **Fusion** — merge runs of adjacent (post-permutation) axes with a
  reshape. A fused dimension makes every prediction along it a long-distance
  one, which removes low-quality short-distance predictions along rough
  axes. Written ``"0&1"`` etc., indexing post-permutation positions.

A layout is the pair ``(perm, fusion_sizes)`` where ``fusion_sizes`` are the
ordered group lengths (e.g. 3D: ``(1, 1, 1)`` no fusion, ``(2, 1)`` fuse
0&1, ``(1, 2)`` fuse 1&2, ``(3,)`` fuse all). For 3D data this yields the
paper's 6 x 4 = 24 layout candidates.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

__all__ = [
    "Layout",
    "apply_layout",
    "undo_layout",
    "enumerate_layouts",
    "enumerate_fusions",
    "layout_name",
]


class Layout:
    """A (permutation, fusion) pair describing the prediction layout."""

    def __init__(self, perm: tuple[int, ...], fusion: tuple[int, ...]) -> None:
        perm = tuple(int(p) for p in perm)
        fusion = tuple(int(f) for f in fusion)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"perm {perm} is not a permutation")
        if sum(fusion) != len(perm) or any(f < 1 for f in fusion):
            raise ValueError(f"fusion {fusion} does not partition {len(perm)} axes")
        self.perm = perm
        self.fusion = fusion

    @property
    def ndim_in(self) -> int:
        return len(self.perm)

    def __eq__(self, other) -> bool:
        return isinstance(other, Layout) and (self.perm, self.fusion) == (other.perm, other.fusion)

    def __hash__(self) -> int:
        return hash((self.perm, self.fusion))

    def __repr__(self) -> str:
        return f"Layout(perm={self.perm}, fusion={self.fusion})"

    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, ndim: int) -> "Layout":
        return cls(tuple(range(ndim)), (1,) * ndim)

    def to_dict(self) -> dict:
        return {"perm": list(self.perm), "fusion": list(self.fusion)}

    @classmethod
    def from_dict(cls, d: dict) -> "Layout":
        return cls(tuple(d["perm"]), tuple(d["fusion"]))

    def fused_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        permuted = [shape[p] for p in self.perm]
        out = []
        pos = 0
        for size in self.fusion:
            block = permuted[pos : pos + size]
            out.append(int(np.prod(block)))
            pos += size
        return tuple(out)


def apply_layout(data: np.ndarray, layout: Layout) -> np.ndarray:
    """Transpose + reshape ``data`` into its prediction layout (C-contiguous)."""
    if data.ndim != layout.ndim_in:
        raise ValueError(f"layout expects {layout.ndim_in}D data, got {data.ndim}D")
    moved = np.ascontiguousarray(np.transpose(data, layout.perm))
    return moved.reshape(layout.fused_shape(data.shape))


def undo_layout(arr: np.ndarray, orig_shape: tuple[int, ...], layout: Layout) -> np.ndarray:
    """Invert :func:`apply_layout` back to the original axis order."""
    permuted_shape = tuple(orig_shape[p] for p in layout.perm)
    unfused = arr.reshape(permuted_shape)
    inverse = np.argsort(layout.perm)
    return np.ascontiguousarray(np.transpose(unfused, inverse))


def enumerate_fusions(ndim: int) -> list[tuple[int, ...]]:
    """All ordered partitions of ``ndim`` axes into contiguous fused groups."""
    if ndim == 1:
        return [(1,)]
    out = []
    for first in range(1, ndim + 1):
        if first == ndim:
            out.append((ndim,))
        else:
            for rest in enumerate_fusions(ndim - first):
                out.append((first,) + rest)
    return out


def enumerate_layouts(ndim: int, *, max_layouts: int | None = None) -> list[Layout]:
    """All (perm, fusion) candidates; 3D gives the paper's 24."""
    layouts = [
        Layout(perm, fusion)
        for perm in permutations(range(ndim))
        for fusion in enumerate_fusions(ndim)
    ]
    if max_layouts is not None:
        layouts = layouts[:max_layouts]
    return layouts


def layout_name(layout: Layout) -> str:
    """Paper-style name, e.g. ``'201 fuse 1&2'`` or ``'012'``."""
    seq = "".join(str(p) for p in layout.perm)
    if all(f == 1 for f in layout.fusion):
        return seq
    groups = []
    pos = 0
    for size in layout.fusion:
        if size > 1:
            groups.append("&".join(str(i) for i in range(pos, pos + size)))
        pos += size
    return f"{seq} fuse {','.join(groups)}"
