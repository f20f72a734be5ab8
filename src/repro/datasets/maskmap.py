"""Mask-map region labeling (the paper's Fig. 3(b)).

CESM mask maps carry more than validity: 0 marks invalid (non-water)
points, *positive* integers label the parts of the connected world ocean,
and *negative* integers label inland water bodies (lakes/seas enclosed by
land). This module derives exactly that categorization from a boolean
validity mask via connected-component analysis, so the synthetic datasets
expose the same mask-map structure the paper describes.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = ["label_mask_regions", "region_summary"]

#: Enclosed components at least this fraction of all valid points are ocean.
_MIN_OCEAN_FRACTION = 0.25


def label_mask_regions(valid: np.ndarray) -> np.ndarray:
    """Label a 2D validity mask CESM-style.

    Parameters
    ----------
    valid:
        2D boolean array, True = water (valid for an ocean model).

    Components at least ``_MIN_OCEAN_FRACTION`` of all valid points — or
    touching the domain boundary (the map edge wraps the world ocean) —
    are "ocean parts" (positive labels); smaller enclosed components are
    inland water (negative labels).

    Returns an int16 map: 0 invalid, 1..k ocean parts, -1..-m inland water.
    """
    valid = np.asarray(valid)
    if valid.ndim != 2:
        raise ValueError("mask maps are 2D (lat, lon)")
    valid = valid.astype(bool)
    labels, n = ndimage.label(valid)
    out = np.zeros(valid.shape, dtype=np.int16)
    if n == 0:
        return out
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=np.arange(1, n + 1))
    total_valid = float(valid.sum())
    touches_edge = np.zeros(n, dtype=bool)
    for border in (labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        present = np.unique(border)
        present = present[present > 0]
        touches_edge[present - 1] = True
    next_pos, next_neg = 1, -1
    for comp in range(1, n + 1):
        is_ocean = touches_edge[comp - 1] or sizes[comp - 1] >= _MIN_OCEAN_FRACTION * total_valid
        if is_ocean:
            out[labels == comp] = next_pos
            next_pos += 1
        else:
            out[labels == comp] = next_neg
            next_neg -= 1
    return out


def region_summary(region_map: np.ndarray) -> dict:
    """Category counts for a labeled mask map (the paper's three classes)."""
    region_map = np.asarray(region_map)
    return {
        "invalid_points": int((region_map == 0).sum()),
        "ocean_parts": int(region_map.max()) if (region_map > 0).any() else 0,
        "inland_bodies": int(-region_map.min()) if (region_map < 0).any() else 0,
        "ocean_points": int((region_map > 0).sum()),
        "inland_points": int((region_map < 0).sum()),
    }
