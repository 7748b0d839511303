"""Sobel edge mask and connected-line counting ("busyness").

The busyness of a region is the number of 8-connected components of the
edge mask within it. The mask is computed once over the full image, so
region borders see true gradients; pixels outside the region are treated
as non-edge when counting.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .image import RoiRect, check_image

DEFAULT_EDGE_THRESHOLD = 96


def edge_mask(img: np.ndarray, threshold: int = DEFAULT_EDGE_THRESHOLD) -> np.ndarray:
    """Edge pixels of a uint8 image: L1 Sobel magnitude |Gx| + |Gy| >= threshold.

    The border ring has magnitude 0, so it is edge only at threshold 0.
    """
    check_image(img)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise ValueError(f"image smaller than 3x3: {img.shape[1]}x{img.shape[0]}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return kernels.sobel_l1(img) >= threshold


def count_connected_lines(mask: np.ndarray, rect: RoiRect) -> int:
    """8-connected component count of True pixels within rect."""
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise ValueError("mask must be a 2-D boolean array")
    if not rect.within(mask.shape):
        raise ValueError(f"rect {rect} out of bounds for mask {mask.shape}")
    return kernels.count_components(mask[rect.slices])
