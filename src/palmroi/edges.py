"""Sobel edge mask and connected-line counting ("busyness").

The busyness of a region is the number of 8-connected components of the
edge mask within it. The mask is computed once over the full image, so
region borders see true gradients; pixels outside the region are treated
as non-edge when counting. Regions are the tiles between consecutive row
and column cuts: the strips of the ROI search, the cells of a feature grid.
A mask that must wait for the corpus-wide ROI is kept bit-packed, one bit
per pixel.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from . import kernels
from .image import check_image

# The pipeline's only threshold: no DB or rect file records one, so probes binarize as their gallery did.
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


def pack_mask(mask: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """(bits, shape) of a 2-D boolean mask: 1/8 of a byte per pixel; ``unpack_mask`` inverts it."""
    return np.packbits(mask, axis=None), mask.shape


def unpack_mask(packed: tuple[np.ndarray, tuple[int, int]]) -> np.ndarray:
    """The C-contiguous 2-D boolean mask that ``pack_mask`` packed."""
    bits, (h, w) = packed
    return np.unpackbits(bits, count=h * w).view(np.bool_).reshape(h, w)


def count_connected_lines(mask: np.ndarray, row_cuts, col_cuts) -> np.ndarray:
    """8-connected component count of each tile mask[r0:r1, c0:c1] between consecutive cuts.

    Returns int64 of shape (len(row_cuts) - 1, len(col_cuts) - 1); a repeated cut is an empty tile.
    """
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise ValueError("mask must be a 2-D boolean array")
    for axis, cuts, extent in (("row", row_cuts, mask.shape[0]), ("column", col_cuts, mask.shape[1])):
        if len(cuts) < 2 or cuts[0] < 0 or cuts[-1] > extent or any(a > b for a, b in pairwise(cuts)):
            raise ValueError(f"{axis} cuts {list(cuts)} are not 2 or more non-decreasing values in 0..{extent}")
    tiles = [mask[r0:r1, c0:c1] for r0, r1 in pairwise(row_cuts) for c0, c1 in pairwise(col_cuts)]
    counts = np.array([kernels.count_components(tile) for tile in tiles], dtype=np.int64)
    return counts.reshape(len(row_cuts) - 1, len(col_cuts) - 1)
