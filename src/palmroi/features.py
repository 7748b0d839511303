"""Sub-region texture features over an ROI.

The ROI is tiled by a fixed grid (2x2, 2x4 or 4x4 for vector sizes 4, 8,
16), each cell's busyness is counted, and the counts are normalized by the
maximum so vectors are comparable across images. Division remainders go to
the last row/column so the cells tile the rect exactly.
"""

from __future__ import annotations

import numpy as np

from . import edges
from .image import RoiRect, check_rect

# k -> (rows, cols)
GRID_SHAPES = {4: (2, 2), 8: (2, 4), 16: (4, 4)}


def grid_cuts(rect: RoiRect, k: int) -> tuple[list[int], list[int]]:
    """(row, column) cut lists of the k-cell grid tiling rect."""
    if k not in GRID_SHAPES:
        raise ValueError(f"k must be one of {sorted(GRID_SHAPES)}, got {k}")
    rows, cols = GRID_SHAPES[k]
    if rect.width < cols or rect.height < rows:
        raise ValueError(f"rect {rect.width}x{rect.height} smaller than {rows}x{cols} grid")

    def cuts(start, length, cells):
        return [start + i * (length // cells) for i in range(cells)] + [start + length]

    return cuts(rect.y0, rect.height, rows), cuts(rect.x0, rect.width, cols)


def features_from_mask(mask: np.ndarray, rect: RoiRect, k: int) -> np.ndarray:
    """Length-k feature vector of an edge mask over rect, cells row-major; values in [0, 1].

    The busiest cell maps to 1.0; an edge-free region maps to the zero
    vector. The mask covers the full image, so cell borders inside the ROI
    see true edges.
    """
    check_rect(mask, rect)
    raw = edges.count_connected_lines(mask, *grid_cuts(rect, k)).ravel().astype(np.float64)
    peak = raw.max()
    return raw / peak if peak > 0 else raw


def extract_features(img: np.ndarray, rect: RoiRect, k: int) -> np.ndarray:
    """Features of one image: ``features_from_mask`` of its edge mask."""
    return features_from_mask(edges.edge_mask(img), rect, k)

