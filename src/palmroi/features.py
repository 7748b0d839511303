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


def subregion_grid(rect: RoiRect, k: int) -> list[RoiRect]:
    """The k grid cells tiling rect, row-major."""
    if k not in GRID_SHAPES:
        raise ValueError(f"k must be one of {sorted(GRID_SHAPES)}, got {k}")
    rows, cols = GRID_SHAPES[k]
    if rect.width < cols or rect.height < rows:
        raise ValueError(f"rect {rect.width}x{rect.height} smaller than {rows}x{cols} grid")
    cell_w, cell_h = rect.width // cols, rect.height // rows
    cells = []
    for r in range(rows):
        y = rect.y0 + r * cell_h
        h = cell_h if r < rows - 1 else rect.height - (rows - 1) * cell_h
        for c in range(cols):
            x = rect.x0 + c * cell_w
            w = cell_w if c < cols - 1 else rect.width - (cols - 1) * cell_w
            cells.append(RoiRect(x, y, w, h))
    return cells


def features_from_mask(mask: np.ndarray, rect: RoiRect, k: int) -> np.ndarray:
    """Length-k feature vector of an edge mask over rect; values in [0, 1].

    The busiest cell maps to 1.0; an edge-free region maps to the zero
    vector. The mask covers the full image, so cell borders inside the ROI
    see true edges.
    """
    check_rect(mask, rect)
    raw = np.array(
        [edges.count_connected_lines(mask, cell) for cell in subregion_grid(rect, k)],
        dtype=np.float64,
    )
    peak = raw.max()
    return raw / peak if peak > 0 else raw


def extract_features(
    img: np.ndarray,
    rect: RoiRect,
    k: int,
    edge_threshold: int = edges.DEFAULT_EDGE_THRESHOLD,
) -> np.ndarray:
    """Features of one image: ``features_from_mask`` of its edge mask."""
    return features_from_mask(edges.edge_mask(img, edge_threshold), rect, k)


def format_features(values: np.ndarray) -> str:
    """Comma-separated decimals with 6 fractional digits."""
    return ",".join(f"{v:.6f}" for v in values)


def parse_features(text: str) -> np.ndarray:
    try:
        values = np.array([float(part) for part in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"malformed feature vector: {text!r}") from None
    if values.size == 0:
        raise ValueError("empty feature vector")
    return values
