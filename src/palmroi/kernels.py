"""Hot numeric kernels: Sobel L1 gradients and 8-connected component counts.

Both are plain numpy; components are labeled by ``scipy.ndimage.label``.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

_STRUCT_8 = np.ones((3, 3), dtype=bool)


def backend_name() -> str:
    return "numpy"


def sobel_l1(img: np.ndarray) -> np.ndarray:
    """L1 Sobel magnitude of an int32 image, zero border ring (max 1530 for uint8 input)."""
    a = img
    out = np.zeros(a.shape, dtype=np.int32)
    gx = (a[:-2, 2:] + 2 * a[1:-1, 2:] + a[2:, 2:]) - (
        a[:-2, :-2] + 2 * a[1:-1, :-2] + a[2:, :-2]
    )
    gy = (a[2:, :-2] + 2 * a[2:, 1:-1] + a[2:, 2:]) - (
        a[:-2, :-2] + 2 * a[:-2, 1:-1] + a[:-2, 2:]
    )
    out[1:-1, 1:-1] = np.abs(gx) + np.abs(gy)
    return out


def count_components(mask: np.ndarray) -> int:
    """Number of 8-connected components of True pixels in a boolean mask."""
    mask = np.ascontiguousarray(mask)
    if not mask.any():
        return 0
    _, n = ndimage.label(mask, structure=_STRUCT_8)
    return int(n)
