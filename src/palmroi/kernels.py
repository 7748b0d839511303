"""Hot numeric kernels: int16 separable Sobel L1 gradients and 8-connected component counts.

Both are plain numpy; components are labeled by ``scipy.ndimage.label``.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

_STRUCT_8 = np.ones((3, 3), dtype=bool)


def backend_name() -> str:
    return "numpy"


def sobel_l1(img: np.ndarray) -> np.ndarray:
    """L1 Sobel magnitude |Gx| + |Gy| of a uint8 image as int16, zero border ring (max 1530).

    Separable: a vertical [1, 2, 1] smooth and [-1, 0, 1] difference, then the
    horizontal difference of the smooth (Gx) and horizontal smooth of the
    difference (Gy). Each of |Gx|, |Gy| is at most 1020, so int16 cannot overflow.
    """
    a = img.astype(np.int16)
    smooth = a[:-2] + 2 * a[1:-1] + a[2:]
    diff = a[2:] - a[:-2]
    gx = smooth[:, 2:] - smooth[:, :-2]
    gy = diff[:, :-2] + 2 * diff[:, 1:-1] + diff[:, 2:]
    out = np.zeros(a.shape, dtype=np.int16)
    np.add(np.abs(gx, out=gx), np.abs(gy, out=gy), out=out[1:-1, 1:-1])
    return out


def count_components(mask: np.ndarray) -> int:
    """Number of 8-connected components of True pixels in a boolean mask."""
    mask = np.ascontiguousarray(mask)
    if not mask.any():
        return 0
    _, n = ndimage.label(mask, structure=_STRUCT_8)
    return int(n)
