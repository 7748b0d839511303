"""Hot numeric kernels: int16 separable Sobel L1 gradients and 8-connected component counts.

Sobel is plain numpy. Components are labeled by scipy's compiled labeler
``scipy/ndimage/_ni_label``, the C routine behind ``scipy.ndimage.label``,
loaded straight from its extension file. Importing the ``scipy.ndimage``
package would also load its array-API shims, ``scipy.special`` and every
filter module, more than half of a CLI process's start-up, for the one
function used here. The code relies on the private entry point
``_ni_label._label(input, structure, output)``: it writes int32 labels into
``output`` and returns the max label, which is the component count.
"""

from __future__ import annotations

from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np
import scipy

_STRUCT_8 = np.ones((3, 3), dtype=bool)


def _load_label():
    """``_label`` of scipy's ``ndimage/_ni_label`` extension, loaded without registering it in ``sys.modules``."""
    directory = Path(scipy.__path__[0]) / "ndimage"
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"_ni_label{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader("scipy.ndimage._ni_label", str(path))
            module = module_from_spec(spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module._label
    raise ImportError(f"scipy {scipy.__version__}: no _ni_label extension in {directory}")


_label = _load_label()


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
    """Number of 8-connected components of True pixels in a 2-D boolean mask."""
    if np.ndim(mask) != 2:  # the raw labeler checks the rank only with an assert
        raise ValueError(f"mask must be 2-D, got {np.ndim(mask)}-D")
    mask = np.ascontiguousarray(mask)
    if not mask.any():
        return 0
    return int(_label(mask, _STRUCT_8, np.empty(mask.shape, np.int32)))
