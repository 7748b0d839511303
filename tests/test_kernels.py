import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import oracles
import palmroi
from palmroi import kernels


def random_mask(rng, shape=None, density=None):
    if shape is None:
        shape = (int(rng.integers(1, 48)), int(rng.integers(1, 48)))
    if density is None:
        density = float(rng.uniform(0.05, 0.6))
    return rng.random(shape) < density


def test_active_backend_matches_flood_fill():
    rng = np.random.default_rng(11)
    for _ in range(200):
        mask = random_mask(rng)
        assert kernels.count_components(mask) == oracles.flood_fill_count(mask)


def test_sobel_backends_match_reference():
    rng = np.random.default_rng(13)
    for _ in range(20):
        img = rng.integers(0, 256, (rng.integers(3, 30), rng.integers(3, 30))).astype(np.uint8)
        assert (kernels.sobel_l1(img) == oracles.sobel_l1_reference(img)).all()


def test_sobel_peaks_at_1530_on_binary_windows():
    # |Gx| + |Gy| is convex in the pixels, so its maximum over uint8 images is at
    # a 0/255 window; all 512 of them reach 1530 and never more
    peaks = []
    for bits in range(512):
        window = np.array([255 * ((bits >> i) & 1) for i in range(9)], dtype=np.uint8).reshape(3, 3)
        out = kernels.sobel_l1(window)
        assert out[1, 1] == oracles.sobel_l1_reference(window)[1, 1]
        peaks.append(int(out[1, 1]))
    assert max(peaks) == 1530


def test_count_accepts_strided_views():
    rng = np.random.default_rng(14)
    big = rng.random((40, 40)) < 0.3
    view = big[5:25, 7:31]
    assert kernels.count_components(view) == oracles.flood_fill_count(view)


@pytest.mark.parametrize(
    "mask, count",
    [
        (np.zeros((10, 10), dtype=bool), 0),
        (np.ones((10, 10), dtype=bool), 1),
        (np.ones((1, 1), dtype=bool), 1),
        (np.zeros((0, 4), dtype=bool), 0),
    ],
)
def test_empty_and_full_masks(mask, count):
    assert kernels.count_components(mask) == count


@pytest.mark.parametrize("shape", [(), (6,), (3, 4, 5)])
def test_masks_that_are_not_2d_are_rejected(shape):
    with pytest.raises(ValueError, match="2-D"):
        kernels.count_components(np.ones(shape, dtype=bool))


def test_cli_import_leaves_scipy_ndimage_unloaded_and_a_later_import_agrees():
    code = """
import sys
import numpy as np
import palmroi.cli
from palmroi import kernels
assert "scipy.ndimage" not in sys.modules
mask = np.random.default_rng(5).random((60, 70)) < 0.3
n = kernels.count_components(mask)
from scipy import ndimage
assert ndimage.label(mask, structure=np.ones((3, 3)))[1] == n
print(n)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(palmroi.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 1


def test_missing_labeler_extension_names_the_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(f"scipy {scipy.__version__}: no _ni_label extension in {tmp_path / 'ndimage'}")):
        kernels._load_label()
