import numpy as np

import oracles
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


def test_empty_and_full_masks():
    assert kernels.count_components(np.zeros((10, 10), dtype=bool)) == 0
    assert kernels.count_components(np.ones((10, 10), dtype=bool)) == 1
    assert kernels.count_components(np.ones((1, 1), dtype=bool)) == 1
