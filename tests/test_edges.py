import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi.edges import count_connected_lines, edge_mask
from palmroi.image import RoiRect, full_rect


class TestSobel:
    def test_constant_image_zero_field(self):
        img = np.full((10, 12), 57, dtype=np.uint8)
        assert edge_mask(img, 0).all()
        assert not edge_mask(img, 1).any()

    def test_vertical_step_magnitude(self):
        # columns 0..4 are 0, columns 5.. are 255: magnitude 4*255 on columns 4 and 5
        img = np.zeros((9, 11), dtype=np.uint8)
        img[:, 5:] = 255
        step = np.zeros(img.shape, dtype=bool)
        step[1:-1, 4:6] = True
        assert (edge_mask(img, 1) == step).all()
        assert (edge_mask(img, 4 * 255) == step).all()
        assert not edge_mask(img, 4 * 255 + 1).any()

    def test_transpose_swaps_gradient_roles(self):
        rng = np.random.default_rng(21)
        img = rng.integers(0, 256, (15, 23)).astype(np.uint8)
        for threshold in (1, 96, 500, 1200):
            assert (edge_mask(img.T.copy(), threshold) == edge_mask(img, threshold).T).all()

    def test_matches_reference_on_randoms(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            img = rng.integers(0, 256, (rng.integers(3, 30), rng.integers(3, 30))).astype(np.uint8)
            grad = oracles.sobel_l1_reference(img)
            for threshold in (0, 1, 96, 2040, 2041, int(rng.integers(0, 2042))):
                assert (edge_mask(img, threshold) == (grad >= threshold)).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1))
    def test_int16_headroom_on_extreme_images(self, h, w, seed):
        # pixels only 0 or 255 give the largest gradients |Gx| + |Gy| can reach
        img = np.random.default_rng(seed).choice(np.array([0, 255], dtype=np.uint8), (h, w))
        grad = oracles.sobel_l1_reference(img)
        for threshold in (0, 1, 1020, 1529, 1530, 1531, 2041):
            assert (edge_mask(img, threshold) == (grad >= threshold)).all()

    def test_too_small(self):
        with pytest.raises(ValueError, match="3x3"):
            edge_mask(np.zeros((2, 5), dtype=np.uint8))


class TestBinarize:
    def test_threshold_zero_all_true(self):
        rng = np.random.default_rng(20)
        img = rng.integers(0, 256, (7, 9)).astype(np.uint8)
        assert edge_mask(img, 0).all()  # the border ring too: magnitude 0 >= 0

    def test_above_max_all_false(self):
        img = np.zeros((9, 9), dtype=np.uint8)
        img[4:, 4:] = 255  # a corner step: the largest |Gx| + |Gy| is 1530, below 4 * 255 + 4 * 255
        assert edge_mask(img, 1530).any()
        assert not edge_mask(img, 1531).any()

    def test_constant_image_any_positive_threshold(self):
        img = np.full((8, 8), 200, dtype=np.uint8)
        assert not edge_mask(img, 1).any()

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(23)
        img = rng.integers(0, 256, (20, 20)).astype(np.uint8)
        lo, hi = edge_mask(img, 100), edge_mask(img, 300)
        assert (hi <= lo).all()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            edge_mask(np.zeros((3, 3), dtype=np.uint8), -1)


class TestCountConnectedLines:
    def test_empty_region(self):
        mask = np.zeros((10, 10), dtype=bool)
        assert count_connected_lines(mask, RoiRect(0, 0, 10, 10)) == 0

    def test_diagonal_pixels_join(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        assert count_connected_lines(mask, RoiRect(0, 0, 5, 5)) == 1

    def test_rect_masks_out_outside_pixels(self):
        # one component spanning the rect border splits when clipped
        mask = np.zeros((6, 6), dtype=bool)
        mask[2, :] = True
        inner = count_connected_lines(mask, RoiRect(1, 0, 2, 6))
        assert inner == 1
        assert count_connected_lines(mask, RoiRect(0, 0, 6, 6)) == 1

    def test_rect_out_of_bounds(self):
        mask = np.zeros((6, 6), dtype=bool)
        with pytest.raises(ValueError, match="out of bounds"):
            count_connected_lines(mask, RoiRect(3, 3, 5, 5))

    def test_random_masks_match_flood_fill(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            mask = rng.random((32, 32)) < rng.uniform(0.1, 0.5)
            assert count_connected_lines(mask, RoiRect(0, 0, 32, 32)) == oracles.flood_fill_count(mask)

    def test_split_rects_never_merge(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            mask = rng.random((24, 30)) < 0.35
            whole = RoiRect(0, 0, 30, 24)
            left = RoiRect(0, 0, 14, 24)
            right = RoiRect(14, 0, 16, 24)
            total = count_connected_lines(mask, whole)
            parts = count_connected_lines(mask, left) + count_connected_lines(mask, right)
            assert parts >= total


class TestBusyness:
    """Connected-line counts of an image's edge mask within a rect."""

    def test_constant_image_any_rect(self):
        img = np.full((20, 20), 90, dtype=np.uint8)
        assert count_connected_lines(edge_mask(img, 96), RoiRect(3, 3, 10, 10)) == 0

    def test_line_crossing_two_strips(self):
        img = np.full((20, 40), 200, dtype=np.uint8)
        img[9:11, 5:35] = 30  # dark horizontal bar across both halves
        mask = edge_mask(img, 96)
        left, right = RoiRect(0, 0, 20, 20), RoiRect(20, 0, 20, 20)
        assert count_connected_lines(mask, left) >= 1
        assert count_connected_lines(mask, right) >= 1

    def test_composition_matches_oracle_pipeline(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            img = rng.integers(0, 256, (18, 22)).astype(np.uint8)
            threshold = int(rng.integers(50, 400))
            grad = oracles.sobel_l1_reference(img)
            expected = oracles.flood_fill_count(grad >= threshold)
            assert count_connected_lines(edge_mask(img, threshold), full_rect(img)) == expected
