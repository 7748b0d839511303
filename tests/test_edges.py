import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi.edges import count_connected_lines, edge_mask, pack_mask, unpack_mask
from palmroi.features import GRID_SHAPES, features_from_mask
from palmroi.image import full_rect


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


@st.composite
def cut_lists(draw, extent):
    """2 to 6 non-decreasing cuts in 0..extent; gaps of 0 (empty tiles) and 1 (one-pixel tiles) are common."""
    cuts = [draw(st.integers(0, extent))]
    for _ in range(draw(st.integers(1, 5))):
        gap = draw(st.sampled_from([0, 1]) | st.integers(0, extent))
        cuts.append(min(cuts[-1] + gap, extent))
    return cuts


class TestCountConnectedLines:
    def test_empty_region(self):
        mask = np.zeros((10, 10), dtype=bool)
        counts = count_connected_lines(mask, (0, 10), (0, 10))
        assert counts.dtype == np.int64 and counts.tolist() == [[0]]

    def test_diagonal_pixels_join(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        assert count_connected_lines(mask, (0, 5), (0, 5)).tolist() == [[1]]

    def test_rect_masks_out_outside_pixels(self):
        # one component spanning the tile border splits when clipped
        mask = np.zeros((6, 6), dtype=bool)
        mask[2, :] = True
        assert count_connected_lines(mask, (0, 6), (1, 3)).tolist() == [[1]]
        assert count_connected_lines(mask, (0, 6), (0, 6)).tolist() == [[1]]

    def test_rect_out_of_bounds(self):
        mask = np.zeros((6, 6), dtype=bool)
        with pytest.raises(ValueError, match=r"row cuts \[3, 8\] are not .* in 0\.\.6"):
            count_connected_lines(mask, (3, 8), (3, 6))

    @pytest.mark.parametrize(
        "row_cuts, col_cuts, axis",
        [
            ((0, 4, 2), (0, 6), "row"),  # decreasing
            ((0, 6), (3, 3, 2), "column"),  # decreasing after a repeat
            ((-1, 6), (0, 6), "row"),  # before 0
            ((0, 6), (0, 7), "column"),  # past the extent
            ((0, 6), (6,), "column"),  # no tile
            ((), (0, 6), "row"),
        ],
    )
    def test_bad_cuts_rejected(self, row_cuts, col_cuts, axis):
        with pytest.raises(ValueError, match=f"{axis} cuts"):
            count_connected_lines(np.zeros((6, 6), dtype=bool), row_cuts, col_cuts)

    def test_non_boolean_mask_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            count_connected_lines(np.zeros((6, 6), dtype=np.uint8), (0, 6), (0, 6))

    def test_random_masks_match_flood_fill(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            mask = rng.random((32, 32)) < rng.uniform(0.1, 0.5)
            assert count_connected_lines(mask, (0, 32), (0, 32))[0, 0] == oracles.flood_fill_count(mask)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_each_tile_matches_flood_fill(self, data, h, w, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.6)
        row_cuts, col_cuts = data.draw(cut_lists(h)), data.draw(cut_lists(w))
        counts = count_connected_lines(mask, row_cuts, col_cuts)
        assert counts.shape == (len(row_cuts) - 1, len(col_cuts) - 1)
        for i in range(len(row_cuts) - 1):
            for j in range(len(col_cuts) - 1):
                tile = mask[row_cuts[i] : row_cuts[i + 1], col_cuts[j] : col_cuts[j + 1]]
                assert counts[i, j] == oracles.flood_fill_count(tile)

    def test_split_rects_never_merge(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            mask = rng.random((24, 30)) < 0.35
            total = count_connected_lines(mask, (0, 24), (0, 30))[0, 0]
            parts = count_connected_lines(mask, (0, 24), (0, 14, 30))
            assert parts.sum() >= total


class TestBusyness:
    """Connected-line counts of an image's edge mask within a tiling."""

    def test_constant_image_any_rect(self):
        img = np.full((20, 20), 90, dtype=np.uint8)
        assert count_connected_lines(edge_mask(img, 96), (3, 13), (3, 13)).tolist() == [[0]]

    def test_line_crossing_two_strips(self):
        img = np.full((20, 40), 200, dtype=np.uint8)
        img[9:11, 5:35] = 30  # dark horizontal bar across both halves
        counts = count_connected_lines(edge_mask(img, 96), (0, 20), (0, 20, 40))
        assert (counts >= 1).all()

    def test_composition_matches_oracle_pipeline(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            img = rng.integers(0, 256, (18, 22)).astype(np.uint8)
            threshold = int(rng.integers(50, 400))
            grad = oracles.sobel_l1_reference(img)
            expected = oracles.flood_fill_count(grad >= threshold)
            assert count_connected_lines(edge_mask(img, threshold), (0, 18), (0, 22)).tolist() == [[expected]]


class TestPackedMask:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1))
    def test_round_trip_is_bit_exact(self, h, w, seed):
        # most h*w here are not a multiple of 8, so the last byte is partly padding
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < rng.uniform(0.0, 1.0)
        back = unpack_mask(pack_mask(mask))
        assert back.dtype == np.bool_ and back.shape == (h, w) and back.flags.c_contiguous
        assert (back == mask).all()
        rect = full_rect(mask)
        for k, (rows, cols) in GRID_SHAPES.items():
            if h >= rows and w >= cols:
                assert (features_from_mask(back, rect, k) == features_from_mask(mask, rect, k)).all()
