import numpy as np
import pytest

import oracles
from palmroi.edges import count_connected_lines, edge_mask
from palmroi.features import (
    extract_features,
    features_from_mask,
    subregion_grid,
)
from palmroi.image import RoiRect


class TestSubregionGrid:
    def test_k4_quadrants(self):
        cells = subregion_grid(RoiRect(0, 0, 200, 200), 4)
        assert [(c.x0, c.y0, c.width, c.height) for c in cells] == [
            (0, 0, 100, 100),
            (100, 0, 100, 100),
            (0, 100, 100, 100),
            (100, 100, 100, 100),
        ]

    def test_k16_remainder_goes_last(self):
        cells = subregion_grid(RoiRect(0, 0, 250, 200), 16)
        widths = [c.width for c in cells[:4]]
        heights = [cells[i * 4].height for i in range(4)]
        assert widths == [62, 62, 62, 64]
        assert heights == [50, 50, 50, 50]

    def test_k8_is_two_by_four(self):
        cells = subregion_grid(RoiRect(10, 20, 80, 40), 8)
        assert len(cells) == 8
        assert cells[0].height == 20 and cells[0].width == 20
        assert cells[4].y0 == 40  # second row

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_cells_tile_rect_exactly(self, k):
        rect = RoiRect(7, 3, 101, 59)
        cells = subregion_grid(rect, k)
        cover = np.zeros((rect.y1 + 1, rect.x1 + 1), dtype=int)
        for c in cells:
            cover[c.y0 : c.y1, c.x0 : c.x1] += 1
        assert (cover[rect.y0 : rect.y1, rect.x0 : rect.x1] == 1).all()
        cover[rect.y0 : rect.y1, rect.x0 : rect.x1] = 0
        assert (cover == 0).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            subregion_grid(RoiRect(0, 0, 100, 100), 5)

    def test_rect_too_small(self):
        with pytest.raises(ValueError, match="smaller"):
            subregion_grid(RoiRect(0, 0, 3, 3), 16)


def spiky_image(shape, positions, base=128, delta=100):
    img = np.full(shape, base, dtype=np.uint8)
    for y, x in positions:
        img[y, x] = base + delta
    return img


class TestExtractFeatures:
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_constant_image_zero_vector(self, k):
        img = np.full((60, 80), 140, dtype=np.uint8)
        values = extract_features(img, RoiRect(0, 0, 80, 60), k)
        assert values.shape == (k,)
        assert (values == 0).all()

    def test_single_busy_quadrant(self):
        # spikes only in the top-left quadrant, well inside it
        img = spiky_image((64, 64), [(8, 8), (8, 20), (20, 8), (24, 24)])
        rect = RoiRect(0, 0, 64, 64)
        values = extract_features(img, rect, 4, edge_threshold=96)
        assert values[0] == 1.0
        assert (values[1:] < 1.0).all()
        # cross-check every cell against the busyness oracle pipeline
        mask = oracles.sobel_l1_reference(img) >= 96
        raw = [oracles.flood_fill_count(mask[c.slices]) for c in subregion_grid(rect, 4)]
        assert values.tolist() == [r / max(raw) for r in raw]

    def test_invariant_under_mask_preserving_relabel(self):
        img = spiky_image((48, 48), [(10, 10), (30, 35)], base=100, delta=120)
        rect = RoiRect(0, 0, 48, 48)
        baseline = extract_features(img, rect, 4, edge_threshold=96)
        # different gray levels, same binarized edge mask
        brighter = spiky_image((48, 48), [(10, 10), (30, 35)], base=60, delta=150)
        assert (extract_features(brighter, rect, 4, edge_threshold=96) == baseline).all()

    def test_quadrant_swap_permutes_vector(self):
        rect = RoiRect(0, 0, 64, 64)
        a = spiky_image((64, 64), [(10, 12), (20, 8)])
        # same content moved to the bottom-right quadrant (offset +32, +32)
        b = spiky_image((64, 64), [(42, 44), (52, 40)])
        fa = extract_features(a, rect, 4, edge_threshold=96)
        fb = extract_features(b, rect, 4, edge_threshold=96)
        assert fa[0] == fb[3]
        assert fa[3] == fb[0]
        assert fa[1] == fb[1] and fa[2] == fb[2]

    def test_values_in_unit_interval_with_unit_max(self):
        rng = np.random.default_rng(41)
        img = rng.integers(0, 256, (70, 90)).astype(np.uint8)
        for k in (4, 8, 16):
            values = extract_features(img, RoiRect(5, 5, 80, 60), k)
            assert (values >= 0).all() and (values <= 1).all()
            assert values.max() == 1.0

    def test_k16_cells_aggregate_to_at_least_quadrant_counts(self):
        rng = np.random.default_rng(42)
        mask = edge_mask(rng.integers(0, 256, (80, 80)).astype(np.uint8), 96)
        rect = RoiRect(0, 0, 80, 80)
        quadrants = subregion_grid(rect, 4)
        cells = subregion_grid(rect, 16)
        for qi, quad in enumerate(quadrants):
            sub = [c for c in cells if oracles.rect_contains(quad, c)]
            assert len(sub) == 4
            cell_sum = sum(count_connected_lines(mask, c) for c in sub)
            assert cell_sum >= count_connected_lines(mask, quad)

    def test_features_from_mask_checks_the_whole_rect_first(self):
        # the first 2x2 cell (40, 0, 30, 30) fits the 80x60 mask; the rect does not
        mask = np.zeros((60, 80), dtype=bool)
        with pytest.raises(ValueError, match=r"rect RoiRect\(x0=40, y0=0, width=60, height=60\) out of bounds"):
            features_from_mask(mask, RoiRect(40, 0, 60, 60), 4)

