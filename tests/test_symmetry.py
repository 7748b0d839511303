"""Metamorphic tests: how the stage functions behave under symmetries of the image.

No oracle is needed: inverting the gray levels leaves the edge mask alone,
and transposing or flipping the image transposes or flips the mask, swaps
the two strip orientations and transposes square feature grids. These
relations catch axis and orientation mix-ups in the index arithmetic of
the edge, strip, grid and labeling code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from palmroi import kernels
from palmroi.edges import edge_mask
from palmroi.features import GRID_SHAPES, features_from_mask
from palmroi.image import RoiRect
from palmroi.roi import RoiParams, ranges_from_mask

SIDE = st.integers(20, 60)
THRESHOLD = st.integers(0, 2041)


@st.composite
def images(draw):
    """A small uint8 image: pixel noise, or blocks of noise so edges cluster."""
    h, w = draw(SIDE), draw(SIDE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = draw(st.sampled_from([1, 3, 7]))
    coarse = rng.integers(0, 256, (-(-h // block), -(-w // block)), dtype=np.uint8)
    return np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:h, :w]


@st.composite
def masks(draw):
    """A small boolean mask of random density."""
    h, w = draw(SIDE), draw(SIDE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((h, w)) < draw(st.floats(0.02, 0.6))


@st.composite
def masks_with_rects(draw):
    mask = draw(masks())
    h, w = mask.shape
    x0, y0 = draw(st.integers(0, w - 4)), draw(st.integers(0, h - 4))
    width, height = draw(st.integers(4, w - x0)), draw(st.integers(4, h - y0))
    return mask, RoiRect(x0, y0, width, height)


def square_symmetries(a):
    """The 8 images of a 2-D array under the rotations and reflections of the square."""
    for k in range(4):
        rotated = np.rot90(a, k)
        yield rotated
        yield rotated.T


@settings(max_examples=50, deadline=None)
@given(images(), THRESHOLD)
def test_edge_mask_ignores_gray_inversion(img, threshold):
    assert (edge_mask(255 - img, threshold) == edge_mask(img, threshold)).all()


@settings(max_examples=50, deadline=None)
@given(images(), THRESHOLD)
def test_edge_mask_follows_transpose_and_flips(img, threshold):
    mask = edge_mask(img, threshold)
    assert (edge_mask(img.T, threshold) == mask.T).all()
    assert (edge_mask(np.fliplr(img), threshold) == np.fliplr(mask)).all()
    assert (edge_mask(np.flipud(img), threshold) == np.flipud(mask)).all()


@settings(max_examples=50, deadline=None)
@given(masks(), st.integers(1, 10), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_transposed_mask_swaps_keep_ranges(mask, strip_px, n):
    params = RoiParams(strip_px=strip_px, n=n)
    h_range, v_range = ranges_from_mask(mask, params)
    assert ranges_from_mask(mask.T, params) == (v_range, h_range)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_flips_mirror_keep_ranges_on_whole_strips(strip_px, rows, cols, seed):
    # only when each extent is a multiple of strip_px: otherwise the uncovered remainder moves
    mask = np.random.default_rng(seed).random((rows * strip_px, cols * strip_px)) < 0.3
    params = RoiParams(strip_px=strip_px)
    h_range, v_range = ranges_from_mask(mask, params)
    h_flip, _ = ranges_from_mask(np.flipud(mask), params)
    _, v_flip = ranges_from_mask(np.fliplr(mask), params)
    assert (h_flip.first, h_flip.last) == (rows - 1 - h_range.last, rows - 1 - h_range.first)
    assert (v_flip.first, v_flip.last) == (cols - 1 - v_range.last, cols - 1 - v_range.first)


@settings(max_examples=50, deadline=None)
@given(masks_with_rects(), st.sampled_from([4, 16]))
def test_transposed_mask_transposes_square_feature_grid(mask_rect, k):
    mask, rect = mask_rect
    side = GRID_SHAPES[k][0]
    grid = features_from_mask(mask, rect, k).reshape(side, side)
    transposed = RoiRect(rect.y0, rect.x0, rect.height, rect.width)
    assert (features_from_mask(mask.T, transposed, k).reshape(side, side) == grid.T).all()


@settings(max_examples=50, deadline=None)
@given(masks())
def test_component_count_invariant_under_square_symmetries(mask):
    count = kernels.count_components(mask)
    assert [kernels.count_components(m) for m in square_symmetries(mask)] == [count] * 8
