import numpy as np
import pytest

import oracles
from palmroi.edges import edge_mask
from palmroi.image import RoiRect
from palmroi.roi import (
    EmptyRoiError,
    KeepRange,
    RoiParams,
    StripProfile,
    common_roi,
    extract_roi,
    keep_ranges,
    rect_from_ranges,
    strip_cuts,
    strip_profile,
    trim_strips,
)


class TestStripPartition:
    def test_frame_width_gives_38_strips(self):
        cuts = strip_cuts(384, 10)
        assert len(cuts) - 1 == 38
        assert cuts[:2] == range(0, 20, 10)
        assert cuts[-2:] == range(370, 390, 10)  # columns 370..379; 380..383 uncovered

    def test_frame_height_gives_28_strips(self):
        assert len(strip_cuts(284, 10)) - 1 == 28

    def test_exact_division(self):
        assert list(strip_cuts(20, 10)) == [0, 10, 20]

    def test_extent_smaller_than_strip(self):
        with pytest.raises(ValueError, match="smaller"):
            strip_cuts(7, 10)

    def test_invalid_strip_px(self):
        with pytest.raises(ValueError, match="strip_px"):
            RoiParams(strip_px=0)

    @pytest.mark.parametrize("n", [-1.0, float("nan"), float("inf")])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError, match=f"n must be finite and >= 0, got {n}"):
            RoiParams(n=n)


class TestStripProfile:
    def test_constant_image_all_zero(self, flat_image):
        prof = strip_profile(edge_mask(flat_image), "vertical", RoiParams())
        assert (prof.numlines == 0).all()
        assert prof.mean == 0 and prof.stddev == 0 and prof.threshold == 0

    def test_two_strip_arithmetic(self):
        prof = StripProfile.from_counts([8, 12], n=1.0)
        assert prof.mean == 10 and prof.stddev == 2 and prof.threshold == 8

    def test_n_zero_threshold_is_mean(self):
        prof = StripProfile.from_counts([3, 9, 17, 2], n=0.0)
        assert prof.threshold == prof.mean

    def test_strip_count_follows_orientation(self, flat_image):
        mask = edge_mask(flat_image)
        assert strip_profile(mask, "horizontal", RoiParams()).numlines.size == 28
        assert strip_profile(mask, "vertical", RoiParams()).numlines.size == 38

    def test_bad_orientation(self, flat_image):
        with pytest.raises(ValueError, match="orientation"):
            strip_profile(edge_mask(flat_image), "diagonal", RoiParams())


class TestTrimStrips:
    def test_trims_both_ends(self):
        prof = StripProfile("horizontal", np.array([0, 1, 9, 10, 9, 1, 0]), 0.0, 0.0, 5.0)
        assert trim_strips(prof) == KeepRange(2, 4)

    def test_interior_dip_is_kept(self):
        prof = StripProfile("horizontal", np.array([9, 2, 9]), 0.0, 0.0, 5.0)
        assert trim_strips(prof) == KeepRange(0, 2)

    def test_flat_profile_keeps_everything(self):
        prof = StripProfile.from_counts([4, 4, 4, 4], n=1.0)
        assert prof.stddev == 0 and prof.threshold == prof.mean
        assert trim_strips(prof) == KeepRange(0, 3)

    def test_all_below_threshold_is_empty_roi(self):
        prof = StripProfile("vertical", np.array([1, 2, 1]), 0.0, 0.0, 99.0)
        with pytest.raises(EmptyRoiError):
            trim_strips(prof)


def random_profiles(count, rng, max_strips=40, max_count=200):
    for _ in range(count):
        size = int(rng.integers(1, max_strips))
        yield rng.integers(0, max_count, size).astype(np.int64)


class TestProfileInvariants:
    def test_threshold_formula(self):
        rng = np.random.default_rng(31)
        for counts in random_profiles(100, rng):
            for n in (0.0, 0.5, 1.0, 2.5):
                prof = StripProfile.from_counts(counts, n=n)
                expected = counts.mean() - n * counts.std()
                assert prof.threshold == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(32)
        for counts in random_profiles(60, rng):
            base = StripProfile.from_counts(counts, n=1.0)
            shifted = StripProfile.from_counts(counts + 17, n=1.0)
            assert shifted.stddev == pytest.approx(base.stddev, rel=1e-12, abs=1e-12)
            assert shifted.mean == pytest.approx(base.mean + 17, rel=1e-12)
            assert shifted.threshold == pytest.approx(base.threshold + 17, rel=1e-12, abs=1e-9)
            assert trim_strips(shifted) == trim_strips(base)

    def test_scale_invariance(self):
        rng = np.random.default_rng(33)
        for counts in random_profiles(60, rng):
            base = StripProfile.from_counts(counts, n=1.0)
            scaled = StripProfile.from_counts(counts * 3, n=1.0)
            assert scaled.mean == pytest.approx(3 * base.mean, rel=1e-12)
            assert scaled.stddev == pytest.approx(3 * base.stddev, rel=1e-12)
            assert scaled.threshold == pytest.approx(3 * base.threshold, rel=1e-12, abs=1e-9)
            assert trim_strips(scaled) == trim_strips(base)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(34)
        for counts in random_profiles(60, rng):
            previous = None
            for n in (0.0, 0.5, 1.0, 2.0, 4.0):
                keep = trim_strips(StripProfile.from_counts(counts, n=n))
                if previous is not None:
                    assert keep.first <= previous.first
                    assert keep.last >= previous.last
                previous = keep


class TestExtractRoi:
    def test_constant_frame_keeps_whole_strip_grid(self, flat_image):
        assert extract_roi(flat_image, RoiParams()) == RoiRect(0, 0, 380, 280)

    def test_dimensions_are_strip_multiples(self):
        rng = np.random.default_rng(35)
        img = rng.integers(0, 256, (140, 170)).astype(np.uint8)
        rect = extract_roi(img, RoiParams())
        assert rect.width % 10 == 0 and rect.height % 10 == 0
        assert rect.within(img.shape)
        assert rect.x0 % 10 == 0 and rect.y0 % 10 == 0

    def test_busy_center_blank_margins(self):
        # spike texture on strips 3..11 x 2..8 only; the blank end strips
        # fall below mean - stddev and are trimmed exactly
        img = np.full((120, 150), 150, dtype=np.uint8)
        for y in range(22, 88, 5):
            for x in range(32, 118, 5):
                img[y, x] = 40
        assert extract_roi(img, RoiParams()) == RoiRect(30, 20, 90, 70)


class TestCommonRoi:
    def test_single_image_equals_own_roi(self):
        rng = np.random.default_rng(37)
        img = np.full((120, 150), 150, dtype=np.uint8)
        img[30:90, 40:110] = rng.integers(0, 256, (60, 70)).astype(np.uint8)
        params = RoiParams()
        own = extract_roi(img, params)
        assert common_roi([keep_ranges(img, params)], params.strip_px) == own

    def test_identical_ranges(self):
        pair = (KeepRange(2, 20), KeepRange(3, 30))
        assert common_roi([pair, pair, pair], 10) == rect_from_ranges(*pair, 10)

    def test_mode_of_boundaries(self):
        pairs = [
            (KeepRange(3, 20), KeepRange(3, 30)),
            (KeepRange(3, 20), KeepRange(3, 30)),
            (KeepRange(5, 20), KeepRange(5, 28)),
        ]
        rect = common_roi(pairs, 10)
        assert rect == rect_from_ranges(KeepRange(3, 20), KeepRange(3, 30), 10)

    def test_tie_breaks_toward_larger_roi(self):
        pairs = [
            (KeepRange(3, 19), KeepRange(3, 30)),
            (KeepRange(5, 20), KeepRange(5, 31)),
        ]
        rect = common_roi(pairs, 10)
        assert rect == rect_from_ranges(KeepRange(3, 20), KeepRange(3, 31), 10)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            common_roi([], 10)

    def test_intersection_contained_in_each_image_roi(self, default_corpus):
        from palmroi.image import load_pgm

        _, entries = default_corpus
        params = RoiParams()
        rects = [extract_roi(load_pgm(e.path), params) for e in entries[:12]]
        x0 = max(r.x0 for r in rects)
        y0 = max(r.y0 for r in rects)
        x1 = min(r.x1 for r in rects)
        y1 = min(r.y1 for r in rects)
        inter = RoiRect(x0, y0, x1 - x0, y1 - y0)
        assert all(oracles.rect_contains(r, inter) for r in rects)
