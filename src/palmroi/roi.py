"""Strip-wise busyness profiling and region-of-interest selection.

The image is cut into 10-pixel strips in each orientation; each strip's
busyness (connected-line count) feeds a per-orientation statistical
threshold ``mean - n * stddev`` (population stddev, n defaults to 1).
End strips below the threshold are trimmed away, interior dips are kept,
and the ROI is the intersection of the surviving rows and columns. Across
a corpus, a common ROI is fixed by taking the most frequent value of each
boundary, breaking ties toward the larger region.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import edges
from .image import RoiRect

ORIENTATIONS = ("horizontal", "vertical")


class EmptyRoiError(ValueError):
    """Raised when no region survives; in the pipeline, only when ``common_roi``'s boundary votes cross."""


@dataclass(frozen=True)
class RoiParams:
    """The ROI search's own parameters; the defaults of ``--strip-px`` and ``--n`` are read from here."""

    strip_px: int = 10
    n: float = 1.0

    def __post_init__(self):
        if self.strip_px < 1:
            raise ValueError(f"strip_px must be >= 1, got {self.strip_px}")
        if not 0 <= self.n < math.inf:
            raise ValueError(f"n must be finite and >= 0, got {self.n}")


@dataclass(frozen=True)
class KeepRange:
    """Inclusive range of surviving strip indices."""

    first: int
    last: int

    def __post_init__(self):
        if not 0 <= self.first <= self.last:
            raise ValueError(f"invalid keep range [{self.first}, {self.last}]")

    @property
    def count(self) -> int:
        return self.last - self.first + 1


@dataclass(frozen=True)
class StripProfile:
    """Per-strip busyness counts plus the derived selection threshold."""

    orientation: str
    numlines: np.ndarray  # int64, one count per strip
    mean: float
    stddev: float  # population (divide by N)
    threshold: float  # mean - n * stddev

    @classmethod
    def from_counts(cls, counts, orientation: str = "horizontal", n: float = 1.0) -> "StripProfile":
        if orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        numlines = np.asarray(counts, dtype=np.int64)
        if numlines.size == 0:
            raise ValueError("profile needs at least one strip")
        mean = float(np.mean(numlines))
        stddev = float(np.std(numlines))
        return cls(orientation, numlines, mean, stddev, mean - n * stddev)


def strip_cuts(extent: int, strip_px: int) -> range:
    """Cut list of the whole strip_px-wide strips of 0..extent; the remainder is dropped.

    A 384-pixel extent with 10-pixel strips yields the cuts 0, 10, ..., 380:
    38 strips covering 0..379; pixels 380..383 belong to no strip.
    """
    if extent < strip_px:
        raise ValueError(f"extent {extent} smaller than strip width {strip_px}")
    return range(0, extent // strip_px * strip_px + 1, strip_px)


def strip_profile(mask: np.ndarray, orientation: str, params: RoiParams = RoiParams()) -> StripProfile:
    """Busyness profile of one orientation's strips of an edge mask.

    Vertical strips are the horizontal strips of ``mask.T``: labeling a short,
    wide copy is faster than labeling a tall, narrow one.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    bands = mask.T if orientation == "vertical" else mask
    h, w = bands.shape
    counts = edges.count_connected_lines(bands, strip_cuts(h, params.strip_px), (0, w))
    return StripProfile.from_counts(counts[:, 0], orientation, params.n)


def trim_strips(profile: StripProfile) -> KeepRange:
    """Trim sub-threshold strips from the two ends only.

    Keeps the contiguous range from the first strip with count >= threshold
    to the last such strip; interior dips survive. Equality keeps the strip,
    so a flat profile (stddev 0) keeps everything. With ``n >= 0`` the
    threshold is at most the largest count, so only a hand-built profile
    reaches the ``EmptyRoiError``.
    """
    counts = profile.numlines
    keep = counts >= profile.threshold
    if not keep.any():
        raise EmptyRoiError(
            f"all {counts.size} {profile.orientation} strips below threshold "
            f"{profile.threshold:.3f}"
        )
    first = int(np.argmax(keep))
    last = int(counts.size - 1 - np.argmax(keep[::-1]))
    return KeepRange(first, last)


def ranges_from_mask(mask: np.ndarray, params: RoiParams = RoiParams()) -> tuple[KeepRange, KeepRange]:
    """(horizontal, vertical) keep ranges of one edge mask."""
    return (
        trim_strips(strip_profile(mask, "horizontal", params)),
        trim_strips(strip_profile(mask, "vertical", params)),
    )


def keep_ranges(img: np.ndarray, params: RoiParams = RoiParams()) -> tuple[KeepRange, KeepRange]:
    """(horizontal, vertical) keep ranges of one image, from a single edge pass."""
    return ranges_from_mask(edges.edge_mask(img), params)


def rect_from_ranges(h_range: KeepRange, v_range: KeepRange, strip_px: int) -> RoiRect:
    """Pixel rect covered by the kept rows and columns."""
    return RoiRect(
        v_range.first * strip_px,
        h_range.first * strip_px,
        v_range.count * strip_px,
        h_range.count * strip_px,
    )


def extract_roi(img: np.ndarray, params: RoiParams = RoiParams()) -> RoiRect:
    """ROI of one image: intersection of kept rows and kept columns."""
    h_range, v_range = keep_ranges(img, params)
    return rect_from_ranges(h_range, v_range, params.strip_px)


def _mode(values: list[int], prefer_small: bool) -> int:
    counts = Counter(values)
    best = max(counts.values())
    candidates = [v for v, c in counts.items() if c == best]
    return min(candidates) if prefer_small else max(candidates)


def common_roi(ranges: Sequence[tuple[KeepRange, KeepRange]], strip_px: int) -> RoiRect:
    """Corpus-wide ROI from per-image (horizontal, vertical) keep ranges.

    Each of the four boundaries is the most frequent value of that boundary
    across images; ties go to the larger region (smaller first index,
    larger last index).
    """
    if not ranges:
        raise ValueError("common_roi needs at least one image's ranges")
    top = _mode([h.first for h, _ in ranges], prefer_small=True)
    bottom = _mode([h.last for h, _ in ranges], prefer_small=False)
    left = _mode([v.first for _, v in ranges], prefer_small=True)
    right = _mode([v.last for _, v in ranges], prefer_small=False)
    if top > bottom or left > right:
        raise EmptyRoiError("boundary modes cross; no common region")
    return rect_from_ranges(KeepRange(top, bottom), KeepRange(left, right), strip_px)
