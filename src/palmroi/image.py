"""Grayscale image conventions, binary PGM I/O, cropping and histograms.

An image is a 2-D ``numpy.uint8`` array indexed ``[row, column]``; width is
``shape[1]``, height ``shape[0]``. The palm corpus convention is 384 wide by
284 tall, but nothing here depends on specific dimensions.

The interchange format is binary PGM (P5) with maxval 255: ASCII header
``P5``, whitespace-separated width/height/maxval, one whitespace byte, then
``width * height`` raw bytes row-major. Round-trips are byte-exact.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


class PgmFormatError(ValueError):
    """Raised for a structurally invalid or unsupported PGM file."""


@dataclass(frozen=True)
class RoiRect:
    """Axis-aligned pixel rectangle: top-left corner plus size (inclusive x0/y0)."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"rect must have positive size, got {self.width}x{self.height}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"rect origin must be non-negative, got ({self.x0}, {self.y0})")

    @property
    def x1(self) -> int:
        """One past the right edge."""
        return self.x0 + self.width

    @property
    def y1(self) -> int:
        """One past the bottom edge."""
        return self.y0 + self.height

    @property
    def slices(self) -> tuple[slice, slice]:
        return slice(self.y0, self.y1), slice(self.x0, self.x1)

    def within(self, shape: tuple[int, int]) -> bool:
        """True if the rect lies entirely inside an image of the given shape."""
        h, w = shape
        return self.x1 <= w and self.y1 <= h


def full_rect(img: np.ndarray) -> RoiRect:
    """Rect covering the whole image."""
    return RoiRect(0, 0, img.shape[1], img.shape[0])


def check_image(img: np.ndarray) -> np.ndarray:
    if not isinstance(img, np.ndarray) or img.ndim != 2:
        raise ValueError("image must be a 2-D numpy array")
    if img.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got {img.dtype}")
    return img


def check_rect(img: np.ndarray, rect: RoiRect) -> None:
    if not rect.within(img.shape):
        raise ValueError(
            f"rect {rect} out of bounds for {img.shape[1]}x{img.shape[0]} image"
        )


def _read_header_tokens(data: bytes, count: int, start: int):
    """Read `count` whitespace-separated tokens after `start`, '#' comments skipped."""
    tokens = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise PgmFormatError("malformed header: truncated before pixel data")
        tokens.append(data[i:j])
        i = j
    return tokens, i


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) PGM with maxval 255 into a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise PgmFormatError(f"{path}: not a binary PGM (missing P5 magic)")
    try:
        tokens, pos = _read_header_tokens(data, 3, 2)
        width, height, maxval = (int(t) for t in tokens)
    except (ValueError, PgmFormatError) as exc:
        raise PgmFormatError(f"{path}: malformed header ({exc})") from None
    if width <= 0 or height <= 0:
        raise PgmFormatError(f"{path}: malformed header (non-positive dimensions)")
    if maxval != 255:
        raise PgmFormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmFormatError(
            f"{path}: truncated pixel data ({len(payload)} of {width * height} bytes)"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def open_ascii_text(path) -> io.StringIO:
    """Read an ASCII text file for line iteration, splitting lines as ``open`` does.

    A non-ASCII byte raises ValueError naming ``path:line``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("ascii"), newline=None)
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: non-ASCII byte 0x{data[exc.start]:02x}") from None


def save_pgm(img: np.ndarray, path) -> None:
    """Write a uint8 image as binary (P5) PGM, maxval 255."""
    check_image(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img).tobytes())


def crop(img: np.ndarray, rect: RoiRect) -> np.ndarray:
    """Copy of the sub-image selected by rect."""
    check_image(img)
    check_rect(img, rect)
    return img[rect.slices].copy()


def histogram(img: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram; bin sum equals the pixel count."""
    check_image(img)
    return np.bincount(img.ravel(), minlength=256).astype(np.int64)


def histogram_peak(hist: np.ndarray) -> int:
    """Lowest intensity attaining the maximum count."""
    hist = np.asarray(hist)
    if hist.sum() == 0:
        raise ValueError("empty histogram (all bins zero)")
    return int(np.argmax(hist))


def modality(hist: np.ndarray, window: int = 9) -> int:
    """Number of local maxima of the smoothed histogram (plateaus count once).

    Smoothing is a centered moving window; a windowed *sum* is used rather
    than the mean so the comparison stays in exact integer arithmetic (the
    local-max structure is identical, the values just carry a constant
    factor of ``window``). Bins beyond the ends are treated as zero, and a
    plateau touching an array end counts if its inner side falls away.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    h = np.asarray(hist, dtype=np.int64)
    smooth = np.convolve(h, np.ones(window, dtype=np.int64), mode="same")
    modes = 0
    i = 0
    n = len(smooth)
    while i < n:
        j = i
        while j + 1 < n and smooth[j + 1] == smooth[i]:
            j += 1
        left_lower = i == 0 or smooth[i - 1] < smooth[i]
        right_lower = j == n - 1 or smooth[j + 1] < smooth[i]
        if left_lower and right_lower and smooth[i] > 0:
            modes += 1
        i = j + 1
    return modes
