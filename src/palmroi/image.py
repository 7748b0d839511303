"""Grayscale image conventions, binary PGM I/O, cropping and histograms.

An image is a 2-D ``numpy.uint8`` array indexed ``[row, column]``; width is
``shape[1]``, height ``shape[0]``. The palm corpus convention is 384 wide by
284 tall, but nothing here depends on specific dimensions.

The interchange format is binary PGM (P5) with maxval 255: ASCII header
``P5``, whitespace-separated width/height/maxval, one whitespace byte, then
``width * height`` raw bytes row-major. Round-trips are byte-exact. The
manifest and template DB are ASCII tab-separated, read by ``read_records``;
the corpus commands share the manifest, ``same_frame`` and ``_thread_map``.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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


# "P5", then width, height and maxval, each after a run of whitespace and
# '#' comments. The lookaheads make a comment run to the end of its line and
# a field (which cannot start with '#') run to the next whitespace, so a
# comment is never re-read as fields, nor a field cut short at a '#'.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 3)


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) PGM with maxval 255 into a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise PgmFormatError(f"{path}: not a binary PGM (missing P5 magic)")
    m = _PGM_HEADER.match(data)
    if m is None:
        raise PgmFormatError(f"{path}: malformed header (truncated before pixel data)")
    if not all(f.isdigit() for f in m.groups()):  # bytes.isdigit is ASCII 0-9 only; int() also takes a sign or '_'
        raise PgmFormatError(f"{path}: malformed header (width, height and maxval must be decimal digits)")
    width, height, maxval = map(int, m.groups())
    if width <= 0 or height <= 0:
        raise PgmFormatError(f"{path}: malformed header (non-positive dimensions)")
    if maxval != 255:
        raise PgmFormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    pos = m.end() + 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmFormatError(
            f"{path}: truncated pixel data ({len(payload)} of {width * height} bytes)"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def read_records(path, nfields: int):
    """Yield ``(lineno, fields)`` for each record of an ASCII tab-separated file.

    Lines end as ``open`` ends them (LF, CRLF or CR) and are ``strip()``-ped;
    blank lines and ``#`` comments are skipped. A non-ASCII byte, a field
    count other than ``nfields``, or an empty field or one with surrounding
    whitespace raises ValueError naming ``path:line``.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii():
            error = f"non-ASCII byte 0x{next(b for b in raw if b > 0x7F):02x}"
        else:
            line = raw.decode("ascii").strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != nfields:
                error = f"expected {nfields} tab-separated fields"
            elif all(f and f == f.strip() for f in fields):
                yield lineno, fields
                continue
            else:  # such a field would not survive being written back and read again
                bad = next(i for i, f in enumerate(fields, start=1) if not f or f != f.strip())
                error = f"field {bad} is empty or padded with whitespace"
        raise ValueError(f"{path}:{lineno}: {error}")


class ManifestEntry(NamedTuple):
    path: Path
    palm_id: str
    sample_id: str


def write_manifest(entries, path) -> None:
    """Write manifest lines; paths are stored relative to the manifest file."""
    base = Path(path).resolve().parent
    with open(path, "w", encoding="ascii") as fh:
        for entry in entries:
            rel = os.path.relpath(Path(entry.path).resolve(), base)
            fh.write(f"{rel}\t{entry.palm_id}\t{entry.sample_id}\n")


def read_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest; relative paths resolve against its directory, a repeated key names its line."""
    base = Path(path).parent
    entries = {}
    for lineno, (rel, palm_id, sample_id) in read_records(path, 3):
        if (palm_id, sample_id) in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {(palm_id, sample_id)}")
        entries[palm_id, sample_id] = ManifestEntry(base / rel, palm_id, sample_id)  # an absolute rel replaces base
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return list(entries.values())


def same_frame(entries: list[ManifestEntry], frames: list[RoiRect]) -> RoiRect:
    """The frame rect every entry's image shares; the first entry that differs is named."""
    for entry, frame in zip(entries, frames):
        if frame != frames[0]:
            raise ValueError(f"{entry.path}: dimensions differ from the rest of the corpus")
    return frames[0]


def _thread_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on up to workers threads; results keep the order of items."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def save_pgm(img: np.ndarray, path) -> None:
    """Write a uint8 image as binary (P5) PGM, maxval 255."""
    check_image(img)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img))  # row-major pixels through the buffer protocol, no bytes copy


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
