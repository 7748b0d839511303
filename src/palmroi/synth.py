"""Deterministic synthetic palm-print generator.

Each identity is a :class:`PalmModel`: a base gray tone, three thick dark
principal lines, a set of thinner wrinkles, and a patchy fine-ridge noise
field confined to the frame minus a low-texture margin. Each sample renders
that model from a sample seed, which draws a translation of up to
``MAX_TRANSLATION`` px, a per-stroke wobble of up to ``INTENSITY_JITTER``
gray levels and sensor noise of stddev ``NOISE_SIGMA``, so samples of one
identity share structure while differing pixel-wise.

All randomness flows through the SplitMix64 streams in :mod:`palmroi.rng`;
the same (master seed, identity, sample) always yields byte-identical
images, which the corpus tests pin with golden hashes. Strokes are
quadratic curves rasterized by thickness stamping without anti-aliasing so
rendering stays integer-exact; each curve is built once per stroke and
shifted per sample.  Manifests belong to :mod:`palmroi.image`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .image import ManifestEntry, _thread_map, save_pgm, write_manifest
from .rng import SplitMix64, _normal_blocks, mix, normal_field, stream_floats

DEFAULT_WIDTH = 384
DEFAULT_HEIGHT = 284
DEFAULT_MARGIN = 30

# per-sample variation: content shift per axis (px), stroke wobble (gray levels), sensor noise stddev
MAX_TRANSLATION = 6
INTENSITY_JITTER = 10
NOISE_SIGMA = 3.0

# stream tags keep per-purpose substreams independent
_TAG_MODEL = 0x01
_TAG_RIDGE = 0x02
_TAG_PATCH = 0x03
_TAG_SHIFT = 0x11
_TAG_NOISE = 0x12
_TAG_WOBBLE = 0x13
_TAG_IDENTITY = 0x21
_TAG_SAMPLE_SEED = 0x22

_PATCH_BLOCK = 16  # px; ridge noise is switched on/off in blocks this size


@dataclass(frozen=True)
class Stroke:
    """Quadratic curve through 3 control points, stamped at a gray level."""

    p0: tuple[float, float]
    p1: tuple[float, float]
    p2: tuple[float, float]
    thickness: int
    intensity: int

    @cached_property
    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (xs, ys) points of the untranslated curve, built on first use and kept with the stroke."""
        (x0, y0), (x1, y1), (x2, y2) = self.p0, self.p1, self.p2
        approx_len = math.hypot(x1 - x0, y1 - y0) + math.hypot(x2 - x1, y2 - y1)
        t = np.linspace(0.0, 1.0, max(16, int(2 * approx_len)))
        omt = 1.0 - t
        xs = omt * omt * x0 + 2 * omt * t * x1 + t * t * x2
        ys = omt * omt * y0 + 2 * omt * t * y1 + t * t * y2
        xs.flags.writeable = False
        ys.flags.writeable = False
        return xs, ys


@dataclass(frozen=True)
class PalmModel:
    """Identity-level description of one synthetic palm."""

    width: int
    height: int
    margin: int
    base_gray: int  # in [130, 190]
    principal_lines: tuple[Stroke, ...]  # the 3 dominant creases
    wrinkles: tuple[Stroke, ...]
    ridge: np.ndarray = field(repr=False, compare=False)  # read-only fine-texture noise over the content box

    @classmethod
    def from_seed(
        cls,
        identity_seed: int,
        width: int = DEFAULT_WIDTH,
        height: int = DEFAULT_HEIGHT,
        margin: int = DEFAULT_MARGIN,
    ) -> "PalmModel":
        _check_frame(width, height, margin)
        rng = SplitMix64(mix(identity_seed, _TAG_MODEL))
        base_gray = rng.randint(130, 190)
        ridge_sigma = rng.uniform(9.0, 13.0)
        patch_prob = rng.uniform(0.45, 0.75)

        # content box (strokes and ridge noise live here)
        x_lo, x_hi = margin, width - margin
        y_lo, y_hi = margin, height - margin
        iw, ih = x_hi - x_lo, y_hi - y_lo

        lines = []
        for band in range(3):  # one crease per horizontal band of the content box
            y_c = y_lo + (0.18 + 0.30 * band) * ih
            x0 = x_lo + rng.uniform(0.04, 0.12) * iw
            x2 = x_lo + rng.uniform(0.88, 0.95) * iw
            y0 = y_c + rng.uniform(-0.08, 0.08) * ih
            y2 = y_c + rng.uniform(-0.08, 0.08) * ih
            xm = x_lo + rng.uniform(0.35, 0.65) * iw
            ym = y_c + rng.uniform(-0.16, 0.16) * ih
            lines.append(
                Stroke(
                    (x0, _clamp(y0, y_lo, y_hi - 1)),
                    (xm, _clamp(ym, y_lo, y_hi - 1)),
                    (x2, _clamp(y2, y_lo, y_hi - 1)),
                    thickness=rng.randint(3, 5),
                    intensity=max(5, base_gray - rng.randint(60, 100)),
                )
            )

        wrinkles = []
        for _ in range(rng.randint(8, 20)):
            x0 = rng.uniform(x_lo, x_hi - 1)
            y0 = rng.uniform(y_lo, y_hi - 1)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            length = rng.uniform(40.0, 140.0)
            x2 = _clamp(x0 + length * math.cos(angle), x_lo, x_hi - 1)
            y2 = _clamp(y0 + length * math.sin(angle), y_lo, y_hi - 1)
            xm = _clamp((x0 + x2) / 2 + rng.uniform(-20.0, 20.0), x_lo, x_hi - 1)
            ym = _clamp((y0 + y2) / 2 + rng.uniform(-20.0, 20.0), y_lo, y_hi - 1)
            wrinkles.append(
                Stroke(
                    (x0, y0),
                    (xm, ym),
                    (x2, y2),
                    thickness=rng.randint(1, 2),
                    intensity=max(5, base_gray - rng.randint(30, 55)),
                )
            )

        return cls(
            width=width,
            height=height,
            margin=margin,
            base_gray=base_gray,
            principal_lines=tuple(lines),
            wrinkles=tuple(wrinkles),
            ridge=_ridge_layer(identity_seed, iw, ih, ridge_sigma, patch_prob),
        )


def _check_frame(width: int, height: int, margin: int) -> None:
    """Reject a frame too small for its margin, or a margin a sample's translation could cross."""
    if width < 100 or height < 100:
        raise ValueError(f"frame must be at least 100x100, got {width}x{height}")
    if width - 2 * margin < 40 or height - 2 * margin < 40:
        raise ValueError(f"frame {width}x{height} too small for margin {margin}")
    if MAX_TRANSLATION > margin:
        raise ValueError(f"margin {margin} is smaller than the max translation {MAX_TRANSLATION}")


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def sample_translation(sample_seed: int) -> tuple[int, int]:
    """(dx, dy) content shift applied when rendering this sample."""
    rng = SplitMix64(mix(sample_seed, _TAG_SHIFT))
    return rng.randint(-MAX_TRANSLATION, MAX_TRANSLATION), rng.randint(-MAX_TRANSLATION, MAX_TRANSLATION)


@lru_cache(maxsize=None)
def _disc_offsets(thickness: int) -> np.ndarray:
    """Read-only integer offsets of a stamped disc of diameter `thickness`, built once per thickness."""
    r = thickness / 2.0
    span = int(math.ceil(r))
    offs = [
        (dy, dx)
        for dy in range(-span, span + 1)
        for dx in range(-span, span + 1)
        if dy * dy + dx * dx <= r * r
    ]
    offs = np.array(offs, dtype=np.int64)
    offs.flags.writeable = False
    return offs


def _stamp_stroke(canvas: np.ndarray, stroke: Stroke, dx: int, dy: int, value: int) -> None:
    # shift the floats, then round: rounding the curve first would move points that sit on a .5 tie
    xs, ys = stroke.curve
    xi = np.rint(xs + dx).astype(np.int64)
    yi = np.rint(ys + dy).astype(np.int64)
    offs = _disc_offsets(stroke.thickness)
    yy = (yi[:, None] + offs[:, 0]).ravel()
    xx = (xi[:, None] + offs[:, 1]).ravel()
    h, w = canvas.shape
    ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    canvas[yy[ok], xx[ok]] = float(value)


def _ridge_layer(identity_seed: int, iw: int, ih: int, sigma: float, patch_prob: float) -> np.ndarray:
    """Read-only ridge noise over an iw x ih content box, zero outside its active blocks.

    ``patch_prob`` is the fraction of ``_PATCH_BLOCK`` blocks that carry noise.
    """
    ridge = normal_field(mix(identity_seed, _TAG_RIDGE), (ih, iw), sigma)
    nby = -(-ih // _PATCH_BLOCK)
    nbx = -(-iw // _PATCH_BLOCK)
    u = stream_floats(mix(identity_seed, _TAG_PATCH), nby * nbx)
    active = (u < patch_prob).reshape(nby, nbx)
    patch = np.repeat(np.repeat(active, _PATCH_BLOCK, axis=0), _PATCH_BLOCK, axis=1)
    ridge *= patch[:ih, :iw]
    ridge.flags.writeable = False
    return ridge


def generate_palm(model: PalmModel, sample_seed: int) -> np.ndarray:
    """Render one sample of the model as a uint8 image.

    Rendering order: base gray, ridge noise over the active content blocks,
    wrinkles, then principal lines on top; additive sensor noise last. The
    content moves by ``sample_translation`` (up to ``MAX_TRANSLATION`` px,
    which ``from_seed`` keeps within the margin), each stroke's gray level
    by up to ``INTENSITY_JITTER``, and the noise has stddev ``NOISE_SIGMA``.
    The margin ring carries only base gray plus the sensor noise.
    Deterministic in (model, sample_seed).
    """
    dx, dy = sample_translation(sample_seed)
    wobble_rng = SplitMix64(mix(sample_seed, _TAG_WOBBLE))

    canvas = np.full((model.height, model.width), float(model.base_gray), dtype=np.float64)

    y0, x0 = model.margin + dy, model.margin + dx
    ih, iw = model.ridge.shape
    canvas[y0 : y0 + ih, x0 : x0 + iw] += model.ridge

    for stroke in model.wrinkles + model.principal_lines:
        wobble = wobble_rng.randint(-INTENSITY_JITTER, INTENSITY_JITTER)
        _stamp_stroke(canvas, stroke, dx, dy, int(_clamp(stroke.intensity + wobble, 0, 255)))

    # the sensor noise is added block by block, so no whole noise field is allocated
    flat = canvas.reshape(-1)
    for lo, block in _normal_blocks(mix(sample_seed, _TAG_NOISE), flat.size, NOISE_SIGMA):
        flat[lo : lo + len(block)] += block
    np.rint(canvas, out=canvas)
    np.clip(canvas, 0, 255, out=canvas)
    return canvas.astype(np.uint8)


def identity_seed_for(master_seed: int, identity: int) -> int:
    return mix(master_seed, _TAG_IDENTITY, identity)


def sample_seed_for(master_seed: int, identity: int, sample: int) -> int:
    return mix(master_seed, _TAG_SAMPLE_SEED, identity, sample)


def generate_corpus(
    identities: int,
    samples_per_identity: int,
    master_seed: int,
    out_dir,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    margin: int = DEFAULT_MARGIN,
) -> tuple[Path, list[ManifestEntry]]:
    """Write a PGM corpus plus manifest; returns (manifest path, entries).

    File names are ``p<identity>_s<sample>.pgm``; the manifest is one
    tab-separated line per file: path (relative to the manifest), palm id,
    sample id.
    """
    if identities < 1 or samples_per_identity < 1:
        raise ValueError("identities and samples_per_identity must be >= 1")
    _check_frame(width, height, margin)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_identity(i: int) -> list[ManifestEntry]:
        model = PalmModel.from_seed(identity_seed_for(master_seed, i), width, height, margin)
        palm_id = f"p{i:03d}"
        entries = []
        for j in range(samples_per_identity):
            img = generate_palm(model, sample_seed_for(master_seed, i, j))
            name = f"{palm_id}_s{j:02d}.pgm"
            save_pgm(img, out_dir / name)
            entries.append(ManifestEntry(out_dir / name, palm_id, f"s{j:02d}"))
        return entries

    # Every identity has its own streams, so the files do not depend on which thread writes them.
    per_identity = _thread_map(write_identity, range(identities), min(_cpu_count(), identities))
    entries = [e for identity in per_identity for e in identity]
    manifest = out_dir / "manifest.tsv"
    write_manifest(entries, manifest)
    return manifest, entries


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1

