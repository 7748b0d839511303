"""Deterministic synthetic palm-print generator.

Each identity is a :class:`PalmModel`: a base gray tone, three thick dark
principal lines, a set of thinner wrinkles, and a patchy fine-ridge noise
field confined to the frame minus a low-texture margin. Each sample renders
that model with per-sample jitter (small translation, per-stroke intensity
wobble, additive sensor noise), so samples of one identity share structure
while differing pixel-wise.

All randomness flows through the SplitMix64 streams in :mod:`palmroi.rng`;
the same (master seed, identity, sample) always yields byte-identical
images, which the corpus tests pin with golden hashes. Strokes are
quadratic curves rasterized by thickness stamping without anti-aliasing so
rendering stays integer-exact.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .image import read_records, save_pgm
from .rng import SplitMix64, mix, normal_field, stream_floats

DEFAULT_WIDTH = 384
DEFAULT_HEIGHT = 284
DEFAULT_MARGIN = 30

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


@dataclass(frozen=True)
class PalmModel:
    """Identity-level description of one synthetic palm."""

    identity_seed: int
    width: int
    height: int
    margin: int
    base_gray: int  # in [120, 200]
    ridge_noise_sigma: float  # fine-texture noise level inside the content box
    ridge_patch_prob: float  # fraction of content blocks carrying ridge noise
    principal_lines: tuple[Stroke, ...]  # the 3 dominant creases
    wrinkles: tuple[Stroke, ...]

    @classmethod
    def from_seed(
        cls,
        identity_seed: int,
        width: int = DEFAULT_WIDTH,
        height: int = DEFAULT_HEIGHT,
        margin: int = DEFAULT_MARGIN,
    ) -> "PalmModel":
        if width < 100 or height < 100:
            raise ValueError(f"frame must be at least 100x100, got {width}x{height}")
        if width - 2 * margin < 40 or height - 2 * margin < 40:
            raise ValueError(f"frame {width}x{height} too small for margin {margin}")
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
            identity_seed=identity_seed,
            width=width,
            height=height,
            margin=margin,
            base_gray=base_gray,
            ridge_noise_sigma=ridge_sigma,
            ridge_patch_prob=patch_prob,
            principal_lines=tuple(lines),
            wrinkles=tuple(wrinkles),
        )


@dataclass(frozen=True)
class SampleJitter:
    """Per-sample variation: translation, stroke intensity wobble, sensor noise."""

    sample_seed: int
    max_translation: int = 6
    intensity_jitter: int = 10
    noise_sigma: float = 3.0

    def __post_init__(self):
        if self.max_translation < 0 or self.intensity_jitter < 0 or self.noise_sigma < 0:
            raise ValueError("jitter magnitudes must be non-negative")


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def sample_translation(jitter: SampleJitter) -> tuple[int, int]:
    """(dx, dy) content shift applied when rendering with this jitter."""
    if jitter.max_translation == 0:
        return 0, 0
    rng = SplitMix64(mix(jitter.sample_seed, _TAG_SHIFT))
    mt = jitter.max_translation
    return rng.randint(-mt, mt), rng.randint(-mt, mt)


def _disc_offsets(thickness: int) -> np.ndarray:
    """Integer offsets of a stamped disc of diameter `thickness`."""
    r = thickness / 2.0
    span = int(math.ceil(r))
    offs = [
        (dy, dx)
        for dy in range(-span, span + 1)
        for dx in range(-span, span + 1)
        if dy * dy + dx * dx <= r * r
    ]
    return np.array(offs, dtype=np.int64)


def _stamp_stroke(canvas: np.ndarray, stroke: Stroke, dx: int, dy: int, value: int) -> None:
    (x0, y0), (x1, y1), (x2, y2) = stroke.p0, stroke.p1, stroke.p2
    approx_len = math.hypot(x1 - x0, y1 - y0) + math.hypot(x2 - x1, y2 - y1)
    steps = max(16, int(2 * approx_len))
    t = np.linspace(0.0, 1.0, steps)
    omt = 1.0 - t
    xs = omt * omt * x0 + 2 * omt * t * x1 + t * t * x2 + dx
    ys = omt * omt * y0 + 2 * omt * t * y1 + t * t * y2 + dy
    xi = np.rint(xs).astype(np.int64)
    yi = np.rint(ys).astype(np.int64)
    offs = _disc_offsets(stroke.thickness)
    yy = (yi[:, None] + offs[:, 0]).ravel()
    xx = (xi[:, None] + offs[:, 1]).ravel()
    h, w = canvas.shape
    ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    canvas[yy[ok], xx[ok]] = float(value)


@functools.lru_cache(maxsize=1)
def _ridge_layer(model: PalmModel) -> np.ndarray:
    """The identity's ridge noise over the content box, zero outside its active blocks.

    It is the same for every sample of the model, so it is built once per
    model; a corpus renders identity by identity. Read-only.
    """
    m = model.margin
    iw, ih = model.width - 2 * m, model.height - 2 * m
    field = normal_field(mix(model.identity_seed, _TAG_RIDGE), (ih, iw), model.ridge_noise_sigma)
    nby = -(-ih // _PATCH_BLOCK)
    nbx = -(-iw // _PATCH_BLOCK)
    u = stream_floats(mix(model.identity_seed, _TAG_PATCH), nby * nbx)
    active = (u < model.ridge_patch_prob).reshape(nby, nbx)
    patch = np.repeat(np.repeat(active, _PATCH_BLOCK, axis=0), _PATCH_BLOCK, axis=1)
    layer = field * patch[:ih, :iw]
    layer.flags.writeable = False
    return layer


def generate_palm(
    model: PalmModel, jitter: SampleJitter, width: int | None = None, height: int | None = None
) -> np.ndarray:
    """Render one sample of the model as a uint8 image.

    Rendering order: base gray, ridge noise over the active content blocks,
    wrinkles, then principal lines on top; additive sensor noise last. The
    margin ring carries only base gray plus the sensor noise. Deterministic
    in (model, jitter, dims). The jitter's translation may not exceed the
    model's margin, which keeps the content box inside the frame.
    """
    width = model.width if width is None else width
    height = model.height if height is None else height
    if (width, height) != (model.width, model.height):
        raise ValueError(
            f"frame {width}x{height} does not match model frame "
            f"{model.width}x{model.height}"
        )
    if jitter.max_translation > model.margin:
        raise ValueError(
            f"margin {model.margin} is smaller than the max translation {jitter.max_translation}"
        )
    dx, dy = sample_translation(jitter)
    wobble_rng = SplitMix64(mix(jitter.sample_seed, _TAG_WOBBLE))

    canvas = np.full((height, width), float(model.base_gray), dtype=np.float64)

    if model.ridge_noise_sigma > 0:
        layer = _ridge_layer(model)
        y0, x0 = model.margin + dy, model.margin + dx
        canvas[y0 : y0 + layer.shape[0], x0 : x0 + layer.shape[1]] += layer

    for stroke in model.wrinkles + model.principal_lines:
        ij = jitter.intensity_jitter
        wobble = wobble_rng.randint(-ij, ij) if ij else 0
        value = int(_clamp(stroke.intensity + wobble, 0, 255))
        _stamp_stroke(canvas, stroke, dx, dy, value)

    if jitter.noise_sigma > 0:
        canvas += normal_field(mix(jitter.sample_seed, _TAG_NOISE), (height, width), jitter.noise_sigma)

    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


class ManifestEntry(NamedTuple):
    path: Path
    palm_id: str
    sample_id: str


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(identities):
        model = PalmModel.from_seed(identity_seed_for(master_seed, i), width, height, margin)
        palm_id = f"p{i:03d}"
        for j in range(samples_per_identity):
            jitter = SampleJitter(sample_seed_for(master_seed, i, j))
            img = generate_palm(model, jitter, width, height)
            name = f"{palm_id}_s{j:02d}.pgm"
            save_pgm(img, out_dir / name)
            entries.append(ManifestEntry(out_dir / name, palm_id, f"s{j:02d}"))
    manifest = out_dir / "manifest.tsv"
    write_manifest(entries, manifest)
    return manifest, entries


def write_manifest(entries, path) -> None:
    """Write manifest lines; paths are stored relative to the manifest file."""
    base = Path(path).resolve().parent
    with open(path, "w", encoding="ascii") as fh:
        for entry in entries:
            rel = os.path.relpath(Path(entry.path).resolve(), base)
            fh.write(f"{rel}\t{entry.palm_id}\t{entry.sample_id}\n")


def read_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest; relative paths resolve against the manifest's directory."""
    base = Path(path).parent
    entries = []
    for _, (rel, palm_id, sample_id) in read_records(path, 3):
        p = Path(rel)
        entries.append(ManifestEntry(p if p.is_absolute() else base / p, palm_id, sample_id))
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    return entries
