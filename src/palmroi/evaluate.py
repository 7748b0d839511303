"""Before/after-ROI identification experiment over a corpus manifest.

For each feature size the harness enrolls the training samples and
identifies every test sample twice: once over the full frame and once over
the common ROI fitted on the *training* images only (test images are
cropped with the training-derived rect, so no test information leaks into
the ROI). Per-image stages may run on ``image._thread_map``, which keeps
input order, so the report is byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import edges, matcher, roi
from .features import GRID_SHAPES, features_from_mask
from .image import ManifestEntry, RoiRect, _thread_map, full_rect, load_pgm, read_manifest, same_frame
from .rng import SplitMix64, mix
from .roi import RoiParams

DEFAULT_SEED = 42
_SPLIT_TAG = 0x51


@dataclass(frozen=True)
class RunConfig:
    roi: RoiParams = RoiParams()
    seed: int = DEFAULT_SEED
    train_frac: float = 0.5
    workers: int = 1


@dataclass
class EvaluationResult:
    rows: list[tuple[str, int, int, int, float]]  # (mode, k, total, correct, R)
    roi_rect: RoiRect
    train_count: int
    test_count: int

    def to_csv(self) -> str:
        lines = ["mode,k,total,correct,R"]
        for mode, k, total, correct, rate in self.rows:
            lines.append(f"{mode},{k},{total},{correct},{rate:.6f}")
        return "\n".join(lines) + "\n"


def split_corpus(
    entries: list[ManifestEntry], train_frac: float, seed: int
) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Seeded per-identity split; train_frac 1.0 means resubstitution (test = train)."""
    if not 0.0 < train_frac <= 1.0:
        raise ValueError(f"train_frac must be in (0, 1], got {train_frac}")
    by_palm: dict[str, list[ManifestEntry]] = {}
    for entry in entries:
        by_palm.setdefault(entry.palm_id, []).append(entry)
    if len(by_palm) < 2:
        raise ValueError("evaluation needs at least 2 identities")
    if train_frac == 1.0:
        ordered = [e for pid in sorted(by_palm) for e in sorted(by_palm[pid], key=lambda e: e.sample_id)]
        return ordered, list(ordered)
    train, test = [], []
    for palm_id in sorted(by_palm):
        group = sorted(by_palm[palm_id], key=lambda e: e.sample_id)
        rng = SplitMix64(mix(seed, _SPLIT_TAG, *palm_id.encode("ascii")))
        rng.shuffle(group)
        n_train = round(train_frac * len(group))
        if n_train == 0 or n_train == len(group):
            raise ValueError(
                f"degenerate split for {palm_id}: {n_train} train of {len(group)} samples"
            )
        train.extend(group[:n_train])
        test.extend(group[n_train:])
    return train, test


def run_evaluation(manifest_path, cfg: RunConfig = RunConfig()) -> EvaluationResult:
    entries = read_manifest(manifest_path)
    train, test = split_corpus(entries, cfg.train_frac, cfg.seed)
    in_train = set(train)
    images = list(dict.fromkeys(train + test))  # under resubstitution test is train: one mask per image

    def prepare(entry):
        """(frame rect, keep ranges if a training image, packed edge mask) of one entry; the image is dropped."""
        img = load_pgm(entry.path)
        mask = edges.edge_mask(img)
        # keep_ranges repeats edge_mask's Sobel; pipebench/test_pipebench.py pins 180 edge_mask calls per pass
        ranges = roi.keep_ranges(img, cfg.roi) if entry in in_train else None
        return full_rect(img), ranges, edges.pack_mask(mask)

    prepared = _thread_map(prepare, images, cfg.workers)
    rect_full = same_frame(images, [frame for frame, _, _ in prepared])
    rect_roi = roi.common_roi([ranges for _, ranges, _ in prepared if ranges is not None], cfg.roi.strip_px)

    # Each mask is unpacked once for all of its (mode, k) feature vectors.
    modes = [(mode, rect, k) for mode, rect in (("full", rect_full), ("roi", rect_roi)) for k in sorted(GRID_SHAPES)]

    def features(packed):
        mask = edges.unpack_mask(packed)
        return [features_from_mask(mask, rect, k) for _, rect, k in modes]

    feats = dict(zip(images, _thread_map(features, [packed for _, _, packed in prepared], cfg.workers)))

    result = EvaluationResult(rows=[], roi_rect=rect_roi, train_count=len(train), test_count=len(test))
    for j, (mode, _, k) in enumerate(modes):
        db = matcher.enroll((e.palm_id, e.sample_id, feats[e][j]) for e in train)
        predictions = [(matcher.identify(feats[e][j], db)[0], e.palm_id) for e in test]
        report = matcher.accuracy(predictions)
        result.rows.append((mode, k, report.total, report.correct, report.R))
    return result
