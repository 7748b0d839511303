"""Before/after-ROI identification experiment over a corpus manifest.

For each feature size the harness enrolls the training samples and
identifies every test sample twice: once over the full frame and once over
the common ROI fitted on the *training* images only (test images are
cropped with the training-derived rect, so no test information leaks into
the ROI). Per-image stages may run on a thread pool; results are assembled
in manifest order, so the report is byte-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import edges, matcher, roi
from .features import features_from_mask
from .image import full_rect, load_pgm
from .rng import SplitMix64, mix
from .roi import RoiParams
from .synth import ManifestEntry, read_manifest

DEFAULT_SEED = 42
_SPLIT_TAG = 0x51


@dataclass(frozen=True)
class RunConfig:
    roi: RoiParams = RoiParams()
    k_values: tuple[int, ...] = (4, 8, 16)
    metric: str = "euclidean"
    seed: int = DEFAULT_SEED
    train_frac: float = 0.5
    workers: int = 1


@dataclass
class EvaluationResult:
    rows: list[tuple[str, int, int, int, float]]  # (mode, k, total, correct, R)
    roi_rect: "roi.RoiRect"
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


def _parallel_map(fn, items, workers: int) -> list:
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_evaluation(manifest_path, cfg: RunConfig = RunConfig()) -> EvaluationResult:
    entries = read_manifest(manifest_path)
    train, test = split_corpus(entries, cfg.train_frac, cfg.seed)
    resubstitution = cfg.train_frac == 1.0
    ordered = train if resubstitution else train + test

    def prepare(item):
        """(full rect, keep ranges if a training image, packed edge mask) of one entry; the image is dropped."""
        i, entry = item
        img = load_pgm(entry.path)
        mask = edges.edge_mask(img, cfg.roi.edge_threshold)
        # keep_ranges repeats edge_mask's Sobel; pipebench/test_pipebench.py pins 180 edge_mask calls per pass
        ranges = roi.keep_ranges(img, cfg.roi) if i < len(train) else None
        return full_rect(img), ranges, edges.pack_mask(mask)

    prepared = _parallel_map(prepare, enumerate(ordered), cfg.workers)
    rect_full = prepared[0][0]
    for entry, (rect, _, _) in zip(ordered, prepared):
        if rect != rect_full:
            raise ValueError(f"{entry.path}: dimensions differ from the rest of the corpus")
    rect_roi = roi.common_roi([ranges for _, ranges, _ in prepared[: len(train)]], cfg.roi.strip_px)

    # Each mask is unpacked once for all of its (mode, k) feature vectors.
    modes = [(mode, rect, k) for mode, rect in (("full", rect_full), ("roi", rect_roi)) for k in sorted(cfg.k_values)]

    def features(packed):
        mask = edges.unpack_mask(packed)
        return [features_from_mask(mask, rect, k) for _, rect, k in modes]

    feats = _parallel_map(features, [packed for _, _, packed in prepared], cfg.workers)
    feats_train = feats[: len(train)]
    feats_test = feats if resubstitution else feats[len(train) :]
    test_entries = train if resubstitution else test

    result = EvaluationResult(
        rows=[], roi_rect=rect_roi, train_count=len(train), test_count=len(test_entries)
    )
    for j, (mode, _, k) in enumerate(modes):
        db = matcher.enroll((e.palm_id, e.sample_id, f[j]) for e, f in zip(train, feats_train))
        predictions = [
            (matcher.identify(f[j], db, cfg.metric)[0], e.palm_id)
            for e, f in zip(test_entries, feats_test)
        ]
        report = matcher.accuracy(predictions)
        result.rows.append((mode, k, report.total, report.correct, report.R))
    return result
