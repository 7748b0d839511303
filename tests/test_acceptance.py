"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
on a green run).
"""

import time

import numpy as np
import pytest

import oracles
from palmroi.cli import main
from palmroi.evaluate import RunConfig, run_evaluation
from palmroi.image import RoiRect, crop, histogram, histogram_peak, load_pgm, modality
from palmroi.matcher import accuracy
from palmroi.roi import RoiParams, StripProfile, extract_roi, strip_cuts, trim_strips
from palmroi.edges import count_connected_lines


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_strip_geometry():
    """A 384x284 frame partitions into exactly 38 vertical and 28 horizontal strips."""
    vertical = strip_cuts(384, 10)
    horizontal = strip_cuts(284, 10)
    assert len(vertical) - 1 == 38
    assert len(horizontal) - 1 == 28
    assert vertical[-2:] == range(370, 390, 10) and horizontal[-2:] == range(270, 290, 10)
    _report(1, "384x284 -> 38 vertical / 28 horizontal strips")


def test_criterion_2_component_count_matches_flood_fill():
    """Exact agreement with an independent flood-fill oracle, 1000 seeded masks."""
    rng = np.random.default_rng(2024)
    trials = 1000
    for _ in range(trials):
        mask = rng.random((32, 32)) < rng.uniform(0.05, 0.6)
        assert count_connected_lines(mask, (0, 32), (0, 32))[0, 0] == oracles.flood_fill_count(mask)
    _report(2, f"{trials} random 32x32 masks, 8-connectivity, exact equality")


def test_criterion_3_threshold_formula_and_invariances():
    """T = mean - n*stddev to 1e-12 relative; exact shift/scale/monotone behavior."""
    rng = np.random.default_rng(2025)
    checked = 0
    for _ in range(100):
        counts = rng.integers(0, 500, rng.integers(1, 40)).astype(np.int64)
        n = float(rng.uniform(0.0, 3.0))
        prof = StripProfile.from_counts(counts, n=n)
        expected = counts.mean() - n * counts.std()
        assert prof.threshold == pytest.approx(expected, rel=1e-12, abs=1e-12)

        base = trim_strips(StripProfile.from_counts(counts, n=1.0))
        shifted = trim_strips(StripProfile.from_counts(counts + 13, n=1.0))
        scaled = trim_strips(StripProfile.from_counts(counts * 5, n=1.0))
        assert shifted == base and scaled == base

        previous = None
        for n_mono in (0.0, 0.5, 1.0, 2.0):
            keep = trim_strips(StripProfile.from_counts(counts, n=n_mono))
            if previous is not None:
                assert keep.first <= previous.first and keep.last >= previous.last
            previous = keep
        checked += 1
    _report(3, f"{checked} random profiles: formula 1e-12, invariances exact")


def test_criterion_4_degenerate_roi():
    """A constant 384x284 image keeps the whole strip grid: rect (0,0,380,280)."""
    img = np.full((284, 384), 200, dtype=np.uint8)
    assert extract_roi(img, RoiParams()) == RoiRect(0, 0, 380, 280)
    _report(4, "constant 384x284 -> ROI (0, 0, 380, 280)")


def test_criterion_5_roi_improves_identification(default_corpus):
    """ROI-mode R >= full-frame R for every k; ROI R >= 0.95 at k=16; < 60 s."""
    manifest, _ = default_corpus
    start = time.perf_counter()
    result = run_evaluation(manifest, RunConfig(workers=1))
    elapsed = time.perf_counter() - start
    rates = {(mode, k): rate for mode, k, _, _, rate in result.rows}
    for k in (4, 8, 16):
        assert rates[("roi", k)] >= rates[("full", k)], f"ROI worse at k={k}"
    assert rates[("roi", 16)] >= 0.95
    # pinned from the first verified run of the fixed-seed corpus
    assert rates[("roi", 16)] == 1.0
    assert elapsed < 60.0
    table = ", ".join(
        f"k={k}: full {rates[('full', k)]:.3f} / roi {rates[('roi', k)]:.3f}" for k in (4, 8, 16)
    )
    _report(5, f"{table} in {elapsed:.1f}s")


def test_criterion_6_histogram_validation(default_corpus):
    """Peak preserved and mode count non-increasing for >= 80% of samples."""
    _, entries = default_corpus
    params = RoiParams()
    peak_equal = modes_ok = 0
    for e in entries:
        img = load_pgm(e.path)
        roi_img = crop(img, extract_roi(img, params))
        h_orig, h_roi = histogram(img), histogram(roi_img)
        peak_equal += histogram_peak(h_orig) == histogram_peak(h_roi)
        modes_ok += modality(h_roi) <= modality(h_orig)
    n = len(entries)
    assert peak_equal / n >= 0.80
    assert modes_ok / n >= 0.80
    _report(6, f"peak equal {peak_equal}/{n}, modes non-increasing {modes_ok}/{n}")


def test_criterion_7_accuracy_arithmetic():
    """54 of 60 correct yields R = 0.90 exactly."""
    pairs = [("same", "same")] * 54 + [("a", "b")] * 6
    report = accuracy(pairs)
    assert report.total == 60 and report.correct == 54
    assert report.R == 0.90
    _report(7, "54/60 -> R = 0.90 exactly")


def test_criterion_8_evaluate_is_deterministic_across_workers(default_corpus, tmp_path):
    """Same seed, different worker counts: byte-identical CSV."""
    manifest, _ = default_corpus
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    base = ["evaluate", "--manifest", str(manifest), "--seed", "42"]
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(out4)]) == 0
    b1, b4 = out1.read_bytes(), out4.read_bytes()
    assert b1 == b4 and len(b1) > 0
    _report(8, f"workers 1 vs 4 -> identical {len(b1)}-byte CSV")
