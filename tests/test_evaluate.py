import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import palmroi
from palmroi import cli, roi
from palmroi.edges import edge_mask
from palmroi.evaluate import RunConfig, run_evaluation, split_corpus
from palmroi.image import ManifestEntry, load_pgm, save_pgm, write_manifest
from palmroi.roi import EmptyRoiError, RoiParams
from palmroi.synth import generate_corpus


def entry(palm, sample):
    return ManifestEntry(f"{palm}_{sample}.pgm", palm, sample)


class TestSplit:
    def make_entries(self, palms=3, samples=4):
        return [entry(f"p{i}", f"s{j}") for i in range(palms) for j in range(samples)]

    def test_split_is_deterministic_and_partitions(self):
        entries = self.make_entries()
        train1, test1 = split_corpus(entries, 0.5, seed=9)
        train2, test2 = split_corpus(entries, 0.5, seed=9)
        assert train1 == train2 and test1 == test2
        keys = {(e.palm_id, e.sample_id) for e in entries}
        assert {(e.palm_id, e.sample_id) for e in train1 + test1} == keys
        assert len(train1) == 6 and len(test1) == 6

    def test_different_seed_changes_split(self):
        entries = self.make_entries(palms=4, samples=8)
        train_a, _ = split_corpus(entries, 0.5, seed=1)
        train_b, _ = split_corpus(entries, 0.5, seed=2)
        assert {(e.palm_id, e.sample_id) for e in train_a} != {
            (e.palm_id, e.sample_id) for e in train_b
        }

    def test_resubstitution(self):
        entries = self.make_entries()
        train, test = split_corpus(entries, 1.0, seed=0)
        assert train == test and len(train) == len(entries)

    def test_degenerate_fraction(self):
        entries = self.make_entries(samples=2)
        with pytest.raises(ValueError, match="degenerate"):
            split_corpus(entries, 0.1, seed=0)
        with pytest.raises(ValueError):
            split_corpus(entries, 0.0, seed=0)

    def test_needs_two_identities(self):
        entries = [entry("p0", f"s{j}") for j in range(4)]
        with pytest.raises(ValueError, match="identities"):
            split_corpus(entries, 0.5, seed=0)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    manifest, _ = generate_corpus(3, 4, 5, out)
    return manifest


class TestRunEvaluation:
    def test_resubstitution_is_perfect_in_both_modes(self, small_manifest):
        cfg = RunConfig(train_frac=1.0)
        result = run_evaluation(small_manifest, cfg)
        assert len(result.rows) == 6
        for mode, k, total, correct, rate in result.rows:
            assert total == 12 and correct == 12 and rate == 1.0

    def test_csv_shape_and_order(self, small_manifest):
        cfg = RunConfig(train_frac=0.5)
        text = run_evaluation(small_manifest, cfg).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "mode,k,total,correct,R"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["full", "4"],
            ["full", "8"],
            ["full", "16"],
            ["roi", "4"],
            ["roi", "8"],
            ["roi", "16"],
        ]
        for line in lines[1:]:
            mode, k, total, correct, rate = line.split(",")
            assert rate == f"{int(correct) / int(total):.6f}"

    def test_worker_count_does_not_change_output(self, small_manifest):
        # a held-out split and resubstitution, which reuses the training features as test features
        for train_frac, workers in ((0.5, 4), (1.0, 3)):
            one = run_evaluation(small_manifest, RunConfig(train_frac=train_frac, workers=1))
            many = run_evaluation(small_manifest, RunConfig(train_frac=train_frac, workers=workers))
            assert (one.to_csv(), one.roi_rect) == (many.to_csv(), many.roi_rect)

    def test_roi_is_fit_on_training_images_only(self, small_manifest, monkeypatch):
        import palmroi.evaluate as ev

        seen = []
        original = ev.roi.keep_ranges

        def spy(img, params):
            seen.append(img.shape)
            return original(img, params)

        monkeypatch.setattr(ev.roi, "keep_ranges", spy)
        cfg = RunConfig(train_frac=0.5)
        run_evaluation(small_manifest, cfg)
        assert len(seen) == 6  # 3 identities x 2 training samples, no test images


def test_importing_evaluate_leaves_the_generator_unloaded():
    code = "import sys, palmroi.evaluate; print('palmroi.synth' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(palmroi.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def assert_matches_reference(manifest, out, train_frac, seed, n, strip_px, enroll_k):
    """Each image's keep ranges, evaluate's CSV and ROI, and enroll --roi auto's DB and ROI equal the reference's.

    An empty ROI must be one on both sides.
    """
    corpus = oracles.corpus_masks_reference(manifest)
    params = RoiParams(strip_px=strip_px, n=n)
    for entry, mask in corpus:
        h_range, v_range = roi.ranges_from_mask(edge_mask(load_pgm(entry.path)), params)
        got = ((h_range.first, h_range.last), (v_range.first, v_range.last))
        assert got == oracles.strip_ranges_reference(mask, n, strip_px), entry.path

    cfg = RunConfig(roi=params, seed=seed, train_frac=train_frac)
    try:
        expected = oracles.evaluate_reference(corpus, train_frac, seed, (4, 8, 16), n, strip_px)
    except oracles.ReferenceEmptyRoi:
        with pytest.raises(EmptyRoiError):
            run_evaluation(manifest, cfg)
    else:
        result = run_evaluation(manifest, cfg)
        r = result.roi_rect
        assert (result.to_csv(), (r.x0, r.y0, r.width, r.height)) == expected

    argv = ["enroll", "--manifest", str(manifest), "--k", str(enroll_k), "--out", str(out / "db.tsv")]
    argv += ["--roi-out", str(out / "roi.rect"), "--strip-px", str(strip_px), "--n", str(n)]
    args = cli.build_parser().parse_args(argv)
    try:
        db_text, rect = oracles.enroll_reference(corpus, enroll_k, n, strip_px)
    except oracles.ReferenceEmptyRoi:
        with pytest.raises(EmptyRoiError):
            args.func(args)
    else:
        assert args.func(args) == 0
        assert (out / "db.tsv").read_text() == db_text
        assert (out / "roi.rect").read_text() == "{} {} {} {}\n".format(*rect)


@settings(max_examples=4, deadline=None)
@given(
    frame=st.tuples(st.integers(100, 140), st.integers(100, 140), st.integers(6, 10)),
    identities=st.integers(5, 6),
    seed=st.integers(0, 2**32 - 1),
    train_frac=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    n=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    strip_px=st.sampled_from([5, 10, 13]),
    enroll_k=st.sampled_from([4, 8, 16]),
)
def test_generated_corpora_match_the_end_to_end_reference(
    tmp_path_factory, frame, identities, seed, train_frac, n, strip_px, enroll_k
):
    width, height, margin = frame
    out = tmp_path_factory.mktemp("reference")
    manifest, _ = generate_corpus(identities, 4, seed, out / "corpus", width=width, height=height, margin=margin)
    assert_matches_reference(manifest, out, train_frac, seed, n, strip_px, enroll_k)


@pytest.mark.parametrize(
    "bands, train_frac",
    [
        # n = 0 keeps exactly each image's textured 10-px row strips: the firsts 5, 5, 5, 0, 1
        # vote top = 5 and the lasts 5, 6, 7, 1, 1 vote bottom = 1, so the votes cross
        ([(5, 5), (5, 6), (5, 7), (0, 1), (1, 1)], 1.0),
        # no edges: every profile is flat at its threshold, so every strip is kept, every
        # feature vector is zero, and each probe goes to the first enrolled template
        ([None] * 5, 0.5),
    ],
)
def test_hand_built_corpora_match_the_end_to_end_reference(tmp_path, bands, train_frac):
    rng = np.random.default_rng(3)
    entries = []
    for i, band in enumerate(bands):
        img = np.full((100, 100), 128, dtype=np.uint8)
        if band is not None:
            first, last = band
            img[first * 10 + 2 : last * 10 + 8] = rng.integers(0, 2, (10 * (last - first) + 6, 100)) * 255
        entries.append(ManifestEntry(tmp_path / f"{i}.pgm", f"p{i // 3}", f"s{i}"))
        save_pgm(img, entries[-1].path)
    write_manifest(entries, tmp_path / "manifest.tsv")
    assert_matches_reference(tmp_path / "manifest.tsv", tmp_path, train_frac, 0, 0.0, 10, 4)
