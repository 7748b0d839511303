import os
import subprocess
import sys
from pathlib import Path

import pytest

import palmroi
from palmroi.evaluate import RunConfig, run_evaluation, split_corpus
from palmroi.image import ManifestEntry
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
        cfg = RunConfig(k_values=(4, 16), train_frac=1.0)
        result = run_evaluation(small_manifest, cfg)
        assert len(result.rows) == 4
        for mode, k, total, correct, rate in result.rows:
            assert total == 12 and correct == 12 and rate == 1.0

    def test_csv_shape_and_order(self, small_manifest):
        cfg = RunConfig(k_values=(16, 4), train_frac=0.5)
        text = run_evaluation(small_manifest, cfg).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "mode,k,total,correct,R"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["full", "4"],
            ["full", "16"],
            ["roi", "4"],
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
        cfg = RunConfig(k_values=(4,), train_frac=0.5)
        run_evaluation(small_manifest, cfg)
        assert len(seen) == 6  # 3 identities x 2 training samples, no test images


def test_importing_evaluate_leaves_the_generator_unloaded():
    code = "import sys, palmroi.evaluate; print('palmroi.synth' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(palmroi.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
