import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi import cli, roi, synth
from palmroi.edges import edge_mask
from palmroi.image import load_pgm, read_manifest
from palmroi.synth import (
    PalmModel,
    generate_corpus,
    generate_palm,
    identity_seed_for,
    sample_seed_for,
    sample_translation,
)

# Frozen digests of the default corpus (10 identities x 12 samples, seed 42).
# Any change to the generator, the PRNG, or the renderer must update these
# deliberately; they are what makes corpora comparable across machines.
FIRST_IMAGE_SHA256 = "f363263fd5eb10ee865e2f2d8bb3b6e8db40a62e3592c015f56ab5c4cf4d16b1"
CORPUS_SHA256 = "b02775ee8c849701e316b175a86d0aac007188c4c1f7790c78b4fabcfd474f7b"


def default_model(identity=0, seed=42):
    return PalmModel.from_seed(identity_seed_for(seed, identity))


class TestPalmModel:
    def test_parameters_within_declared_ranges(self):
        for i in range(12):
            model = default_model(i)
            assert 130 <= model.base_gray <= 190
            assert 8 <= len(model.wrinkles) <= 20
            assert len(model.principal_lines) == 3
            for stroke in model.principal_lines:
                assert 3 <= stroke.thickness <= 5
            for stroke in model.wrinkles:
                assert 1 <= stroke.thickness <= 2

    def test_strokes_confined_to_content_box(self):
        for i in range(12):
            model = default_model(i)
            x0, y0, x1, y1 = oracles.stroke_bounding_box(model.principal_lines + model.wrinkles)
            # stamp radius included; translation of up to 6 px must stay inside
            assert x0 - 6 >= 0 and y0 - 6 >= 0
            assert x1 + 6 <= model.width and y1 + 6 <= model.height

    def test_ridge_is_read_only(self):
        model = default_model()
        assert model.ridge.shape == (model.height - 2 * model.margin, model.width - 2 * model.margin)
        assert not model.ridge.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.ridge[0, 0] = 1.0

    def test_frame_too_small_for_margin(self):
        with pytest.raises(ValueError, match="margin"):
            PalmModel.from_seed(1, width=100, height=100, margin=40)
        # a translation of MAX_TRANSLATION could carry the content box out of a narrower margin
        with pytest.raises(ValueError, match="margin 5 is smaller than the max translation 6"):
            PalmModel.from_seed(1, margin=5)


class TestGeneratePalm:
    def test_deterministic(self):
        model = default_model()
        seed = sample_seed_for(42, 0, 0)
        a = generate_palm(model, seed)
        b = generate_palm(model, seed)
        assert (a == b).all()

    @settings(max_examples=50, deadline=None)
    @given(
        width=st.integers(100, 160),
        height=st.integers(100, 160),
        margin=st.integers(6, 30),
        identity_seed=st.integers(0, 2**64 - 1),
        sample_seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2),
    )
    def test_render_matches_reference(self, width, height, margin, identity_seed, sample_seeds):
        first, second = sample_seeds
        model = PalmModel.from_seed(identity_seed, width, height, margin)
        assert generate_palm(model, first).tobytes() == oracles.render_reference(model, first).tobytes()
        strokes = model.wrinkles + model.principal_lines
        curves = [s.curve for s in strokes]
        cached = generate_palm(model, second)
        assert all(s.curve is c for s, c in zip(strokes, curves))  # built once per stroke, not per sample
        fresh = generate_palm(PalmModel.from_seed(identity_seed, width, height, margin), second)
        assert cached.tobytes() == fresh.tobytes() == oracles.render_reference(model, second).tobytes()

    def test_rendering_leaves_the_ridge_unchanged(self):
        model = default_model()
        before = model.ridge.copy()
        for j in range(2):
            generate_palm(model, sample_seed_for(42, 0, j))
        assert model.ridge.tobytes() == before.tobytes()

    def test_clean_render_is_lines_on_constant_background(self, monkeypatch):
        for name in ("MAX_TRANSLATION", "INTENSITY_JITTER", "NOISE_SIGMA"):
            monkeypatch.setattr(synth, name, 0)
        base = default_model()
        model = PalmModel(
            width=base.width,
            height=base.height,
            margin=base.margin,
            base_gray=base.base_gray,
            principal_lines=base.principal_lines,
            wrinkles=(),
            ridge=np.zeros_like(base.ridge),
        )
        img = generate_palm(model, 0)
        values = set(np.unique(img).tolist())
        expected = {model.base_gray} | {s.intensity for s in model.principal_lines}
        assert values == expected
        # every non-background pixel lies inside the line bounding box
        ys, xs = np.nonzero(img != model.base_gray)
        bx0, by0, bx1, by1 = oracles.stroke_bounding_box(model.principal_lines)
        assert xs.min() >= bx0 and xs.max() <= bx1
        assert ys.min() >= by0 and ys.max() <= by1

    def test_margins_carry_only_base_and_noise(self):
        model = default_model(3)
        img = generate_palm(model, sample_seed_for(42, 3, 5))
        guard = model.margin - synth.MAX_TRANSLATION
        border = np.concatenate(
            [
                img[:guard, :].ravel(),
                img[-guard:, :].ravel(),
                img[:, :guard].ravel(),
                img[:, -guard:].ravel(),
            ]
        ).astype(np.float64)
        assert abs(border.mean() - model.base_gray) < 1.0
        assert border.std() < 2 * synth.NOISE_SIGMA

    @pytest.mark.parametrize(
        "frame, match",
        [({"margin": 0}, "margin"), ({"margin": 5}, "margin"), ({"width": 50}, "frame"), ({"height": 99}, "frame")],
        ids=["margin0", "margin5", "width50", "height99"],
    )
    def test_margin_below_max_translation_rejected(self, tmp_path, frame, match):
        # a bad frame also fails before the corpus directory is made
        with pytest.raises(ValueError, match=match):
            generate_corpus(1, 2, 42, tmp_path / "c", **frame)
        assert not (tmp_path / "c").exists()

    def test_margin_equal_to_max_translation_renders(self, tmp_path):
        _, entries = generate_corpus(1, 2, 42, tmp_path / "c", margin=6)
        assert all(load_pgm(e.path).shape == (284, 384) for e in entries)

    def test_identity_separation_in_feature_space(self):
        from palmroi.features import extract_features
        from palmroi.image import RoiRect

        rect = RoiRect(30, 30, 320, 230)
        feats = {}
        for i in range(4):
            model = default_model(i)
            for j in range(3):
                img = generate_palm(model, sample_seed_for(42, i, j))
                feats[(i, j)] = extract_features(img, rect, 16)
        intra, inter = [], []
        keys = sorted(feats)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                d = float(np.linalg.norm(feats[keys[a]] - feats[keys[b]]))
                (intra if keys[a][0] == keys[b][0] else inter).append(d)
        assert np.mean(inter) > np.mean(intra)


class TestCorpus:
    def test_counts_and_manifest(self, tmp_path):
        manifest, entries = generate_corpus(3, 2, 7, tmp_path / "c")
        assert len(entries) == 6
        assert manifest.read_text().count("\n") == 6
        parsed = read_manifest(manifest)
        assert [(e.palm_id, e.sample_id) for e in parsed] == [
            (e.palm_id, e.sample_id) for e in entries
        ]
        for e in parsed:
            assert load_pgm(e.path).shape == (284, 384)

    def test_regeneration_is_byte_identical(self, tmp_path):
        _, a = generate_corpus(2, 2, 9, tmp_path / "a")
        _, b = generate_corpus(2, 2, 9, tmp_path / "b")
        for ea, eb in zip(a, b):
            assert ea.path.read_bytes() == eb.path.read_bytes()

    def test_single_file_matches_direct_generation(self, tmp_path):
        _, entries = generate_corpus(1, 1, 11, tmp_path / "c")
        img = load_pgm(entries[0].path)
        model = PalmModel.from_seed(identity_seed_for(11, 0))
        direct = generate_palm(model, sample_seed_for(11, 0, 0))
        assert (img == direct).all()

    def test_default_corpus_golden_hashes(self, default_corpus):
        _, entries = default_corpus
        assert len(entries) == 120
        first = hashlib.sha256(entries[0].path.read_bytes()).hexdigest()
        assert first == FIRST_IMAGE_SHA256
        whole = hashlib.sha256()
        for e in entries:
            whole.update(e.path.read_bytes())
        assert whole.hexdigest() == CORPUS_SHA256

    def test_relative_output_directory(self, tmp_path, monkeypatch):
        # regression: manifest paths must stay manifest-relative even when
        # the corpus directory itself is given as a relative path
        monkeypatch.chdir(tmp_path)
        manifest, _ = generate_corpus(1, 1, 2, "relcorpus")
        for e in read_manifest(manifest):
            assert load_pgm(e.path).shape == (284, 384)
        assert "relcorpus" not in manifest.read_text()

    def test_bad_counts(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(0, 5, 1, tmp_path / "c")

    def test_bytes_do_not_depend_on_thread_count(self, tmp_path, monkeypatch):
        corpora = []
        for threads in (1, 3):
            monkeypatch.setattr(synth, "_cpu_count", lambda threads=threads: threads)
            manifest, entries = generate_corpus(4, 2, 13, tmp_path / f"t{threads}")
            corpora.append([manifest.read_bytes()] + [e.path.read_bytes() for e in entries])
        assert len(corpora[0]) == 9
        assert corpora[0] == corpora[1]

    def test_ridge_layer_is_built_once_per_identity(self, tmp_path, monkeypatch):
        ridge_layer = synth._ridge_layer
        built = []

        def counting_ridge_layer(*args):
            built.append(args[0])
            return ridge_layer(*args)

        monkeypatch.setattr(synth, "_ridge_layer", counting_ridge_layer)
        generate_corpus(3, 4, 13, tmp_path / "c")
        assert sorted(built) == sorted(identity_seed_for(13, i) for i in range(3))

    def test_render_error_reaches_the_caller(self, tmp_path, monkeypatch):
        failing_seed = sample_seed_for(13, 2, 1)
        error = ValueError("render failed")
        render = synth.generate_palm

        def failing_render(model, sample_seed):
            if sample_seed == failing_seed:
                raise error
            return render(model, sample_seed)

        monkeypatch.setattr(synth, "_cpu_count", lambda: 3)
        monkeypatch.setattr(synth, "generate_palm", failing_render)
        with pytest.raises(ValueError) as caught:
            generate_corpus(4, 2, 13, tmp_path / "c")
        assert caught.value is error
        argv = ["gen-dataset", "--identities", "4", "--samples", "2", "--seed", "13", "--out", str(tmp_path / "d")]
        assert cli.main(argv) == 1


class TestRoiInvariantsOnCorpus:
    """Default-parameter properties the ROI experiment relies on."""

    def test_roi_contains_principal_lines(self, default_corpus):
        _, entries = default_corpus
        params = roi.RoiParams()
        for e in entries:
            identity = int(e.palm_id[1:])
            sample = int(e.sample_id[1:])
            model = PalmModel.from_seed(identity_seed_for(42, identity))
            dx, dy = sample_translation(sample_seed_for(42, identity, sample))
            bx0, by0, bx1, by1 = oracles.stroke_bounding_box(model.principal_lines, dx, dy)
            rect = roi.extract_roi(load_pgm(e.path), params)
            assert rect.x0 <= bx0 and rect.y0 <= by0
            assert bx1 <= rect.x1 and by1 <= rect.y1

    def test_pure_margin_strips_fall_below_threshold(self, default_corpus):
        _, entries = default_corpus
        params = roi.RoiParams()
        guard = 30 - 6  # margin minus max translation: content-free by construction
        for e in entries[::7]:
            img = load_pgm(e.path)
            for orientation, extent in (("horizontal", img.shape[0]), ("vertical", img.shape[1])):
                prof = roi.strip_profile(edge_mask(img), orientation, params)
                for idx, count in enumerate(prof.numlines):
                    lo, hi = idx * params.strip_px, (idx + 1) * params.strip_px
                    if hi <= guard or lo >= extent - guard:
                        assert count < prof.threshold
