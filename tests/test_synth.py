import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi import roi
from palmroi.edges import edge_mask
from palmroi.image import load_pgm
from palmroi.synth import (
    ManifestEntry,
    PalmModel,
    SampleJitter,
    generate_corpus,
    generate_palm,
    identity_seed_for,
    read_manifest,
    sample_seed_for,
    sample_translation,
    write_manifest,
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
            assert 120 <= model.base_gray <= 200
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

    def test_frame_too_small_for_margin(self):
        with pytest.raises(ValueError, match="margin"):
            PalmModel.from_seed(1, width=100, height=100, margin=40)


class TestGeneratePalm:
    def test_deterministic(self):
        model = default_model()
        jitter = SampleJitter(sample_seed_for(42, 0, 0))
        a = generate_palm(model, jitter)
        b = generate_palm(model, jitter)
        assert (a == b).all()

    def test_clean_render_is_lines_on_constant_background(self):
        base = default_model()
        model = PalmModel(
            identity_seed=base.identity_seed,
            width=base.width,
            height=base.height,
            margin=base.margin,
            base_gray=base.base_gray,
            ridge_noise_sigma=0.0,
            ridge_patch_prob=0.0,
            principal_lines=base.principal_lines,
            wrinkles=(),
        )
        img = generate_palm(model, SampleJitter(0, max_translation=0, intensity_jitter=0, noise_sigma=0.0))
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
        jitter = SampleJitter(sample_seed_for(42, 3, 5))
        img = generate_palm(model, jitter)
        guard = model.margin - jitter.max_translation
        border = np.concatenate(
            [
                img[:guard, :].ravel(),
                img[-guard:, :].ravel(),
                img[:, :guard].ravel(),
                img[:, -guard:].ravel(),
            ]
        ).astype(np.float64)
        assert abs(border.mean() - model.base_gray) < 1.0
        assert border.std() < 2 * jitter.noise_sigma

    @pytest.mark.parametrize("margin", [0, 5])
    def test_margin_below_max_translation_rejected(self, tmp_path, margin):
        with pytest.raises(ValueError, match="margin"):
            generate_corpus(1, 2, 42, tmp_path / "c", margin=margin)

    def test_margin_equal_to_max_translation_renders(self, tmp_path):
        _, entries = generate_corpus(1, 2, 42, tmp_path / "c", margin=6)
        assert all(load_pgm(e.path).shape == (284, 384) for e in entries)

    def test_mismatched_frame_rejected(self):
        model = default_model()
        with pytest.raises(ValueError, match="frame"):
            generate_palm(model, SampleJitter(0), width=200, height=200)

    def test_identity_separation_in_feature_space(self):
        from palmroi.features import extract_features
        from palmroi.image import RoiRect

        rect = RoiRect(30, 30, 320, 230)
        feats = {}
        for i in range(4):
            model = default_model(i)
            for j in range(3):
                img = generate_palm(model, SampleJitter(sample_seed_for(42, i, j)))
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
        direct = generate_palm(model, SampleJitter(sample_seed_for(11, 0, 0)))
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

    def test_manifest_round_trip(self, tmp_path):
        _, entries = generate_corpus(2, 2, 3, tmp_path / "c")
        out = tmp_path / "other"
        out.mkdir()
        write_manifest(entries, out / "m.tsv")
        again = read_manifest(out / "m.tsv")
        assert [e.path.resolve() for e in again] == [e.path.resolve() for e in entries]

    def test_bad_counts(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(0, 5, 1, tmp_path / "c")


_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=6)


class TestManifestFile:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(st.tuples(_names, _names, _names), min_size=1, max_size=6),
        fillers=st.lists(st.lists(st.sampled_from(["", "#", "# comment"]), max_size=2), min_size=6, max_size=6),
        eol=st.sampled_from(["\n", "\r\n"]),
    )
    def test_round_trip_with_comments_blanks_and_line_ends(self, tmp_path_factory, rows, fillers, eol):
        out = tmp_path_factory.mktemp("manifest")
        entries = [ManifestEntry(out / f"{name}.pgm", palm, sample) for name, palm, sample in rows]
        path = out / "m.tsv"
        write_manifest(entries, path)
        lines = []
        for filler, record in zip(fillers, path.read_text().splitlines()):
            lines += filler + [record]
        path.write_bytes((eol.join(lines) + eol).encode("ascii"))
        again = read_manifest(path)
        assert [(e.path.resolve(), e.palm_id, e.sample_id) for e in again] == [
            (e.path.resolve(), e.palm_id, e.sample_id) for e in entries
        ]

    def test_surrounding_whitespace_is_stripped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("  a.pgm\tp0\ts0 \t\n \t \n\t# indented comment\n")
        (entry,) = read_manifest(path)
        assert (entry.path, entry.palm_id, entry.sample_id) == (tmp_path / "a.pgm", "p0", "s0")

    def test_wrong_field_count_names_path_and_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# header\na.pgm\tp0\ts0\nb.pgm\tp0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: expected 3 tab-separated fields$"):
            read_manifest(path)

    def test_comment_only_manifest_is_empty(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# nothing here\n\n")
        with pytest.raises(ValueError, match="empty manifest"):
            read_manifest(path)


class TestRoiInvariantsOnCorpus:
    """Default-parameter properties the ROI experiment relies on."""

    def test_roi_contains_principal_lines(self, default_corpus):
        _, entries = default_corpus
        params = roi.RoiParams()
        for e in entries:
            identity = int(e.palm_id[1:])
            sample = int(e.sample_id[1:])
            model = PalmModel.from_seed(identity_seed_for(42, identity))
            jitter = SampleJitter(sample_seed_for(42, identity, sample))
            dx, dy = sample_translation(jitter)
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
                prof = roi.strip_profile(edge_mask(img, params.edge_threshold), orientation, params)
                for idx, count in enumerate(prof.numlines):
                    lo, hi = idx * params.strip_px, (idx + 1) * params.strip_px
                    if hi <= guard or lo >= extent - guard:
                        assert count < prof.threshold
