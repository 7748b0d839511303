import numpy as np
import pytest

import oracles
from palmroi.cli import main
from palmroi.image import load_pgm, save_pgm
from palmroi.matcher import load_db


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorpus")
    rc = main(["gen-dataset", "--identities", "3", "--samples", "4", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


def test_gen_dataset_writes_corpus(corpus_dir):
    assert (corpus_dir / "manifest.tsv").exists()
    assert len(list(corpus_dir.glob("*.pgm"))) == 12


class TestExtractRoi:
    def test_constant_frame(self, tmp_path, capsys, flat_image):
        src = tmp_path / "flat.pgm"
        save_pgm(flat_image, src)
        out = tmp_path / "roi.pgm"
        assert main(["extract-roi", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "0 0 380 280"
        assert (tmp_path / "roi.pgm.rect").read_text().strip() == "0 0 380 280"
        assert load_pgm(out).shape == (280, 380)

    def test_synthetic_palm_sidecar_contains_lines(self, corpus_dir, tmp_path, capsys):
        from palmroi.synth import (
            PalmModel,
            SampleJitter,
            identity_seed_for,
            sample_seed_for,
            sample_translation,
                )

        src = corpus_dir / "p000_s00.pgm"
        out = tmp_path / "roi.pgm"
        assert main(["extract-roi", str(src), "--out", str(out)]) == 0
        x0, y0, w, h = (int(v) for v in capsys.readouterr().out.split())
        model = PalmModel.from_seed(identity_seed_for(5, 0))
        dx, dy = sample_translation(SampleJitter(sample_seed_for(5, 0, 0)))
        bx0, by0, bx1, by1 = oracles.stroke_bounding_box(model.principal_lines, dx, dy)
        assert x0 <= bx0 and y0 <= by0 and bx1 <= x0 + w and by1 <= y0 + h

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        rc = main(["extract-roi", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "o.pgm")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestHistcmp:
    def test_identical_files(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        img = rng.integers(0, 256, (50, 60)).astype(np.uint8)
        p = tmp_path / "img.pgm"
        save_pgm(img, p)
        assert main(["histcmp", str(p), str(p)]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        assert header == "peak_orig,peak_roi,modes_orig,modes_roi"
        po, pr, mo, mr = row.split(",")
        assert po == pr and mo == mr

    def test_constant_image_and_crop_share_peak(self, tmp_path, capsys, flat_image):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        save_pgm(flat_image, a)
        save_pgm(flat_image[:100, :100], b)
        assert main(["histcmp", str(a), str(b)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        po, pr, mo, mr = (int(v) for v in row.split(","))
        assert po == pr == 128
        assert mo == mr == 1


@pytest.fixture(scope="module")
def enrolled(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("db")
    db_path = out / "templates.tsv"
    rect_path = out / "common.rect"
    rc = main(
        [
            "enroll",
            "--manifest",
            str(corpus_dir / "manifest.tsv"),
            "--k",
            "16",
            "--out",
            str(db_path),
            "--roi-out",
            str(rect_path),
        ]
    )
    assert rc == 0
    return db_path, rect_path


class TestEnrollIdentifyVerify:
    def test_enroll_wrote_db_and_rect(self, enrolled):
        db_path, rect_path = enrolled
        db = load_db(db_path)
        assert len(db) == 12 and db.k == 16
        assert len(rect_path.read_text().split()) == 4

    def test_identify_enrolled_sample(self, corpus_dir, enrolled, capsys):
        db_path, rect_path = enrolled
        rc = main(
            [
                "identify",
                "--db",
                str(db_path),
                "--image",
                str(corpus_dir / "p001_s02.pgm"),
                "--roi",
                f"@{rect_path}",
            ]
        )
        assert rc == 0
        palm, dist = capsys.readouterr().out.split()
        assert palm == "p001"
        # stored templates are quantized to 6 decimals, so not exactly zero
        assert float(dist) < 1e-5

    def test_verify_accepts_genuine_and_rejects_imposter(self, corpus_dir, enrolled, capsys):
        db_path, rect_path = enrolled
        # tau just above the 6-decimal storage quantization: an enrolled
        # sample of the claimed palm passes, any other palm is far outside
        genuine = [
            "verify",
            "--db",
            str(db_path),
            "--image",
            str(corpus_dir / "p002_s01.pgm"),
            "--claim",
            "p002",
            "--tau",
            "0.0001",
            "--roi",
            f"@{rect_path}",
        ]
        assert main(genuine) == 0
        assert capsys.readouterr().out.strip() == "accept"
        imposter = list(genuine)
        imposter[imposter.index("p002")] = "p001"
        assert main(imposter) == 0
        assert capsys.readouterr().out.strip() == "reject"

    def test_verify_unknown_claim_is_exit_1(self, corpus_dir, enrolled, capsys):
        db_path, rect_path = enrolled
        rc = main(
            [
                "verify",
                "--db",
                str(db_path),
                "--image",
                str(corpus_dir / "p000_s00.pgm"),
                "--claim",
                "p999",
                "--tau",
                "1.0",
                "--roi",
                f"@{rect_path}",
            ]
        )
        assert rc == 1
        assert "not enrolled" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["auto", "1 2 3"])
    def test_identify_rejects_per_image_auto_like_a_malformed_rect(self, corpus_dir, enrolled, capsys, spec):
        db_path, _ = enrolled
        rc = main(["identify", "--db", str(db_path), "--image", str(corpus_dir / "p000_s00.pgm"), "--roi", spec])
        assert rc == 1
        assert "expected 'x0 y0 width height'" in capsys.readouterr().err


class TestParseErrors:
    """Malformed manifests and template DBs exit 1 with a message that starts with path:line."""

    def test_non_ascii_manifest(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        good = f"{corpus_dir / 'p000_s00.pgm'}\tp000\ts00\n"
        manifest.write_bytes(good.encode() + "p\u00e9\tp001\ts00\n".encode("utf-8"))
        assert main(["evaluate", "--manifest", str(manifest)]) == 1
        assert f"palmroi: error: {manifest}:2: non-ASCII byte 0xc3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"p1\ts0\t2\t0.5,caf\xc3\xa9", "non-ASCII byte 0xc3"),
            (b"p1\ts0\ttwo\t0.500000,1.000000", "k must be an integer, got 'two'"),
            (b"p1\ts0\t2\t0.500000,,1.000000", "malformed feature vector"),
        ],
    )
    def test_bad_db_line(self, corpus_dir, tmp_path, capsys, row, message):
        db = tmp_path / "db.tsv"
        db.write_bytes(b"# header\np0\ts0\t2\t0.500000,1.000000\n" + row + b"\n")
        rc = main(["identify", "--db", str(db), "--image", str(corpus_dir / "p000_s00.pgm")])
        assert rc == 1
        assert f"palmroi: error: {db}:3: {message}" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_csv_and_stdout(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(
            [
                "evaluate",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--out",
                str(out),
                "--k",
                "4,16",
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("mode,k,total,correct,R\n")
        assert capsys.readouterr().out == text
        assert len(text.strip().split("\n")) == 5

    def test_duplicate_manifest_entries_exit_1(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "dup.tsv"
        line = f"{corpus_dir / 'p000_s00.pgm'}\tp000\ts00\n"
        other = f"{corpus_dir / 'p001_s00.pgm'}\tp001\ts00\n"
        manifest.write_text(line + line + other + other)
        rc = main(["evaluate", "--manifest", str(manifest), "--train-frac", "1.0"])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err
