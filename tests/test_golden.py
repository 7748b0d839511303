"""Byte-exact outputs of the CLI on the default corpus.

The evaluate CSV, the template DB and the ROI sidecar and crop must not
change when the code behind them does; these values pin them.
"""

import hashlib

import pytest

from palmroi.cli import main

EVALUATE_CSV = (
    "mode,k,total,correct,R\n"
    "full,4,60,50,0.833333\n"
    "full,8,60,59,0.983333\n"
    "full,16,60,60,1.000000\n"
    "roi,4,60,51,0.850000\n"
    "roi,8,60,60,1.000000\n"
    "roi,16,60,60,1.000000\n"
)
ENROLL_DB_SHA256 = "b8c786fde4cdbe1c7d1952a0af1c4a10fd4196ec84a09aa79421a2daaae541d2"
ENROLL_FULL_K16_DB_SHA256 = "07f40238e28ce66ec89ea92b41af3b858498348578c7fb3a4ec2c5c8cf73329b"
ENROLL_FIXED_K8_DB_SHA256 = "e2904918415d84186cebf96827db0ace91d5ded2c978799b7fe847cb6fe3f3cc"
EXTRACT_ROI_CROP_SHA256 = "033962fdc2d9a09fce6f0a2dbd8ff54629238da4bb972281cb17175a475f5d16"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_evaluate_csv(default_corpus, tmp_path, capsys):
    manifest, _ = default_corpus
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_text() == EVALUATE_CSV
    assert capsys.readouterr().out == EVALUATE_CSV


def test_evaluate_resubstitution(default_corpus, capsys):
    manifest, _ = default_corpus
    assert main(["evaluate", "--manifest", str(manifest), "--train-frac", "1.0"]) == 0
    out, err = capsys.readouterr()
    assert out == "mode,k,total,correct,R\n" + "".join(
        f"{mode},{k},120,120,1.000000\n" for mode in ("full", "roi") for k in (4, 8, 16)
    )
    assert err == "# common roi 30 30 320 230; 120 train / 120 test\n"


def test_enroll_auto_db_and_common_roi(default_corpus, tmp_path):
    manifest, _ = default_corpus
    db, rect = tmp_path / "templates.tsv", tmp_path / "common.rect"
    argv = ["enroll", "--manifest", str(manifest), "--k", "16", "--out", str(db), "--roi-out", str(rect)]
    assert main(argv) == 0
    assert sha256(db) == ENROLL_DB_SHA256
    assert rect.read_text() == "30 30 320 230\n"


def test_extract_roi_sidecar_and_crop(default_corpus, tmp_path):
    manifest, _ = default_corpus
    out = tmp_path / "roi.pgm"
    assert main(["extract-roi", str(manifest.parent / "p000_s00.pgm"), "--out", str(out)]) == 0
    assert (tmp_path / "roi.pgm.rect").read_text() == "30 20 320 230\n"
    assert sha256(out) == EXTRACT_ROI_CROP_SHA256


def test_enroll_full_frame_db_and_rect(default_corpus, tmp_path):
    manifest, _ = default_corpus
    db, rect = tmp_path / "templates.tsv", tmp_path / "full.rect"
    argv = ["enroll", "--manifest", str(manifest), "--k", "16", "--roi", "full",
            "--out", str(db), "--roi-out", str(rect)]
    assert main(argv) == 0
    assert sha256(db) == ENROLL_FULL_K16_DB_SHA256
    assert rect.read_text() == "0 0 384 284\n"


@pytest.mark.parametrize("given", ["rect", "sidecar"])
def test_enroll_fixed_rect_db(default_corpus, tmp_path, given):
    manifest, _ = default_corpus
    sidecar = tmp_path / "given.rect"
    sidecar.write_text("30 30 320 230\n")
    spec = "30 30 320 230" if given == "rect" else f"@{sidecar}"
    db = tmp_path / "templates.tsv"
    assert main(["enroll", "--manifest", str(manifest), "--k", "8", "--roi", spec, "--out", str(db)]) == 0
    assert sha256(db) == ENROLL_FIXED_K8_DB_SHA256


def test_enroll_rect_out_of_bounds_names_the_rect(default_corpus, tmp_path, capsys):
    manifest, _ = default_corpus
    argv = ["enroll", "--manifest", str(manifest), "--k", "4", "--roi", "300 200 100 100",
            "--out", str(tmp_path / "templates.tsv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "out of bounds" in err
    assert "RoiRect(x0=300, y0=200, width=100, height=100)" in err
