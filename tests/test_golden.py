"""Byte-exact outputs of the CLI on the default corpus.

The evaluate CSV, the template DB and the ROI sidecar and crop must not
change when the code behind them does; these values pin them.
"""

import hashlib

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
EXTRACT_ROI_CROP_SHA256 = "033962fdc2d9a09fce6f0a2dbd8ff54629238da4bb972281cb17175a475f5d16"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_evaluate_csv(default_corpus, tmp_path, capsys):
    manifest, _ = default_corpus
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_text() == EVALUATE_CSV
    assert capsys.readouterr().out == EVALUATE_CSV


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
