import argparse
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from palmroi import cli
from palmroi.cli import main
from palmroi.evaluate import EvaluationResult, RunConfig
from palmroi.image import ManifestEntry, RoiRect, load_pgm, read_manifest, save_pgm, write_manifest
from palmroi.matcher import enroll, load_db, save_db
from palmroi.synth import generate_corpus


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
            identity_seed_for,
            sample_seed_for,
            sample_translation,
                )

        src = corpus_dir / "p000_s00.pgm"
        out = tmp_path / "roi.pgm"
        assert main(["extract-roi", str(src), "--out", str(out)]) == 0
        x0, y0, w, h = (int(v) for v in capsys.readouterr().out.split())
        model = PalmModel.from_seed(identity_seed_for(5, 0))
        dx, dy = sample_translation(sample_seed_for(5, 0, 0))
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

    @pytest.mark.parametrize("spec", ["auto", "1 2 3", "1 2 3 x", "1_0 2 3 4", "+1 2 3 4"])
    def test_identify_rejects_per_image_auto_like_a_malformed_rect(self, corpus_dir, enrolled, capsys, spec):
        db_path, _ = enrolled
        rc = main(["identify", "--db", str(db_path), "--image", str(corpus_dir / "p000_s00.pgm"), "--roi", spec])
        assert rc == 1
        assert "expected 'x0 y0 width height'" in capsys.readouterr().err


class TestFrameRule:
    """enroll and evaluate reject a manifest whose images differ in size, naming the first that differs."""

    @pytest.fixture(scope="class")
    def mixed(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("mixed")
        _, small = generate_corpus(2, 2, 5, out / "small")
        _, large = generate_corpus(2, 2, 5, out / "large", width=400, height=300)
        manifest = out / "manifest.tsv"
        write_manifest([e for e in small if e.palm_id == "p000"] + [e for e in large if e.palm_id == "p001"], manifest)
        message = f"palmroi: error: {out / 'large' / 'p001_s00.pgm'}: dimensions differ from the rest of the corpus\n"
        return manifest, message

    @pytest.mark.parametrize("spec", ["auto", "full", "30 30 100 100"])
    def test_enroll_exits_1_and_writes_nothing(self, mixed, tmp_path, capsys, spec):
        manifest, message = mixed
        db, rect = tmp_path / "db.tsv", tmp_path / "r.rect"
        argv = ["enroll", "--manifest", str(manifest), "--roi", spec, "--out", str(db), "--roi-out", str(rect)]
        assert main(argv) == 1
        assert capsys.readouterr().err == message
        assert not db.exists() and not rect.exists()

    def test_evaluate_exits_1_with_the_same_message(self, mixed, capsys):
        manifest, message = mixed
        assert main(["evaluate", "--manifest", str(manifest), "--train-frac", "1.0"]) == 1
        assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "spec, code, message",
    [
        ("1 2 3", 1, "expected 'x0 y0 width height', got '1 2 3'"),
        ("1,2,3,4", 1, "expected 'x0 y0 width height', got '1,2,3,4'"),
        ("@missing.rect", 2, "missing.rect"),
    ],
)
def test_enroll_checks_a_fixed_roi_before_reading_images(tmp_path, monkeypatch, capsys, spec, code, message):
    # identify and verify also read the spec before the DB and the image
    monkeypatch.chdir(tmp_path)
    write_manifest([ManifestEntry(tmp_path / f"nope{i}.pgm", f"p{i:03d}", "s00") for i in range(2)], "m.tsv")
    probe = ["--db", "nope.tsv", "--image", "nope0.pgm"]
    for argv in (
        ["enroll", "--manifest", "m.tsv", "--out", "db.tsv"],
        ["identify", *probe],
        ["verify", *probe, "--claim", "p000", "--tau", "0.5"],
    ):
        assert main([*argv, "--roi", spec]) == code
        err = capsys.readouterr().err
        assert message in err and "nope" not in err
    assert not (tmp_path / "db.tsv").exists()


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
            (b"p1\ts0\t+2\t0.500000,1.000000", "k must be an integer, got '+2'"),
            (b"p1\ts0\t0_2\t0.500000,1.000000", "k must be an integer, got '0_2'"),
            (b"p1\ts0\t2\t0.500000,,1.000000", "malformed feature vector"),
            (b"p1\ts0\t2\tnan,nan", "malformed feature vector: 'nan,nan'"),
            (b"p1\ts0\t2\t0.500000,-inf", "malformed feature vector"),
            (b"p1\ts0\t2\t0_5,1.000000", "malformed feature vector: '0_5,1.000000'"),
            (b"p1\ts0\t2\t+0.5,1.000000", "malformed feature vector: '+0.5,1.000000'"),
            (b"p1\ts0\t2\t5e-1,1.000000", "malformed feature vector: '5e-1,1.000000'"),
            (b"p1\t\t2\t0.500000,1.000000", "field 2 is empty or padded with whitespace"),
            (b"p1\t s0\t2\t0.500000,1.000000", "field 2 is empty or padded with whitespace"),
        ],
    )
    def test_bad_db_line(self, corpus_dir, tmp_path, capsys, row, message):
        db = tmp_path / "db.tsv"
        db.write_bytes(b"# header\np0\ts0\t2\t0.500000,1.000000\n" + row + b"\n")
        rc = main(["identify", "--db", str(db), "--image", str(corpus_dir / "p000_s00.pgm")])
        assert rc == 1
        assert f"palmroi: error: {db}:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enroll", "evaluate"])
    @pytest.mark.parametrize("record", ["p001_s00.pgm\t\ts00", "p001_s00.pgm\t p001\ts00"])
    def test_empty_or_padded_manifest_field(self, corpus_dir, tmp_path, capsys, command, record):
        # enroll would save such a field as written, in a DB line that reads back differently
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{corpus_dir / 'p000_s00.pgm'}\tp000\ts00\n{corpus_dir}/{record}\n")
        db = tmp_path / "db.tsv"
        assert main([command, "--manifest", str(manifest), "--out", str(db)]) == 1
        assert f"palmroi: error: {manifest}:2: field 2 is empty or padded with whitespace" in capsys.readouterr().err
        assert not db.exists()


class TestManifestKeys:
    """A repeated (palm_id, sample_id) is exit 1 naming the line that repeats it, before any image is read."""

    @pytest.mark.parametrize("command", ["enroll", "evaluate"])
    def test_a_relabelled_image_names_its_line(self, corpus_dir, tmp_path, capsys, command):
        manifest = tmp_path / "m.tsv"
        relabelled = ManifestEntry(corpus_dir / "p001_s02.pgm", "p000", "s00")
        write_manifest(read_manifest(corpus_dir / "manifest.tsv") + [relabelled], manifest)
        db = tmp_path / "db.tsv"
        assert main([command, "--manifest", str(manifest), "--out", str(db)]) == 1
        assert capsys.readouterr().err == f"palmroi: error: {manifest}:13: duplicate key ('p000', 's00')\n"
        assert not db.exists()

    @pytest.mark.parametrize("command", ["enroll", "evaluate"])
    def test_no_image_is_read_first(self, tmp_path, capsys, command):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("nope0.pgm\tp0\ts0\nnope1.pgm\tp1\ts0\nnope2.pgm\tp0\ts0\n")
        assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "db.tsv")]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}:3: duplicate key ('p0', 's0')" in err and "No such file" not in err


class TestDbConsistency:
    """Whole-DB faults: exit 1, the message names the DB (and the line, where there is one)."""

    def test_comment_only_db_exit_1(self, corpus_dir, tmp_path, capsys):
        db = tmp_path / "db.tsv"
        db.write_text("# palm_id\tsample_id\tk\tfeatures\n")
        rc = main(["identify", "--db", str(db), "--image", str(corpus_dir / "p000_s00.pgm")])
        assert rc == 1
        assert f"palmroi: error: {db}: no templates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"p1\ts1\t4\t0.1,0.2,0.3,0.4", "feature length mismatch: expected 2, got 4"),
            (b"p0\ts0\t2\t0.1,0.2", "duplicate template key ('p0', 's0')"),
        ],
    )
    def test_mixed_k_and_duplicate_key_name_the_line(self, corpus_dir, tmp_path, capsys, row, message):
        db = tmp_path / "db.tsv"
        db.write_bytes(b"# header\np0\ts0\t2\t0.500000,1.000000\n\n" + row + b"\n")
        rc = main(["identify", "--db", str(db), "--image", str(corpus_dir / "p000_s00.pgm")])
        assert rc == 1
        assert f"palmroi: error: {db}:4: {message}" in capsys.readouterr().err


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
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("mode,k,total,correct,R\n")
        assert capsys.readouterr().out == text
        assert len(text.strip().split("\n")) == 7

    def test_duplicate_manifest_entries_exit_1(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "dup.tsv"
        line = f"{corpus_dir / 'p000_s00.pgm'}\tp000\ts00\n"
        other = f"{corpus_dir / 'p001_s00.pgm'}\tp001\ts00\n"
        manifest.write_text(line + line + other + other)
        rc = main(["evaluate", "--manifest", str(manifest), "--train-frac", "1.0"])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err

    def test_defaults_are_the_benchmark_config(self, corpus_dir, monkeypatch):
        # pipebench's paper-eval runs run_evaluation(manifest, RunConfig()) as "evaluate with CLI defaults"
        seen = []

        def fake(manifest, cfg):
            seen.append(cfg)
            return EvaluationResult(rows=[], roi_rect=RoiRect(0, 0, 1, 1), train_count=0, test_count=0)

        monkeypatch.setattr(cli, "run_evaluation", fake)
        assert main(["evaluate", "--manifest", str(corpus_dir / "manifest.tsv")]) == 0
        assert seen == [RunConfig()]


class TestNumericFlags:
    """Numbers that parse as floats or ints but mean nothing fail instead of running."""

    @pytest.mark.parametrize(
        "value", ["0_5", "\u0665", " .5 ", "1e3", ".5", "inf", "nan", pytest.param("9" * 400, id="9x400")]
    )
    @pytest.mark.parametrize(
        "command, flag", [("extract-roi", "--n"), ("verify", "--tau"), ("evaluate", "--train-frac")]
    )
    def test_float_flags_take_an_ascii_decimal(self, corpus_dir, enrolled, tmp_path, capsys, command, flag, value):
        # float() takes each value (the last three as nan or inf); argparse rejects it before any file is touched
        out = str(tmp_path / "out")
        image = str(corpus_dir / "p000_s00.pgm")
        argv = {
            "extract-roi": ["extract-roi", image, "--out", out],
            "verify": ["verify", "--db", str(enrolled[0]), "--image", image, "--claim", "p000"],
            "evaluate": ["evaluate", "--manifest", str(corpus_dir / "manifest.tsv"), "--out", out],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite decimal number, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("extract-roi", "--n", "-1", "n must be finite and >= 0, got -1.0"),
            ("verify", "--tau", "-1", "tau must be >= 0, got -1.0"),
            ("evaluate", "--train-frac", "0", "train_frac must be in (0, 1], got 0.0"),
        ],
    )
    def test_out_of_range_decimal_is_exit_1(
        self, corpus_dir, enrolled, tmp_path, capsys, command, flag, value, message
    ):
        image = str(corpus_dir / "p000_s00.pgm")
        argv = {
            "extract-roi": ["extract-roi", image, "--out", str(tmp_path / "r.pgm")],
            "verify": ["verify", "--db", str(enrolled[0]), "--image", image, "--claim", "p000"],
            "evaluate": ["evaluate", "--manifest", str(corpus_dir / "manifest.tsv")],
        }[command]
        assert main(argv + [flag, value]) == 1
        assert f"palmroi: error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3", "x", "\u0662"])
    def test_workers_below_1_is_a_usage_error(self, corpus_dir, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--manifest", str(corpus_dir / "manifest.tsv"), "--workers", workers])
        assert exc.value.code == 2
        assert f"argument --workers: expected an integer >= 1, got '{workers}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "+1", " 1", "\u0661"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("extract-roi", "--strip-px"),
            ("gen-dataset", "--identities"),
            ("gen-dataset", "--samples"),
            ("gen-dataset", "--seed"),
            ("enroll", "--k"),
            ("evaluate", "--seed"),
        ],
    )
    def test_integer_flags_take_ascii_digits_only(self, tmp_path, capsys, command, flag, value):
        # int() would take each value; argparse rejects it before any file is read or written
        out = str(tmp_path / "out")
        argv = {
            "extract-roi": ["extract-roi", "missing.pgm", "--out", out],
            "gen-dataset": ["gen-dataset", "--out", out],
            "enroll": ["enroll", "--manifest", "missing.tsv", "--out", out],
            "evaluate": ["evaluate", "--manifest", "missing.tsv"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["identify", "verify", "evaluate"])
def test_metric_flag_is_gone(capsys, command):
    # every distance is Euclidean, so the flag that chose one is a usage error
    argv = {
        "identify": ["identify", "--db", "db.tsv", "--image", "p.pgm"],
        "verify": ["verify", "--db", "db.tsv", "--image", "p.pgm", "--claim", "p0", "--tau", "0.5"],
        "evaluate": ["evaluate", "--manifest", "missing.tsv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--metric", "euclidean"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --metric euclidean" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--manifest", "missing.tsv", "--k", "4"],
        ["histcmp", "a.pgm", "b.pgm", "--window", "9"],
        ["gen-dataset", "--out", "c", "--width", "384"],
        ["gen-dataset", "--out", "c", "--height", "284"],
        ["extract-roi", "a.pgm", "--out", "r.pgm", "--edge-threshold", "96"],
        ["enroll", "--manifest", "missing.tsv", "--out", "db.tsv", "--edge-threshold", "96"],
        ["identify", "--db", "db.tsv", "--image", "p.pgm", "--edge-threshold", "96"],
        ["verify", "--db", "db.tsv", "--image", "p.pgm", "--claim", "p0", "--tau", "0.5", "--edge-threshold", "96"],
        ["evaluate", "--manifest", "missing.tsv", "--edge-threshold", "96"],
    ],
)
def test_flags_no_caller_set_are_gone(tmp_path, monkeypatch, capsys, argv):
    # each command runs its default: k 4, 8 and 16, a 9-bin window, a 384x284 frame, edge threshold 96
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


_GRAMMAR_TEXT = st.text(
    alphabet=st.sampled_from([*"0123456789-+._ eE", "\t", "\u0665", "\uff11", "\u096b", "\u00b2"]), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        _GRAMMAR_TEXT,
        st.from_regex(r"-?[0-9]+(\.[0-9]+)?", fullmatch=True),
        st.sampled_from(["inf", "nan", "9" * 400]),
    )
)
@pytest.mark.parametrize(
    "parse, pattern, convert", [(cli._integer, r"-?[0-9]+", int), (cli._decimal, r"-?[0-9]+(\.[0-9]+)?", float)]
)
def test_number_flag_types_accept_exactly_their_ascii_pattern(parse, pattern, convert, text):
    # int() and float() also take '_', '+', padding, exponents and other scripts' digits
    if re.fullmatch(pattern, text) and abs(convert(text)) < math.inf:  # an exact comparison for int too
        assert parse(text) == convert(text)
    else:
        with pytest.raises(argparse.ArgumentTypeError):
            parse(text)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """Good and bad inputs of every format, on blocky 48x40 images."""
    d = tmp_path_factory.mktemp("small")
    rng = np.random.default_rng(3)
    entries = []
    for i in range(2):
        for j in range(2):
            img = (np.kron(rng.integers(0, 2, (6, 5)), np.ones((8, 8))) * 255).astype(np.uint8)
            save_pgm(img, d / f"p{i}_s{j}.pgm")
            entries.append(ManifestEntry(d / f"p{i}_s{j}.pgm", f"p{i}", f"s{j}"))
    write_manifest(entries, d / "manifest.tsv")
    save_db(enroll([("p0", "s0", np.array([0.5, 1.0, 0.0, 0.25]))]), d / "db.tsv")
    (d / "empty.tsv").write_text("# nothing\n")
    (d / "bad.tsv").write_text("p0\ts0\n")
    (d / "bad.pgm").write_bytes(b"P5\n2 x\n255\n")
    (d / "short.pgm").write_bytes(b"P5\n4 4\n255\n\x00")
    (d / "good.rect").write_text("0 0 40 48\n")
    (d / "bad.rect").write_text("0 0 40\n")
    (d / "dir").mkdir()
    return d


class TestExitCodeContract:
    """Random argv fragments: exit 0, 1 or 2, and a failure prints a 'palmroi: error:' line."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_argv(self, small_inputs, capsys, data):
        def path(*names):
            return st.sampled_from(names).map(lambda name: str(small_inputs / name))

        image = path("p0_s0.pgm", "p1_s1.pgm", "bad.pgm", "short.pgm", "missing.pgm", "dir")
        db = path("db.tsv", "empty.tsv", "bad.tsv", "missing.tsv", "p0_s0.pgm")
        manifest = path("manifest.tsv", "bad.tsv", "empty.tsv", "missing.tsv")
        roi = st.one_of(
            st.sampled_from(["full", "auto", "0 0 8 8", "0 0 0 0", "1 2 3", "0 0 999 999"]),
            path("good.rect", "bad.rect", "missing.rect").map(lambda p: "@" + p),
        )
        command = data.draw(st.sampled_from(["extract-roi", "identify", "verify", "enroll", "evaluate"]))
        out = str(small_inputs / "out")
        argv = [command]
        if command == "extract-roi":
            argv += [data.draw(image), "--out", out]
        elif command in ("identify", "verify"):
            argv += ["--db", data.draw(db), "--image", data.draw(image), "--roi", data.draw(roi)]
            if command == "verify":
                argv += ["--claim", data.draw(st.sampled_from(["p0", "p9"])), "--tau", "0.5"]
        else:
            argv += ["--manifest", data.draw(manifest)]
            if command == "enroll":
                argv += ["--out", out, "--roi", data.draw(roi)]
        if command in ("extract-roi", "enroll", "evaluate"):
            argv += ["--strip-px", data.draw(st.sampled_from(["-1", "0", "1", "4", "1000"]))]
            argv += ["--n", data.draw(st.sampled_from(["-1", "0", "1.5"]))]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        if rc:
            assert err.startswith("palmroi: error: ") and err.count("\n") == 1
