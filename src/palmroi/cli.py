"""Command-line entry point.

Subcommands: gen-dataset, extract-roi, histcmp, enroll, identify, verify,
evaluate. Exit codes: 0 success, 1 pipeline/domain error (e.g. empty ROI,
degenerate split), 2 usage or I/O error (missing/malformed files).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import edges, image, matcher, roi, synth
from .evaluate import DEFAULT_SEED, RunConfig, run_evaluation
from .features import GRID_SHAPES, extract_features, features_from_mask
from .image import PgmFormatError, RoiRect, crop, full_rect, histogram, histogram_peak, load_pgm, modality, save_pgm


def _add_roi_flags(parser):
    parser.add_argument("--strip-px", type=_integer, default=roi.RoiParams.strip_px, help="strip width in pixels")
    parser.add_argument("--n", type=_decimal, default=roi.RoiParams.n, help="stddev multiplier in mean - n*stddev")


def _add_probe_flags(parser):
    parser.add_argument("--db", required=True)
    parser.add_argument("--image", required=True)
    parser.add_argument("--roi", default="full", help="'full', 'x0 y0 w h', or @sidecar-file")


def _roi_params(args) -> roi.RoiParams:
    return roi.RoiParams(args.strip_px, args.n)


def _is_decimal(text: str) -> bool:
    """True for ASCII digits only: int() also takes a sign, '_' and other scripts' digits."""
    return text.isascii() and text.isdigit()


def _integer(text: str) -> int:
    """argparse type of the integer flags: ASCII digits after an optional '-'; each layer checks its own range."""
    if not _is_decimal(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _decimal(text: str) -> float:
    """argparse type of the float flags: the DB value grammar with a finite value; each layer checks its own range."""
    if not (re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", text) and math.isfinite(float(text))):
        raise argparse.ArgumentTypeError(f"expected a finite decimal number, got {text!r}")
    return float(text)


def _workers(text: str) -> int:
    """argparse type of ``evaluate --workers``: an integer >= 1."""
    if not _is_decimal(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_rect(text: str) -> RoiRect:
    parts = text.split()
    if len(parts) != 4 or not all(map(_is_decimal, parts)):
        raise ValueError(f"expected 'x0 y0 width height', got {text!r}")
    return RoiRect(*map(int, parts))


def _fixed_rect(spec: str) -> RoiRect | None:
    """ROI spec read before any image: None for 'full' (the frame), else an '@file' sidecar or 'x0 y0 w h'."""
    if spec == "full":
        return None
    if spec.startswith("@"):
        return _parse_rect(Path(spec[1:]).read_text())
    return _parse_rect(spec)


def _rect_line(rect: RoiRect) -> str:
    return f"{rect.x0} {rect.y0} {rect.width} {rect.height}"


def cmd_gen_dataset(args) -> int:
    manifest, entries = synth.generate_corpus(args.identities, args.samples, args.seed, args.out)
    print(f"wrote {len(entries)} images and {manifest}")
    return 0


def cmd_extract_roi(args) -> int:
    img = load_pgm(args.image)
    rect = roi.extract_roi(img, _roi_params(args))
    save_pgm(crop(img, rect), args.out)
    sidecar = Path(str(args.out) + ".rect")
    sidecar.write_text(_rect_line(rect) + "\n")
    print(_rect_line(rect))
    return 0


def cmd_histcmp(args) -> int:
    h_orig = histogram(load_pgm(args.original))
    h_roi = histogram(load_pgm(args.roi))
    print("peak_orig,peak_roi,modes_orig,modes_roi")
    print(
        f"{histogram_peak(h_orig)},{histogram_peak(h_roi)},"
        f"{modality(h_orig)},{modality(h_roi)}"
    )
    return 0


def _probe(args):
    """(DB, features of the probe image); a bad ``--roi`` spec fails before the DB or the image is read."""
    rect = _fixed_rect(args.roi)
    db = matcher.load_db(args.db)
    img = load_pgm(args.image)
    return db, extract_features(img, full_rect(img) if rect is None else rect, db.k)


def cmd_enroll(args) -> int:
    entries = image.read_manifest(args.manifest)
    params = _roi_params(args)
    auto = args.roi == "auto"
    # A literal or @file rect is read before any image, so a bad spec fails first.
    fixed = None if auto else _fixed_rect(args.roi)
    masks = (edges.edge_mask(load_pgm(e.path)) for e in entries)
    # Each mask waits packed for the frame check and the rect; auto fits the rect to every image's ranges.
    prepared = [(full_rect(m), roi.ranges_from_mask(m, params) if auto else None, edges.pack_mask(m)) for m in masks]
    frame = image.same_frame(entries, [f for f, _, _ in prepared])
    if auto:
        rect = roi.common_roi([r for _, r, _ in prepared], params.strip_px)
    else:
        rect = frame if fixed is None else fixed
    db = matcher.enroll(
        (e.palm_id, e.sample_id, features_from_mask(edges.unpack_mask(packed), rect, args.k))
        for e, (_, _, packed) in zip(entries, prepared)
    )
    matcher.save_db(db, args.out)
    if args.roi_out:
        Path(args.roi_out).write_text(_rect_line(rect) + "\n")
    print(f"enrolled {len(db)} templates (k={db.k}, roi {_rect_line(rect)}) into {args.out}")
    return 0


def cmd_identify(args) -> int:
    db, feats = _probe(args)
    palm_id, dist = matcher.identify(feats, db)
    print(f"{palm_id}\t{dist:.6f}")
    return 0


def cmd_verify(args) -> int:
    db, feats = _probe(args)
    accepted = matcher.verify(feats, db, args.claim, args.tau)
    print("accept" if accepted else "reject")
    return 0


def cmd_evaluate(args) -> int:
    cfg = RunConfig(
        roi=_roi_params(args),
        seed=args.seed,
        train_frac=args.train_frac,
        workers=args.workers,
    )
    result = run_evaluation(args.manifest, cfg)
    csv_text = result.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text)
    sys.stdout.write(csv_text)
    print(
        f"# common roi {_rect_line(result.roi_rect)}; "
        f"{result.train_count} train / {result.test_count} test",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palmroi", description="Palm-print ROI extraction and matching toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a synthetic palm corpus")
    p.add_argument("--identities", type=_integer, default=10)
    p.add_argument("--samples", type=_integer, default=12, help="samples per identity")
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("extract-roi", help="write the ROI crop plus a rect sidecar")
    p.add_argument("image", help="input PGM")
    p.add_argument("--out", required=True, help="output PGM (sidecar adds .rect)")
    _add_roi_flags(p)
    p.set_defaults(func=cmd_extract_roi)

    p = sub.add_parser("histcmp", help="compare histograms of an image and its ROI")
    p.add_argument("original")
    p.add_argument("roi")
    p.set_defaults(func=cmd_histcmp)

    p = sub.add_parser("enroll", help="build a template database from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=_integer, default=16, choices=sorted(GRID_SHAPES))
    p.add_argument("--out", required=True, help="output template DB file")
    p.add_argument(
        "--roi",
        default="auto",
        help="'auto' (fit common ROI), 'full', 'x0 y0 w h', or @sidecar-file",
    )
    p.add_argument("--roi-out", help="also write the fitted rect to this file")
    _add_roi_flags(p)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("identify", help="1-NN identification of a probe image")
    _add_probe_flags(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("verify", help="accept/reject a claimed identity")
    _add_probe_flags(p)
    p.add_argument("--claim", required=True, help="claimed palm id")
    p.add_argument("--tau", type=_decimal, required=True, help="acceptance distance threshold")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="full-frame vs ROI identification experiment")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write the report CSV here as well as stdout")
    p.add_argument("--train-frac", type=_decimal, default=0.5)
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    p.add_argument("--workers", type=_workers, default=1)
    _add_roi_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PgmFormatError) as exc:  # PgmFormatError is a ValueError: test it first
        print(f"palmroi: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # includes roi.EmptyRoiError
        print(f"palmroi: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
