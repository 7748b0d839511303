"""Command-line entry point.

Subcommands: gen-dataset, extract-roi, histcmp, enroll, identify, verify,
evaluate. Exit codes: 0 success, 1 pipeline/domain error (e.g. empty ROI,
degenerate split), 2 usage or I/O error (missing/malformed files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import edges, matcher, roi, synth
from .evaluate import DEFAULT_SEED, RunConfig, run_evaluation
from .features import GRID_SHAPES, extract_features, features_from_mask
from .image import PgmFormatError, RoiRect, crop, full_rect, histogram, histogram_peak, load_pgm, modality, save_pgm


def _add_edge_flag(parser):
    parser.add_argument(
        "--edge-threshold",
        type=int,
        default=edges.DEFAULT_EDGE_THRESHOLD,
        help="Sobel L1 magnitude threshold for edge pixels",
    )


def _add_roi_flags(parser):
    parser.add_argument("--strip-px", type=int, default=roi.RoiParams.strip_px, help="strip width in pixels")
    parser.add_argument("--n", type=float, default=roi.RoiParams.n, help="stddev multiplier in mean - n*stddev")
    _add_edge_flag(parser)


def _roi_params(args) -> roi.RoiParams:
    return roi.RoiParams(args.strip_px, args.n, args.edge_threshold)


def _k_values(text: str) -> tuple[int, ...]:
    """argparse type of ``evaluate --k``: comma-separated keys of GRID_SHAPES."""
    try:
        ks = {int(part) for part in text.split(",")}
        if ks <= GRID_SHAPES.keys():
            return tuple(sorted(ks))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated sizes from {sorted(GRID_SHAPES)}, got {text!r}")


def _parse_rect(text: str) -> RoiRect:
    parts = text.replace(",", " ").split()
    if len(parts) != 4:
        raise ValueError(f"expected 'x0 y0 width height', got {text!r}")
    x0, y0, w, h = (int(p) for p in parts)
    return RoiRect(x0, y0, w, h)


def _resolve_rect(spec: str, mask) -> RoiRect:
    """ROI spec: 'full', '@file' sidecar, or 'x0 y0 w h'."""
    if spec == "full":
        return full_rect(mask)
    if spec.startswith("@"):
        return _parse_rect(Path(spec[1:]).read_text())
    return _parse_rect(spec)


def _rect_line(rect: RoiRect) -> str:
    return f"{rect.x0} {rect.y0} {rect.width} {rect.height}"


def cmd_gen_dataset(args) -> int:
    manifest, entries = synth.generate_corpus(
        args.identities,
        args.samples,
        args.seed,
        args.out,
        width=args.width,
        height=args.height,
    )
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
        f"{modality(h_orig, args.window)},{modality(h_roi, args.window)}"
    )
    return 0


def _image_features(path, rect_spec, k, edge_threshold):
    img = load_pgm(path)
    return extract_features(img, _resolve_rect(rect_spec, img), k, edge_threshold)


def cmd_enroll(args) -> int:
    entries = synth.read_manifest(args.manifest)
    masks = (edges.edge_mask(load_pgm(e.path), args.edge_threshold) for e in entries)
    if args.roi == "auto":
        masks = list(masks)
        params = _roi_params(args)
        rect = roi.common_roi([roi.ranges_from_mask(m, params) for m in masks], params.strip_px)
    samples = []
    for e, m in zip(entries, masks):
        if args.roi != "auto":
            rect = _resolve_rect(args.roi, m)
        samples.append((e.palm_id, e.sample_id, features_from_mask(m, rect, args.k)))
    db = matcher.enroll(samples)
    matcher.save_db(db, args.out)
    if args.roi_out:
        Path(args.roi_out).write_text(_rect_line(rect) + "\n")
    print(f"enrolled {len(db)} templates (k={db.k}, roi {_rect_line(rect)}) into {args.out}")
    return 0


def cmd_identify(args) -> int:
    db = matcher.load_db(args.db)
    feats = _image_features(args.image, args.roi, db.k, args.edge_threshold)
    palm_id, dist = matcher.identify(feats, db, args.metric)
    print(f"{palm_id}\t{dist:.6f}")
    return 0


def cmd_verify(args) -> int:
    db = matcher.load_db(args.db)
    feats = _image_features(args.image, args.roi, db.k, args.edge_threshold)
    accepted = matcher.verify(feats, db, args.claim, args.tau, args.metric)
    print("accept" if accepted else "reject")
    return 0


def cmd_evaluate(args) -> int:
    cfg = RunConfig(
        roi=_roi_params(args),
        k_values=args.k,
        metric=args.metric,
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
    p.add_argument("--identities", type=int, default=10)
    p.add_argument("--samples", type=int, default=12, help="samples per identity")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--width", type=int, default=synth.DEFAULT_WIDTH)
    p.add_argument("--height", type=int, default=synth.DEFAULT_HEIGHT)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("extract-roi", help="write the ROI crop plus a rect sidecar")
    p.add_argument("image", help="input PGM")
    p.add_argument("--out", required=True, help="output PGM (sidecar adds .rect)")
    _add_roi_flags(p)
    p.set_defaults(func=cmd_extract_roi)

    p = sub.add_parser("histcmp", help="compare histograms of an image and its ROI")
    p.add_argument("original")
    p.add_argument("roi")
    p.add_argument("--window", type=int, default=9, help="smoothing window for mode counting")
    p.set_defaults(func=cmd_histcmp)

    p = sub.add_parser("enroll", help="build a template database from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=16, choices=sorted(GRID_SHAPES))
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
    p.add_argument("--db", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--roi", default="full", help="'full', 'x0 y0 w h', or @sidecar-file")
    p.add_argument("--metric", default="euclidean", choices=matcher.METRICS)
    _add_edge_flag(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("verify", help="accept/reject a claimed identity")
    p.add_argument("--db", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--claim", required=True, help="claimed palm id")
    p.add_argument("--tau", type=float, required=True, help="acceptance distance threshold")
    p.add_argument("--roi", default="full", help="'full', 'x0 y0 w h', or @sidecar-file")
    p.add_argument("--metric", default="euclidean", choices=matcher.METRICS)
    _add_edge_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="full-frame vs ROI identification experiment")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write the report CSV here as well as stdout")
    p.add_argument("--k", type=_k_values, default="4,8,16", help="comma-separated feature sizes")
    p.add_argument("--train-frac", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--metric", default="euclidean", choices=matcher.METRICS)
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
