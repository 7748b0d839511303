"""Independent reference implementations used to pin the library's semantics.

Everything here is deliberately brute-force and shares no code with the
package: flood fill instead of union-find, per-pixel kernel application
instead of vectorized slicing, linear scans instead of the library's paths.
The one exception is the end-to-end reference's train/test split, which
calls ``evaluate.split_corpus``: the split is the specification.
"""

import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from palmroi.evaluate import split_corpus

SOBEL_GX = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
SOBEL_GY = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


def flood_fill_count(mask) -> int:
    """8-connected component count by explicit stack-based flood fill."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    # Python lists, which index several times faster than numpy, with a False ring so that
    # every neighbour is in range; a pixel is cleared when the fill reaches it
    grid = [[False] * (w + 2)] + [[False, *row, False] for row in mask.tolist()] + [[False] * (w + 2)]
    count = 0
    for sy in range(1, h + 1):
        for sx in range(1, w + 1):
            if not grid[sy][sx]:
                continue
            count += 1
            grid[sy][sx] = False
            stack = [(sy, sx)]
            while stack:
                y, x = stack.pop()
                for ny in (y - 1, y, y + 1):
                    for nx in (x - 1, x, x + 1):
                        if grid[ny][nx]:
                            grid[ny][nx] = False
                            stack.append((ny, nx))
    return count


def sobel_l1_reference(img) -> np.ndarray:
    """Per-pixel 3x3 kernel application; border ring zero."""
    a = np.asarray(img, dtype=np.int64)
    h, w = a.shape
    a = a.tolist()  # Python lists: indexing them is several times faster than indexing numpy
    kx, ky = SOBEL_GX.tolist(), SOBEL_GY.tolist()
    out = [[0] * w for _ in range(h)]
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            gx = gy = 0
            for i in range(3):
                for j in range(3):
                    v = a[y - 1 + i][x - 1 + j]
                    gx += kx[i][j] * v
                    gy += ky[i][j] * v
            out[y][x] = abs(gx) + abs(gy)
    return np.array(out, dtype=np.int64).reshape(h, w)


def smoothed_local_max_count(hist, window) -> int:
    """Brute-force mode count: windowed sum then plateau-aware scan."""
    h = np.asarray(hist, dtype=np.int64)
    n = len(h)
    half = window // 2
    smooth = np.array(
        [h[max(0, i - half) : min(n, i + half + 1)].sum() for i in range(n)], dtype=np.int64
    )
    # zero-padding semantics: the window always spans `window` bins
    # conceptually; bins beyond the ends contribute zero, which the
    # truncated slice sum above already matches.
    modes = 0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and smooth[j + 1] == smooth[i]:
            j += 1
        if (
            (i == 0 or smooth[i - 1] < smooth[i])
            and (j == n - 1 or smooth[j + 1] < smooth[i])
            and smooth[i] > 0
        ):
            modes += 1
        i = j + 1
    return modes


def nearest_template_linear(query, templates, offset=0.0):
    """(index, distance) by exhaustive scan; optional constant distance offset."""
    best_i, best_d = None, None
    for i, vec in enumerate(templates):
        d = float(np.sqrt(((np.asarray(query) - np.asarray(vec)) ** 2).sum())) + offset
        if best_d is None or d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def distance_reference(a, b) -> float:
    """Euclidean distance by numpy's whole-array reductions: sqrt of the summed squares."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.sum((a - b) ** 2)))


def rect_contains(outer, inner) -> bool:
    """True if RoiRect inner lies entirely inside RoiRect outer."""
    return (
        outer.x0 <= inner.x0
        and outer.y0 <= inner.y0
        and inner.x1 <= outer.x1
        and inner.y1 <= outer.y1
    )


def stroke_bounding_box(strokes, dx=0, dy=0):
    """(x_min, y_min, x_max, y_max) over control points plus stamp radius."""
    xs, ys, pad = [], [], 0
    for s in strokes:
        for x, y in (s.p0, s.p1, s.p2):
            xs.append(x + dx)
            ys.append(y + dy)
        pad = max(pad, int(math.ceil(s.thickness / 2.0)))
    return (
        int(math.floor(min(xs))) - pad,
        int(math.floor(min(ys))) - pad,
        int(math.ceil(max(xs))) + pad,
        int(math.ceil(max(ys))) + pad,
    )


def box_muller_normal(rng, mu=0.0, sigma=1.0) -> float:
    """One Gaussian draw from a SplitMix64 stream: Box-Muller cosine branch, two u64s."""
    u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
    u2 = (rng.next_u64() >> 11) * 2.0**-53  # [0, 1)
    return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def normal_field_reference(seed, shape, sigma=1.0) -> np.ndarray:
    """Box-Muller field over the whole array at once: element i (row-major) from SplitMix64 outputs 2i and 2i + 1."""
    m = int(np.prod(shape))
    z = np.uint64(int(seed) % 2**64) + np.uint64(0x9E3779B97F4A7C15) * np.arange(1, 2 * m + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = z ^ (z >> np.uint64(31))
    u1 = ((u[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (u[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (sigma * (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))).reshape(shape)


def _finalize_reference(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def _splitmix_outputs(seed):
    """Endless SplitMix64 outputs of `seed`, scalar Python ints."""
    state = int(seed) % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        yield _finalize_reference(state)


def _mix_reference(*values) -> int:
    """The tagged seed fold: each value is added to the accumulator, which is then finalized."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        acc = _finalize_reference((acc + int(v) % 2**64) % 2**64)
    return acc


def _randint_reference(outputs, lo, hi) -> int:
    return lo + next(outputs) % (hi - lo + 1)


def render_reference(model, sample_seed) -> np.ndarray:
    """One sample of a synth.PalmModel, rendered from the generator's specification.

    Per sample it draws the shift (tag 0x11, up to 6 px per axis) and one
    wobble per stroke (tag 0x13, up to 10 gray levels), adds the model's ridge
    layer at the shifted content box, builds each stroke's quadratic curve,
    stamps one disc offset at a time, adds the whole-array sensor noise
    (tag 0x12, stddev 3) and rounds and clips into a new array.
    """
    shift = _splitmix_outputs(_mix_reference(sample_seed, 0x11))
    dx, dy = _randint_reference(shift, -6, 6), _randint_reference(shift, -6, 6)
    wobble = _splitmix_outputs(_mix_reference(sample_seed, 0x13))
    h, w = model.height, model.width
    canvas = np.full((h, w), float(model.base_gray))
    ih, iw = model.ridge.shape
    canvas[model.margin + dy : model.margin + dy + ih, model.margin + dx : model.margin + dx + iw] += model.ridge
    for stroke in model.wrinkles + model.principal_lines:
        value = float(min(max(stroke.intensity + _randint_reference(wobble, -10, 10), 0), 255))
        (x0, y0), (x1, y1), (x2, y2) = stroke.p0, stroke.p1, stroke.p2
        t = np.linspace(0.0, 1.0, max(16, int(2 * (math.hypot(x1 - x0, y1 - y0) + math.hypot(x2 - x1, y2 - y1)))))
        omt = 1.0 - t
        xi = np.rint(omt * omt * x0 + 2 * omt * t * x1 + t * t * x2 + dx).astype(np.int64)
        yi = np.rint(omt * omt * y0 + 2 * omt * t * y1 + t * t * y2 + dy).astype(np.int64)
        r = stroke.thickness / 2.0
        span = int(math.ceil(r))
        for oy in range(-span, span + 1):
            for ox in range(-span, span + 1):
                if oy * oy + ox * ox <= r * r:
                    ok = (yi + oy >= 0) & (yi + oy < h) & (xi + ox >= 0) & (xi + ox < w)
                    canvas[yi[ok] + oy, xi[ok] + ox] = value
    canvas = canvas + normal_field_reference(_mix_reference(sample_seed, 0x12), (h, w), 3.0)
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# End-to-end reference: manifest -> edge masks -> strip profiles -> trim ->
# boundary vote -> grid features -> linear 1-NN -> the evaluate CSV, and the
# template DB of `enroll --roi auto`.

_GRID_SHAPES = {4: (2, 2), 8: (2, 4), 16: (4, 4)}

_Entry = namedtuple("Entry", "path palm_id sample_id")


class ReferenceEmptyRoi(Exception):
    """The reference's empty ROI: every strip of an orientation below threshold, or crossed boundary votes."""


def _pgm_pixels_reference(path) -> np.ndarray:
    """A P5 PGM without header comments: the pixels are the file's last width * height bytes."""
    data = Path(path).read_bytes()
    _, width, height, _ = data.split(maxsplit=4)[:4]
    w, h = int(width), int(height)
    return np.frombuffer(data[len(data) - w * h :], dtype=np.uint8).reshape(h, w)


def corpus_masks_reference(manifest):
    """[(entry with path, palm_id and sample_id, edge mask)] in manifest order; the mask is the per-pixel Sobel >= 96."""
    corpus = []
    for line in Path(manifest).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rel, palm_id, sample_id = line.split("\t")
            entry = _Entry(Path(manifest).parent / rel, palm_id, sample_id)
            corpus.append((entry, sobel_l1_reference(_pgm_pixels_reference(entry.path)) >= 96))
    return corpus


def _kept_strips(counts, n, orientation):
    """(first, last) strip with count >= mean - n * population stddev, by plain-Python statistics."""
    mean = sum(counts) / len(counts)
    stddev = math.sqrt(sum((c - mean) ** 2 for c in counts) / len(counts))
    kept = [i for i, c in enumerate(counts) if c >= mean - n * stddev]
    if not kept:
        raise ReferenceEmptyRoi(f"every {orientation} strip below threshold")
    return kept[0], kept[-1]


def strip_ranges_reference(mask, n, strip_px):
    """(rows kept, columns kept) of one mask: whole strip_px-wide strips, the remainder dropped."""
    h, w = mask.shape
    rows = [flood_fill_count(mask[y : y + strip_px, :]) for y in range(0, h - strip_px + 1, strip_px)]
    cols = [flood_fill_count(mask[:, x : x + strip_px]) for x in range(0, w - strip_px + 1, strip_px)]
    return _kept_strips(rows, n, "horizontal"), _kept_strips(cols, n, "vertical")


def _most_frequent(values, prefer_small):
    """The most frequent value; a tie goes to the smallest (prefer_small) or the largest."""
    return min(set(values), key=lambda v: (-values.count(v), v if prefer_small else -v))


def _voted_rect(ranges, strip_px):
    """(x0, y0, width, height) of the per-boundary votes over [(rows kept, columns kept)]."""
    top = _most_frequent([r[0] for r, _ in ranges], prefer_small=True)
    bottom = _most_frequent([r[1] for r, _ in ranges], prefer_small=False)
    left = _most_frequent([c[0] for _, c in ranges], prefer_small=True)
    right = _most_frequent([c[1] for _, c in ranges], prefer_small=False)
    if top > bottom or left > right:
        raise ReferenceEmptyRoi("boundary votes cross")
    return left * strip_px, top * strip_px, (right - left + 1) * strip_px, (bottom - top + 1) * strip_px


def _grid_features(mask, rect, k):
    """Flood-fill counts of the k grid cells over rect, row-major, divided by the largest (all 0 if it is 0)."""
    x0, y0, w, h = rect
    rows, cols = _GRID_SHAPES[k]
    ys = [y0 + i * (h // rows) for i in range(rows)] + [y0 + h]
    xs = [x0 + j * (w // cols) for j in range(cols)] + [x0 + w]
    counts = [flood_fill_count(mask[ys[i] : ys[i + 1], xs[j] : xs[j + 1]]) for i in range(rows) for j in range(cols)]
    peak = max(counts)
    return [c / peak if peak else 0.0 for c in counts]


def evaluate_reference(corpus, train_frac, seed, k_values, n, strip_px):
    """(CSV text, ROI rect) of the before/after-ROI experiment on ``corpus_masks_reference`` output.

    The ROI is voted from the training images' strip ranges; per (mode, k)
    every test image is identified by linear 1-NN over the training templates.
    """
    masks = dict(corpus)
    train, test = split_corpus([entry for entry, _ in corpus], train_frac, seed)
    rect = _voted_rect([strip_ranges_reference(masks[e], n, strip_px) for e in train], strip_px)
    h, w = corpus[0][1].shape
    lines = ["mode,k,total,correct,R"]
    for mode, mode_rect in (("full", (0, 0, w, h)), ("roi", rect)):
        for k in sorted(k_values):
            templates = [_grid_features(masks[e], mode_rect, k) for e in train]
            correct = 0
            for e in test:
                i, _ = nearest_template_linear(_grid_features(masks[e], mode_rect, k), templates)
                correct += train[i].palm_id == e.palm_id
            lines.append(f"{mode},{k},{len(test)},{correct},{correct / len(test):.6f}")
    return "\n".join(lines) + "\n", rect


def enroll_reference(corpus, k, n, strip_px):
    """(DB file text, ROI rect) of ``enroll --roi auto``: the ROI is voted over every image."""
    rect = _voted_rect([strip_ranges_reference(mask, n, strip_px) for _, mask in corpus], strip_px)
    lines = ["# palm_id\tsample_id\tk\tfeatures"]
    for entry, mask in corpus:
        values = ",".join(f"{v:.6f}" for v in _grid_features(mask, rect, k))
        lines.append(f"{entry.palm_id}\t{entry.sample_id}\t{k}\t{values}")
    return "\n".join(lines) + "\n", rect
