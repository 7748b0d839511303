"""Independent reference implementations used to pin the library's semantics.

Everything here is deliberately brute-force and shares no code with the
package: flood fill instead of union-find, per-pixel kernel application
instead of vectorized slicing, linear scans instead of the library's paths.
"""

import math

import numpy as np

SOBEL_GX = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
SOBEL_GY = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


def flood_fill_count(mask) -> int:
    """8-connected component count by explicit stack-based flood fill."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
    return count


def sobel_l1_reference(img) -> np.ndarray:
    """Per-pixel 3x3 kernel application; border ring zero."""
    a = np.asarray(img, dtype=np.int64)
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.int64)
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            window = a[y - 1 : y + 2, x - 1 : x + 2]
            gx = int((window * SOBEL_GX).sum())
            gy = int((window * SOBEL_GY).sum())
            out[y, x] = abs(gx) + abs(gy)
    return out


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
