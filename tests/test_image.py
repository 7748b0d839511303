import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi.image import (
    PgmFormatError,
    RoiRect,
    crop,
    full_rect,
    histogram,
    histogram_peak,
    load_pgm,
    modality,
    save_pgm,
)


class TestPgm:
    def test_decode_2x2(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0x00, 0x7F, 0x80, 0xFF]))
        img = load_pgm(p)
        assert img.tolist() == [[0, 127], [128, 255]]

    def test_encode_1x1(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(np.array([[42]], dtype=np.uint8), p)
        assert p.read_bytes() == b"P5\n1 1\n255\n\x2a"

    def test_frame_file_size(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(np.zeros((284, 384), dtype=np.uint8), p)
        header = b"P5\n384 284\n255\n"
        assert p.stat().st_size == len(header) + 109_056

    def test_round_trip_all_values(self, tmp_path):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        p = tmp_path / "a.pgm"
        save_pgm(img, p)
        again = load_pgm(p)
        assert (again == img).all()
        save_pgm(again, tmp_path / "b.pgm")
        assert (tmp_path / "b.pgm").read_bytes() == p.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pgm(tmp_path / "nope.pgm")

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(PgmFormatError, match="P5"):
            load_pgm(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(PgmFormatError, match="truncated"):
            load_pgm(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 abc\n255\n")
        with pytest.raises(PgmFormatError, match="malformed"):
            load_pgm(p)

    def test_header_comments_accepted(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# made by hand\n1 1\n255\n\x07")
        assert load_pgm(p).tolist() == [[7]]


    def test_comment_is_never_split_into_fields(self, tmp_path):
        # a comment holding "1 1 255" must not be re-read as the three fields
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5 #1 1 255\n\x07")
        with pytest.raises(PgmFormatError, match="malformed"):
            load_pgm(p)
        # nor may a field end at a '#': "1#c" is one (bad) token
        p.write_bytes(b"P5 1#c\n1 1 255\n\x07")
        with pytest.raises(PgmFormatError, match="malformed"):
            load_pgm(p)


_WHITESPACE = b" \t\n\r\x0b\x0c"
_ws_run = st.binary(min_size=1, max_size=3).map(lambda b: bytes(_WHITESPACE[x % 6] for x in b))
_comment = st.binary(max_size=8).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
# a separator starts with whitespace (a '#' right after a digit would be part of the field)
_separator = st.tuples(_ws_run, st.lists(st.one_of(_ws_run, _comment), max_size=3)).map(
    lambda t: t[0] + b"".join(t[1])
)


def _pgm_bytes(width, height, maxval, seps, last_ws, payload):
    fields = [str(width).encode(), str(height).encode(), str(maxval).encode()]
    return b"P5" + b"".join(sep + field for sep, field in zip(seps, fields)) + last_ws + payload


class TestPgmHeaderProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        seps=st.lists(_separator, min_size=3, max_size=3),
        last_ws=st.sampled_from([bytes([c]) for c in _WHITESPACE]),
        data=st.data(),
    )
    def test_whitespace_and_comments_between_fields(self, tmp_path_factory, shape, seps, last_ws, data):
        h, w = shape
        pixels = data.draw(st.binary(min_size=w * h, max_size=w * h))
        p = tmp_path_factory.mktemp("pgm") / "a.pgm"
        p.write_bytes(_pgm_bytes(w, h, 255, seps, last_ws, pixels))
        img = load_pgm(p)
        assert img.shape == (h, w)
        assert img.tobytes() == pixels

    @settings(max_examples=30, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), seps=st.lists(_separator, min_size=3, max_size=3), data=st.data())
    def test_truncated_payload_rejected(self, tmp_path_factory, shape, seps, data):
        h, w = shape
        pixels = data.draw(st.binary(max_size=w * h - 1))
        p = tmp_path_factory.mktemp("pgm") / "a.pgm"
        p.write_bytes(_pgm_bytes(w, h, 255, seps, b"\n", pixels))
        with pytest.raises(PgmFormatError, match="truncated"):
            load_pgm(p)

    @settings(max_examples=30, deadline=None)
    @given(maxval=st.integers(1, 65535).filter(lambda v: v != 255), seps=st.lists(_separator, min_size=3, max_size=3))
    def test_maxval_other_than_255_rejected(self, tmp_path_factory, maxval, seps):
        p = tmp_path_factory.mktemp("pgm") / "a.pgm"
        p.write_bytes(_pgm_bytes(2, 2, maxval, seps, b"\n", bytes(8)))
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(p)


class TestCrop:
    def test_full_rect_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (20, 30)).astype(np.uint8)
        assert (crop(img, full_rect(img)) == img).all()

    def test_central_block(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = crop(img, RoiRect(1, 1, 2, 2))
        assert out.tolist() == [[5, 6], [9, 10]]

    def test_constant_stays_constant(self):
        img = np.full((10, 10), 7, dtype=np.uint8)
        out = crop(img, RoiRect(2, 3, 4, 5))
        assert out.shape == (5, 4) and (out == 7).all()

    def test_out_of_bounds(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="out of bounds"):
            crop(img, RoiRect(2, 2, 3, 3))

    def test_crop_histogram_dominated_by_source(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (40, 50)).astype(np.uint8)
        rect = RoiRect(5, 7, 20, 21)
        h_all, h_crop = histogram(img), histogram(crop(img, rect))
        assert (h_crop <= h_all).all()
        assert h_crop.sum() == rect.width * rect.height


class TestHistogram:
    def test_constant_image(self):
        h = histogram(np.zeros((4, 4), dtype=np.uint8))
        assert h[0] == 16 and h.sum() == 16

    def test_two_values(self):
        h = histogram(np.array([[0, 255]], dtype=np.uint8))
        assert h[0] == 1 and h[255] == 1 and h.sum() == 2

    def test_sum_equals_pixel_count(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (33, 21)).astype(np.uint8)
        assert histogram(img).sum() == 33 * 21

    def test_peak_single(self):
        h = np.zeros(256, dtype=np.int64)
        h[10] = 5
        assert histogram_peak(h) == 10

    def test_peak_tie_breaks_low(self):
        h = np.zeros(256, dtype=np.int64)
        h[10] = 5
        h[200] = 5
        assert histogram_peak(h) == 10

    def test_peak_of_constant_image(self):
        img = np.full((6, 6), 99, dtype=np.uint8)
        assert histogram_peak(histogram(img)) == 99

    def test_peak_empty_histogram(self):
        with pytest.raises(ValueError, match="empty"):
            histogram_peak(np.zeros(256, dtype=np.int64))


def _gaussian_bump(center, height, width_bins=8):
    h = np.zeros(256, dtype=np.int64)
    xs = np.arange(256)
    h += np.rint(height * np.exp(-0.5 * ((xs - center) / width_bins) ** 2)).astype(np.int64)
    return h


class TestModality:
    def test_single_bump(self):
        assert modality(_gaussian_bump(128, 1000)) == 1

    def test_two_bumps_window5_matches_oracle(self):
        h = _gaussian_bump(60, 500, 5) + _gaussian_bump(190, 800, 6)
        assert modality(h, window=5) == oracles.smoothed_local_max_count(h, 5) == 2

    def test_constant_histogram_is_one_plateau(self):
        h = np.full(256, 7, dtype=np.int64)
        assert modality(h, window=5) == 1

    def test_all_zero_histogram_has_no_modes(self):
        assert modality(np.zeros(256, dtype=np.int64)) == 0

    def test_invalid_window(self):
        h = np.ones(256, dtype=np.int64)
        for window in (1, 2, 4):
            with pytest.raises(ValueError, match="window"):
                modality(h, window=window)

    def test_random_histograms_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = rng.integers(0, 40, 256).astype(np.int64)
            h[rng.integers(0, 256, 150)] = 0
            for window in (3, 5, 9):
                assert modality(h, window) == oracles.smoothed_local_max_count(h, window)


class TestRoiRect:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            RoiRect(0, 0, 0, 5)
        with pytest.raises(ValueError):
            RoiRect(-1, 0, 5, 5)
