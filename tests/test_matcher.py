import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi.matcher import (
    accuracy,
    distance,
    enroll,
    identify,
    load_db,
    save_db,
    verify,
)


def vec(*values):
    return np.array(values, dtype=np.float64)


class TestEnroll:
    def test_empty_db_is_valid_but_unqueryable(self):
        db = enroll([])
        assert len(db) == 0
        with pytest.raises(ValueError, match="empty"):
            identify(vec(0.0), db)

    def test_same_palm_different_samples(self):
        db = enroll([("p0", "s0", vec(1, 0)), ("p0", "s1", vec(0, 1))])
        assert len(db) == 2 and db.k == 2

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            enroll([("p0", "s0", np.zeros(4)), ("p1", "s0", np.zeros(8))])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            enroll([("p0", "s0", vec(1.0)), ("p0", "s0", vec(2.0))])


class TestDistance:
    def test_identity(self):
        x = vec(0.3, 0.7, 0.1)
        assert distance(x, x) == 0.0

    def test_unit_case(self):
        assert distance(vec(0, 0), vec(1, 0)) == 1.0

    def test_three_four_five(self):
        assert distance(vec(0, 0), vec(3 / 5, 4 / 5)) == pytest.approx(1.0, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distance(vec(1, 2), vec(1, 2, 3))

    def test_unknown_metric(self):
        # identify keeps a positional metric only for pipebench's checked_identify, and it must be Euclidean
        db = enroll([("p0", "s0", vec(0.0)), ("p1", "s0", vec(2.0))])
        assert identify(vec(1.5), db, "euclidean") == identify(vec(1.5), db) == ("p1", 0.5)
        for metric in ("cosine", "Euclidean"):
            with pytest.raises(ValueError, match=f"metric '{metric}'"):
                identify(vec(1.5), db, metric)

    def test_metric_axioms_on_randoms(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            a, b, c = (rng.random(8) for _ in range(3))
            dab, dba = distance(a, b), distance(b, a)
            assert dab == dba
            assert dab >= 0
            assert distance(a, a) == 0.0
            assert distance(a, c) <= dab + distance(b, c) + 1e-12
        x = rng.random(8)
        y = x.copy()
        y[3] += 1e-9
        assert distance(x, y) > 0  # zero only for equal vectors


@st.composite
def vector_pairs(draw):
    """Two float vectors of one length in 1..16; sometimes equal."""
    n = draw(st.integers(1, 16))
    values = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)
    a = np.array(draw(values), dtype=np.float64)
    b = a.copy() if draw(st.booleans()) else np.array(draw(values), dtype=np.float64)
    return a, b


class TestDistanceBitExact:
    """distance is bit-identical to the reference, so ties and digests cannot drift by an ULP."""

    @settings(max_examples=200, deadline=None)
    @given(vector_pairs())
    def test_equals_reference(self, pair):
        a, b = pair
        assert distance(a, b) == oracles.distance_reference(a, b)


class TestIdentify:
    def test_exact_match_wins_with_zero_distance(self):
        db = enroll([("p0", "s0", vec(0.2, 0.8)), ("p1", "s0", vec(0.9, 0.1))])
        palm, d = identify(vec(0.9, 0.1), db)
        assert palm == "p1" and d == 0.0

    def test_tie_goes_to_first_enrolled(self):
        db = enroll([("pa", "s0", vec(1.0, 0.0)), ("pb", "s0", vec(0.0, 1.0))])
        palm, d = identify(vec(0.0, 0.0), db)
        assert palm == "pa" and d == 1.0

    def test_nan_distance_is_never_less(self):
        # as in a first-to-last scan: a later NaN never wins, and a first NaN is never beaten
        db = enroll([("p0", "s0", vec(1.0, 0.0)), ("p1", "s0", vec(np.nan, 0.0)), ("p2", "s0", vec(0.5, 0.0))])
        assert identify(vec(0.0, 0.0), db) == ("p2", 0.5)
        palm, d = identify(vec(0.0, 0.0), enroll([("p0", "s0", vec(np.nan, 0.0)), ("p1", "s0", vec(0.5, 0.0))]))
        assert palm == "p0" and np.isnan(d)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            vectors = [rng.random(4) for _ in range(n)]
            db = enroll([(f"p{i}", "s0", v) for i, v in enumerate(vectors)])
            query = rng.random(4)
            best_i, best_d = oracles.nearest_template_linear(query, vectors)
            palm, d = identify(query, db)
            assert palm == f"p{best_i}"
            assert d == pytest.approx(best_d, rel=1e-12)

    def test_argmin_invariant_under_constant_offset(self):
        rng = np.random.default_rng(53)
        for offset in (0.0, 0.25, 3.0):
            vectors = [rng.random(6) for _ in range(8)]
            db = enroll([(f"p{i}", "s0", v) for i, v in enumerate(vectors)])
            query = rng.random(6)
            best_i, _ = oracles.nearest_template_linear(query, vectors, offset=offset)
            assert identify(query, db)[0] == f"p{best_i}"

    def test_enrolled_vector_identifies_itself(self):
        rng = np.random.default_rng(54)
        vectors = [rng.random(16) for _ in range(20)]
        db = enroll([(f"p{i % 5}", f"s{i}", v) for i, v in enumerate(vectors)])
        for i, v in enumerate(vectors):
            assert identify(v, db)[0] == f"p{i % 5}"

    def test_length_mismatch(self):
        db = enroll([("p0", "s0", vec(1, 2))])
        with pytest.raises(ValueError, match="mismatch"):
            identify(vec(1, 2, 3), db)


class TestVerify:
    def setup_method(self):
        self.db = enroll(
            [
                ("p0", "s0", vec(0.1, 0.2)),
                ("p0", "s1", vec(0.2, 0.1)),
                ("p1", "s0", vec(0.9, 0.9)),
            ]
        )

    def test_exact_sample_accepts_at_tau_zero(self):
        assert verify(vec(0.2, 0.1), self.db, "p0", tau=0.0)

    def test_negative_zero_tau_accepts_and_negative_tau_is_rejected(self):
        assert verify(vec(0.2, 0.1), self.db, "p0", tau=-0.0)
        with pytest.raises(ValueError, match="tau must be >= 0"):
            verify(vec(0.2, 0.1), self.db, "p0", tau=-1e-12)
        with pytest.raises(ValueError, match="tau must be a number, got nan"):
            verify(vec(0.2, 0.1), self.db, "p0", tau=float("nan"))

    def test_no_exact_match_rejects_at_tau_zero(self):
        assert not verify(vec(0.15, 0.15), self.db, "p0", tau=0.0)

    def test_huge_tau_always_accepts(self):
        assert verify(vec(0.99, 0.01), self.db, "p1", tau=1e9)

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="not enrolled"):
            verify(vec(0.1, 0.1), self.db, "p7", tau=1.0)

    def test_uses_nearest_template_of_claimed_palm(self):
        # query close to p0/s1 but far from p0/s0
        assert verify(vec(0.21, 0.1), self.db, "p0", tau=0.02)


class TestAccuracy:
    def test_fifty_four_of_sixty(self):
        pairs = [("a", "a")] * 54 + [("a", "b")] * 6
        report = accuracy(pairs)
        assert report.total == 60 and report.correct == 54
        assert report.R == 0.90
        assert report.R * report.total == report.correct

    def test_all_correct(self):
        report = accuracy([("x", "x")] * 7)
        assert report.R == 1.0

    def test_none_correct(self):
        report = accuracy([("x", "y")] * 10)
        assert report.R == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([])


class TestDbFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(55)
        db = enroll([(f"p{i}", f"s{j}", rng.random(8)) for i in range(3) for j in range(2)])
        path = tmp_path / "templates.tsv"
        save_db(db, path)
        again = load_db(path)
        assert again.k == 8 and len(again) == 6
        for a, b in zip(db.templates, again.templates):
            assert (a.palm_id, a.sample_id) == (b.palm_id, b.sample_id)
            assert np.abs(a.features - b.features).max() <= 5e-7

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("# header\n\np0\ts0\t2\t0.500000,1.000000\n")
        db = load_db(path)
        assert len(db) == 1 and db.templates[0].features.tolist() == [0.5, 1.0]

    def test_declared_k_mismatch(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("p0\ts0\t3\t0.500000,1.000000\n")
        with pytest.raises(ValueError, match="declared k"):
            load_db(path)

    def test_palm_id_starting_with_hash_rejected_before_writing(self, tmp_path):
        path = tmp_path / "db.tsv"
        db = enroll([("p0", "s0", vec(0.5, 1.0)), ("#p1", "s0", vec(0.0, 1.0))])
        with pytest.raises(ValueError, match="^palm_id '#p1' starts with '#': the DB would read its line as a comment$"):
            save_db(db, path)
        assert not path.exists()


    def test_comment_only_db_rejected(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("# palm_id\tsample_id\tk\tfeatures\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no templates$"):
            load_db(path)


class TestSerialization:
    """The DB's number format: comma-separated decimals with 6 fractional digits."""

    def test_six_fractional_digits(self, tmp_path):
        path = tmp_path / "db.tsv"
        save_db(enroll([("p0", "s0", vec(0.0, 1.0, 1 / 3))]), path)
        assert path.read_text().splitlines()[1] == "p0\ts0\t3\t0.000000,1.000000,0.333333"

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(43)
        values = rng.random(16)
        path = tmp_path / "db.tsv"
        save_db(enroll([("p0", "s0", values)]), path)
        again = load_db(path).templates[0].features
        assert np.abs(again - values).max() <= 5e-7

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "db.tsv"
        path.write_text("p0\ts0\t3\t1.0,x,3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: malformed feature vector"):
            load_db(path)


_ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=5)
_filler = st.sampled_from(["", "# comment", "#", "  ", "\t# indented comment", " \t "])


@st.composite
def _db_lines(draw):
    """(k, keys, feature vectors) of a small random template DB."""
    k = draw(st.sampled_from([4, 8, 16]))
    keys = draw(st.lists(st.tuples(_ids, _ids), min_size=1, max_size=6, unique=True))
    values = [
        np.array(draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)), dtype=np.float64)
        for _ in keys
    ]
    return k, keys, values


def _interleave(draw_filler, records):
    """Text lines with filler before each record; returns (lines, record line numbers)."""
    lines, linenos = [], []
    for record in records:
        lines.extend(draw_filler())
        lines.append(record)
        linenos.append(len(lines))
    return lines, linenos


class TestDbFileProperties:
    @settings(max_examples=25, deadline=None)
    @given(db=_db_lines(), data=st.data(), eol=st.sampled_from(["\n", "\r\n"]))
    def test_round_trip_with_comments_blanks_and_line_ends(self, tmp_path_factory, db, data, eol):
        k, keys, values = db
        path = tmp_path_factory.mktemp("db") / "db.tsv"
        save_db(enroll((p, s, v) for (p, s), v in zip(keys, values)), path)
        records = path.read_text().splitlines()[1:]
        lines, _ = _interleave(lambda: data.draw(st.lists(_filler, max_size=2)), records)
        path.write_bytes(eol.join(lines).encode("ascii") + eol.encode("ascii"))
        again = load_db(path)
        assert again.k == k
        assert [(t.palm_id, t.sample_id) for t in again.templates] == keys
        for t, v in zip(again.templates, values):
            assert np.abs(t.features - v).max() <= 5e-7

    @settings(max_examples=25, deadline=None)
    @given(db=_db_lines(), data=st.data(), fault=st.sampled_from(["mixed-k", "duplicate"]))
    def test_consistency_errors_name_path_and_line(self, tmp_path_factory, db, data, fault):
        k, keys, values = db
        path = tmp_path_factory.mktemp("db") / "db.tsv"
        save_db(enroll((p, s, v) for (p, s), v in zip(keys, values)), path)
        records = path.read_text().splitlines()[1:]
        at = data.draw(st.integers(0, len(records)))
        if fault == "mixed-k":
            other = 4 if k != 4 else 8
            palm, sample = data.draw(st.tuples(_ids, _ids).filter(lambda key: key not in keys))
            bad = f"{palm}\t{sample}\t{other}\t" + ",".join(["0.500000"] * other)
            message = f"feature length mismatch: expected {k}, got {other}"
            if at == 0:  # a first line of the other k sets k; the old first record mismatches
                message = f"feature length mismatch: expected {other}, got {k}"
        else:
            at = max(at, 1)
            bad = data.draw(st.sampled_from(records[:at]))
            message = "duplicate template key"
        records.insert(at, bad)
        lines, linenos = _interleave(lambda: data.draw(st.lists(_filler, max_size=2)), records)
        path.write_text("\n".join(lines) + "\n")
        lineno = linenos[at] if fault == "duplicate" or at > 0 else linenos[1]
        with pytest.raises(ValueError) as exc:
            load_db(path)
        text = str(exc.value)
        assert text.startswith(f"{path}:{lineno}: {message}")
        assert text.count(str(path)) == 1
