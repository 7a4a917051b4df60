from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from elicit import data
from conftest import write_raw_file


# ---------------------------------------------------------------- reference
# The per-line ingest that the columnar one in elicit.data replaced, kept
# verbatim as the reference the property test compares against.

@dataclass(frozen=True)
class Record:
    user: str
    item: str
    rating: float
    timestamp: Optional[int] = None


def ref_load_interactions(path, delimiter="::"):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(delimiter)
            if len(parts) < 3:
                raise data.DataError(f"{path}:{lineno}: expected >=3 fields, got {len(parts)}")
            user, item, rating_s = parts[0], parts[1], parts[2]
            try:
                rating = float(rating_s)
            except ValueError:
                if lineno == 1:  # header line
                    continue
                raise data.DataError(f"{path}:{lineno}: unparseable rating {rating_s!r}")
            if not np.isfinite(rating):
                raise data.DataError(f"{path}:{lineno}: non-finite rating")
            if not user or not item:
                raise data.DataError(f"{path}:{lineno}: empty user or item token")
            ts = None
            if len(parts) >= 4:
                try:
                    ts = int(parts[3])
                except ValueError:
                    ts = None
            records.append(Record(user, item, rating, ts))
    if not records:
        raise data.DataError(f"{path}: no interaction records")
    return records


def ref_binarize(records, threshold=3.5):
    return [Record(r.user, r.item, 1.0, r.timestamp) for r in records if r.rating > threshold]


def ref_filter_min_ratings(records, min_count):
    counts = {}
    for r in records:
        counts[r.user] = counts.get(r.user, 0) + 1
    kept = [r for r in records if counts[r.user] >= min_count]
    if not kept:
        raise data.DataError("no users survive the minimum-rating filter")
    return kept


def ref_build_matrix(records):
    if not records:
        raise data.DataError("no records to build a matrix from")
    user_index, item_index = {}, {}
    pairs = set()
    row_items = []
    for r in records:
        u = user_index.setdefault(r.user, len(user_index))
        if u == len(row_items):
            row_items.append([])
        i = item_index.setdefault(r.item, len(item_index))
        if (u, i) not in pairs:
            pairs.add((u, i))
            row_items[u].append(i)
    rows = [np.array(sorted(items), dtype=np.int64) for items in row_items]
    return data.RatingMatrix(n=len(user_index), m=len(item_index), rows=rows,
                             user_index=user_index, item_index=item_index)


# ------------------------------------------------------------------ helpers

def make_table(rows):
    """Interactions from (user, item, rating[, timestamp]) tuples."""
    users, items = {}, {}
    stamps = [row[3] if len(row) > 3 else None for row in rows]
    return data.Interactions(
        users=np.array([users.setdefault(row[0], len(users)) for row in rows], dtype=np.int64),
        items=np.array([items.setdefault(row[1], len(items)) for row in rows], dtype=np.int64),
        ratings=np.array([row[2] for row in rows], dtype=np.float64),
        timestamps=np.array([t or 0 for t in stamps], dtype=np.int64),
        has_timestamp=np.array([t is not None for t in stamps], dtype=bool),
        user_tokens=list(users), item_tokens=list(items),
    )


def as_records(table):
    """(user, item, rating, timestamp or None) per line of an Interactions table."""
    return [
        (table.user_tokens[u], table.item_tokens[i], r, int(t) if has else None)
        for u, i, r, t, has in zip(table.users.tolist(), table.items.tolist(),
                                   table.ratings.tolist(), table.timestamps, table.has_timestamp)
    ]


# -------------------------------------------------------------------- tests

def test_load_interactions_parses_fields(tmp_path):
    path = tmp_path / "raw.dat"
    write_raw_file(path, [("1", "1193", "5", "978300760"), ("2", "7", "2.5")])
    records = as_records(data.load_interactions(path))
    assert records[0] == ("1", "1193", 5.0, 978300760)
    assert records[1][2] == 2.5 and records[1][3] is None


def test_load_interactions_timestamp_absent_unless_int64(tmp_path):
    path = tmp_path / "raw.dat"
    path.write_text("u::a::4::x\nu::b::4::9223372036854775807\nu::c::4::9223372036854775808\n"
                    "u::d::4::-9223372036854775808\nu::e::4::-9223372036854775809\n"
                    "u::f::4:: 7 \nu::g::4\nu::h::4::\n")
    stamps = [r[3] for r in as_records(data.load_interactions(path))]
    assert stamps == [None, 2**63 - 1, None, -2**63, None, 7, None, None]


def test_load_interactions_malformed_rating(tmp_path):
    path = tmp_path / "raw.dat"
    write_raw_file(path, [("1", "2", "4.0"), ("1", "3", "abc")])
    with pytest.raises(data.DataError, match=":2:"):
        data.load_interactions(path)


def test_load_interactions_empty_file(tmp_path):
    path = tmp_path / "raw.dat"
    path.write_text("")
    with pytest.raises(data.DataError, match="no interaction"):
        data.load_interactions(path)


def test_load_interactions_skips_header(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("user,item,rating\n1,2,4.0\n")
    records = data.load_interactions(path, delimiter=",")
    assert len(records) == 1


@pytest.mark.parametrize("delimiter", ["", "\n", ":\n:"],
                         ids=["empty", "newline", "holds_newline"])
def test_load_interactions_rejects_bad_delimiter(tmp_path, delimiter):
    path = tmp_path / "raw.dat"
    path.write_text("1::2::4.0\n")
    with pytest.raises(data.DataError, match="delimiter"):
        data.load_interactions(path, delimiter=delimiter)


def test_binarize_strict_threshold():
    records = make_table([("u", "a", 4.0), ("u", "b", 3.5), ("u", "c", 3.6)])
    kept = as_records(data.binarize(records))
    assert [r[1] for r in kept] == ["a", "c"]
    assert all(r[2] == 1.0 for r in kept)


def test_binarize_implicit_passthrough():
    records = make_table([("u", "a", 1.0), ("u", "b", 0.0)])
    kept = as_records(data.binarize(records, threshold=0.5))
    assert [r[1] for r in kept] == ["a"]


def test_binarize_and_filter_keep_timestamps():
    records = make_table([("u", "a", 5.0, 10), ("u", "b", 5.0), ("v", "a", 5.0, 12),
                          ("u", "c", 1.0, 13)])
    kept = as_records(data.filter_min_ratings(data.binarize(records), 2))
    assert kept == [("u", "a", 1.0, 10), ("u", "b", 1.0, None)]


def test_filter_min_ratings():
    records = make_table([("big", str(i), 1.0) for i in range(5)]
                         + [("small", str(i), 1.0) for i in range(4)])
    kept = as_records(data.filter_min_ratings(records, 5))
    assert {r[0] for r in kept} == {"big"}
    with pytest.raises(data.DataError):
        data.filter_min_ratings(records, 100)


def test_build_matrix_hand_countable():
    records = make_table([("u1", "a", 1.0), ("u1", "b", 1.0), ("u2", "b", 1.0)])
    matrix = data.build_matrix(records)
    assert (matrix.n, matrix.m, matrix.nnz) == (2, 2, 3)
    # first-appearance indexing
    assert matrix.user_index == {"u1": 0, "u2": 1}
    assert matrix.item_index == {"a": 0, "b": 1}


def test_build_matrix_invariants():
    rng = np.random.Generator(np.random.PCG64(3))
    records = make_table([(f"u{rng.integers(20)}", f"i{rng.integers(30)}", 1.0)
                          for _ in range(200)])
    matrix = data.build_matrix(records)
    assert all(len(r) > 0 for r in matrix.rows)
    assert all(np.all(np.diff(r) > 0) for r in matrix.rows)
    counts = matrix.item_counts()
    assert np.all(counts > 0)  # no all-zero columns
    assert matrix.n == len(matrix.user_index) and matrix.m == len(matrix.item_index)


def test_pipeline_idempotence(tmp_path):
    path = tmp_path / "raw.dat"
    rng = np.random.Generator(np.random.PCG64(5))
    write_raw_file(path, [
        (f"u{rng.integers(30)}", f"i{rng.integers(40)}", f"{rng.integers(1, 11) / 2}")
        for _ in range(600)
    ])

    def run():
        recs = data.filter_min_ratings(data.binarize(data.load_interactions(path)), 5)
        return data.build_matrix(recs)

    m1, m2 = run(), run()
    assert m1.user_index == m2.user_index and m1.item_index == m2.item_index
    assert all(np.array_equal(a, b) for a, b in zip(m1.rows, m2.rows))


def test_split_users_deterministic_and_sized(cluster_matrix):
    s1 = data.split_users(cluster_matrix, seed=7)
    s2 = data.split_users(cluster_matrix, seed=7)
    assert np.array_equal(s1.test_users, s2.test_users)
    assert np.array_equal(s1.val_users, s2.val_users)
    n = cluster_matrix.n
    assert len(s1.test_users) == round(0.2 * n)
    assert len(s1.val_users) == round(0.1 * (n - len(s1.test_users)))
    together = np.concatenate([s1.train_users, s1.val_users, s1.test_users])
    assert np.array_equal(np.sort(together), np.arange(n))


def test_split_users_seed_sensitivity(cluster_matrix):
    s1 = data.split_users(cluster_matrix, seed=1)
    s2 = data.split_users(cluster_matrix, seed=2)
    assert not np.array_equal(s1.test_users, s2.test_users)


def test_split_users_bad_fractions(cluster_matrix):
    with pytest.raises(ValueError):
        data.split_users(cluster_matrix, test_frac=1.5)


def test_snapshot_roundtrip(tmp_path, cluster_matrix):
    snap = tmp_path / "matrix.snapshot"
    data.save_snapshot(cluster_matrix, snap)
    header = snap.read_text().splitlines()[0]
    assert header == (f"ELICIT-MATRIX v1 n={cluster_matrix.n} "
                      f"m={cluster_matrix.m} nnz={cluster_matrix.nnz}")
    data.save_maps(cluster_matrix, tmp_path / "users.map", tmp_path / "items.map")
    loaded = data.load_snapshot(snap, tmp_path / "users.map", tmp_path / "items.map")
    assert loaded.n == cluster_matrix.n and loaded.m == cluster_matrix.m
    assert all(np.array_equal(a, b) for a, b in zip(loaded.rows, cluster_matrix.rows))
    assert loaded.item_index == cluster_matrix.item_index
    assert data.matrix_fingerprint(loaded) == data.matrix_fingerprint(cluster_matrix)


# ------------------------------------------- columnar ingest vs the reference

TOKENS = st.sampled_from(["u1", "u2", "u3", "i:1", "i,2", "7", "", " ", "x y"])
RATINGS = st.sampled_from(["5", "4", "4.0", " 4 ", "3.5", "3.6", "2", "1e1", "-1",
                           "abc", "", "nan", "inf", "-Infinity"])
STAMPS = st.sampled_from(["978300760", "0", "-5", " 12 ", "1_0", "x", "", "1.5",
                          "9223372036854775807", "9223372036854775808",
                          "-9223372036854775809"])


@st.composite
def log_lines(draw, delimiter, malformed):
    """One raw line without its newline: blank or well formed, and when
    `malformed` sometimes a header, short, garbled or invalid line."""
    kind = draw(st.integers(0, 15) if malformed else st.sampled_from([0] + [6] * 7))
    if kind == 0:
        return ""
    if kind == 1:
        header = delimiter.join(["user", "item", "rating"])
        return draw(st.sampled_from([" ", "\t", "user", header]))
    if kind == 2:  # fewer than 3 fields
        return delimiter.join(draw(st.lists(TOKENS, min_size=1, max_size=2)))
    if kind == 3:
        return draw(st.text(alphabet=":, 1a.\r\x85", max_size=8))
    good = st.sampled_from(["5", "4", "4.5", "3", "1"])
    fields = [draw(st.sampled_from(["u1", "u2", "u3", "u:4"])),
              draw(st.sampled_from(["a", "b", "c", "d:e", "f,g"])),
              draw(RATINGS if kind == 4 else good)]
    if kind == 5:  # a user or item token that may be empty
        fields[draw(st.integers(0, 1))] = draw(TOKENS)
    fields += draw(st.lists(STAMPS, max_size=2))
    return delimiter.join(fields)


def _pipeline(load, binarize, filter_min, build, path, delimiter, min_count):
    """(records, matrix) of a full ingest, or the DataError message it stops with."""
    try:
        records = load(path, delimiter=delimiter)
        matrix = build(filter_min(binarize(records), min_count))
    except data.DataError as exc:
        return str(exc)
    return records, matrix


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_columnar_ingest_matches_per_line_reference(tmp_path_factory, draw):
    delimiter = draw.draw(st.sampled_from(["::", ","]))
    lines = draw.draw(st.lists(log_lines(delimiter, draw.draw(st.booleans())), max_size=40))
    header = draw.draw(st.sampled_from(["", delimiter.join(["user", "item", "rating"]) + "\n"]))
    text = header + "\n".join(lines) + draw.draw(st.sampled_from(["\n", ""]))
    path = tmp_path_factory.getbasetemp() / "ingest.log"
    path.write_bytes(text.encode("utf-8"))
    min_count = draw.draw(st.integers(0, 3))
    expected = _pipeline(ref_load_interactions, ref_binarize, ref_filter_min_ratings,
                         ref_build_matrix, path, delimiter, min_count)
    chunk = draw.draw(st.integers(1, 64))
    with mock.patch.object(data, "READ_CHUNK_CHARS", chunk):
        got = _pipeline(data.load_interactions, data.binarize, data.filter_min_ratings,
                        data.build_matrix, path, delimiter, min_count)
    event("error" if isinstance(expected, str) else "matrix")
    if isinstance(expected, str):
        assert got == expected
        return
    (ref_records, ref_matrix), (records, matrix) = expected, got
    assert as_records(records) == [
        (r.user, r.item, r.rating,
         r.timestamp if r.timestamp is not None and -2**63 <= r.timestamp < 2**63 else None)
        for r in ref_records]
    assert (matrix.n, matrix.m) == (ref_matrix.n, ref_matrix.m)
    assert list(matrix.user_index.items()) == list(ref_matrix.user_index.items())
    assert list(matrix.item_index.items()) == list(ref_matrix.item_index.items())
    assert len(matrix.rows) == len(ref_matrix.rows)
    for row, ref_row in zip(matrix.rows, ref_matrix.rows):
        assert row.dtype == np.int64 and np.array_equal(row, ref_row)


def test_ingest_matches_reference_across_chunk_boundaries(tmp_path, monkeypatch):
    path = tmp_path / "raw.dat"
    rng = np.random.Generator(np.random.PCG64(11))
    write_raw_file(path, [
        (f"u{rng.integers(40)}", f"i{rng.integers(60)}", f"{rng.integers(1, 11) / 2}",
         str(rng.integers(10**9)))
        for _ in range(3000)
    ])
    ref = ref_build_matrix(ref_filter_min_ratings(ref_binarize(ref_load_interactions(path)), 5))
    for chunk in (1, 100, 4096):
        monkeypatch.setattr(data, "READ_CHUNK_CHARS", chunk)
        matrix = data.build_matrix(data.filter_min_ratings(
            data.binarize(data.load_interactions(path)), 5))
        assert list(matrix.user_index.items()) == list(ref.user_index.items())
        assert list(matrix.item_index.items()) == list(ref.item_index.items())
        assert all(np.array_equal(a, b) for a, b in zip(matrix.rows, ref.rows))


SMALL_SNAPSHOT = "ELICIT-MATRIX v1 n=3 m=4 nnz=6\n0:0 2\n1:1\n2:0 1 3\n"


@pytest.mark.parametrize("old, new, message", [
    ("1:1\n", "3:1\n", r":3: user id 3 outside \[0, 3\)"),
    ("1:1\n", "-1:1\n", r":3: user id -1 outside \[0, 3\)"),
    ("1:1\n", "0:1\n", ":3: second row for user 0"),
    ("1:1\n", "", "missing user rows"),
    ("1:1\n", "1:1.5\n", ":3: malformed row"),
    ("1:1\n", "x:1\n", ":3: malformed row"),
    ("1:1\n", "1:4\n", r":3: item ids of user 1 must be strictly increasing and lie in \[0, 4\)"),
    ("1:1\n", "1:-1\n", ":3: item ids of user 1"),
    ("2:0 1 3", "2:1 0 3", ":4: item ids of user 2"),
    ("2:0 1 3", "2:0 1 1", ":4: item ids of user 2"),
    (" nnz=6", "", "bad snapshot header"),
    ("n=3", "n=three", "bad snapshot header"),
], ids=["user_ge_n", "user_negative", "user_twice", "user_missing", "item_not_int",
        "user_not_int", "item_ge_m", "item_negative", "items_unsorted", "item_twice",
        "header_without_nnz", "header_bad_n"])
def test_load_snapshot_rejects_corrupt_rows(tmp_path, old, new, message):
    path = tmp_path / "matrix.snapshot"
    path.write_text(SMALL_SNAPSHOT)
    assert [r.tolist() for r in data.load_snapshot(path).rows] == [[0, 2], [1], [0, 1, 3]]
    path.write_text(SMALL_SNAPSHOT.replace(old, new, 1))
    with pytest.raises(data.DataError, match=message):
        data.load_snapshot(path)
