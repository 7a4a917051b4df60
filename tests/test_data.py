import os
import re
import tempfile
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from elicit import data
from conftest import matrix_from_rows, mutate, write_raw_file


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
    return matrix_from_rows(rows, len(item_index), user_index, item_index)


# ------------------------------------------------------------------ helpers

def token_keys(tokens):
    """The key column (see data._token_keys) of a list of str tokens."""
    encoded = [token.encode("utf-8") for token in tokens]
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    ends = np.cumsum(lengths)
    return data._token_keys(np.frombuffer(b"".join(encoded), np.uint8), ends - lengths, ends)


def key_tokens(keys):
    """The str tokens of a key column: each key is its token's bytes, then 0xFF."""
    blob, width = keys.tobytes(), keys.dtype.itemsize
    return [blob[at:at + width].rstrip(b"\xff").decode("utf-8")
            for at in range(0, len(blob), width)]


def make_table(rows):
    """Interactions from (user, item) tuples."""
    return data.Interactions(users=token_keys([row[0] for row in rows]),
                             items=token_keys([row[1] for row in rows]))


def as_pairs(table):
    """(user, item) per line of an Interactions table."""
    users = table.users if table.user_keys is None else table.user_keys[table.users]
    return list(zip(key_tokens(users), key_tokens(table.items)))


def ref_pairs(records):
    """(user, item) per reference Record."""
    return [(r.user, r.item) for r in records]


def row_list(matrix):
    """Each user's item ids, read from the CSR arrays."""
    return [matrix.indices[a:b] for a, b in zip(matrix.indptr[:-1], matrix.indptr[1:])]


def same_csr(a, b):
    return ((a.n, a.m) == (b.n, b.m) and a.indptr.dtype == np.int64
            and a.indices.dtype == np.int32
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices))


# -------------------------------------------------------------------- tests

def test_load_interactions_parses_fields(tmp_path):
    # the lines rated strictly above the threshold, in file order
    path = tmp_path / "raw.dat"
    write_raw_file(path, [("1", "1193", "5", "978300760"), ("2", "7", "2.5")])
    for threshold, kept in ((2.0, 2), (2.5, 1), (5.0, 0)):
        records = as_pairs(data.load_interactions(path, "::", threshold))
        assert records == [("1", "1193"), ("2", "7")][:kept]


def test_load_interactions_ignores_fields_after_the_third(tmp_path):
    path = tmp_path / "raw.dat"
    path.write_text("u::a::4::x\nu::b::4::9223372036854775808\nu::c::4::-1::y::\n"
                    "u::d::4\nu::e::4::\n")
    items = [r[1] for r in as_pairs(data.load_interactions(path, "::", 3.5))]
    assert items == ["a", "b", "c", "d", "e"]


def test_load_interactions_malformed_rating(tmp_path):
    path = tmp_path / "raw.dat"
    write_raw_file(path, [("1", "2", "4.0"), ("1", "3", "abc")])
    with pytest.raises(data.DataError, match=":2:"):
        data.load_interactions(path, "::", 3.5)


def test_load_interactions_empty_file(tmp_path):
    path = tmp_path / "raw.dat"
    path.write_text("")
    with pytest.raises(data.DataError, match="no interaction"):
        data.load_interactions(path, "::", 3.5)


def test_load_interactions_skips_header(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("user,item,rating\n1,2,4.0\n")
    records = data.load_interactions(path, ",", 3.5)
    assert len(records) == 1


@pytest.mark.parametrize("delimiter", ["", "\n", ":\n:", "\r", ":\r:"],
                         ids=["empty", "newline", "holds_newline", "carriage_return",
                              "holds_carriage_return"])
def test_load_interactions_rejects_bad_delimiter(tmp_path, delimiter):
    path = tmp_path / "raw.dat"
    path.write_text("1::2::4.0\n")
    with pytest.raises(data.DataError, match="delimiter"):
        data.load_interactions(path, delimiter, 3.5)


def test_binarize_strict_threshold():
    kept = data.binarize(np.array([4.0, 3.5, 3.6]), 3.5)
    assert kept.tolist() == [True, False, True]


def test_binarize_implicit_passthrough():
    kept = data.binarize(np.array([1.0, 0.0]), 0.5)
    assert kept.tolist() == [True, False]


def test_binarize_and_filter_keep_timestamps(tmp_path):
    # the user and item columns stay aligned through the parse's threshold
    # and the filter's mask
    path = tmp_path / "raw.dat"
    write_raw_file(path, [("u", "a", "5"), ("w", "c", "1"), ("u", "b", "5"), ("v", "a", "5"),
                          ("u", "c", "1"), ("w", "d", "4"), ("w", "b", "5")])
    kept = as_pairs(data.filter_min_ratings(data.load_interactions(path, "::", 3.5), 2))
    assert kept == [("u", "a"), ("u", "b"), ("w", "d"), ("w", "b")]


@pytest.mark.parametrize("text, message", [
    ("u::a::1\nu::b::3.5\n", "no users survive the minimum-rating filter"),
    ("user::item::rating\n\n\n", "raw.dat: no interaction records"),
    ("u::a::5\nu::::2\n", "raw.dat:2: empty user or item token"),
], ids=["none_above", "header_only", "malformed_below"])
def test_ingest_checks_every_line_whatever_its_rating(tmp_path, text, message):
    # the threshold drops a line only after the line is checked, and a file
    # of data lines none above it is not a file without records
    path = tmp_path / "raw.dat"
    path.write_text(text)
    with pytest.raises(data.DataError, match=re.escape(message)):
        data.filter_min_ratings(data.load_interactions(path, "::", 3.5), 1)


def test_filter_min_ratings():
    records = make_table([("big", str(i)) for i in range(5)]
                         + [("small", str(i)) for i in range(4)])
    kept = as_pairs(data.filter_min_ratings(records, 5))
    assert {r[0] for r in kept} == {"big"}
    with pytest.raises(data.DataError):
        data.filter_min_ratings(records, 100)


def test_build_matrix_hand_countable():
    records = make_table([("u1", "a"), ("u1", "b"), ("u2", "b")])
    matrix = data.build_matrix(records)
    assert (matrix.n, matrix.m, matrix.nnz) == (2, 2, 3)
    # first-appearance indexing
    assert matrix.user_index == {"u1": 0, "u2": 1}
    assert matrix.item_index == {"a": 0, "b": 1}


def test_build_matrix_invariants():
    rng = np.random.Generator(np.random.PCG64(3))
    records = make_table([(f"u{rng.integers(20)}", f"i{rng.integers(30)}")
                          for _ in range(200)])
    matrix = data.build_matrix(records)
    assert all(len(r) > 0 for r in row_list(matrix))
    assert all(np.all(np.diff(r) > 0) for r in row_list(matrix))
    counts = matrix.item_counts(np.arange(matrix.n))
    assert np.all(counts > 0)  # no all-zero columns
    assert matrix.n == len(matrix.user_index) and matrix.m == len(matrix.item_index)


def ref_renumber(codes, tokens):
    """The np.unique-based renumbering that data._renumber replaced."""
    uniq, first = np.unique(codes, return_index=True)
    in_order = uniq[np.argsort(first)]
    rank = np.empty(len(tokens), dtype=np.int64)
    rank[in_order] = np.arange(len(in_order))
    return rank[codes], {tokens[code]: k for k, code in enumerate(in_order.tolist())}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_renumber_matches_unique_reference(draw):
    # repeats, gaps, and tokens that no code uses, before, between and after
    # the used ones; tokens of up to 15 bytes, so some keys take two words
    tokens = [f"t{j}" * (1 + j % 5) for j in range(draw.draw(st.integers(1, 40)))]
    codes = np.array(draw.draw(st.lists(st.integers(0, len(tokens) - 1), max_size=60)),
                     dtype=np.int64)
    got, expected = data._renumber(token_keys(tokens)[codes]), ref_renumber(codes, tokens)
    assert got[0].dtype == np.int32 and np.array_equal(got[0], expected[0])
    assert list(got[1].items()) == list(expected[1].items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_unique_inverse_codes_every_key(draw):
    # runs of equal keys, cut by blocks of 1 to 8 keys; tokens of up to 15
    # bytes, so that keys are uint32 up to 4 bytes, uint64 up to 8 and void
    # over 8
    long = draw.draw(st.booleans())
    tokens = [f"t{j}" * (1 + j % 5 if long else 1) for j in range(draw.draw(st.integers(1, 30)))]
    runs = draw.draw(st.lists(st.tuples(st.integers(0, len(tokens) - 1), st.integers(1, 6)),
                              max_size=20))
    keys = token_keys(tokens)[np.repeat(*np.array(runs, dtype=np.int64).reshape(-1, 2).T)]
    with mock.patch.object(data, "UNIQUE_BLOCK", draw.draw(st.integers(1, 8))):
        distinct, codes = data._unique_inverse(keys)
    # np.unique's distinct keys and inverse, for uint64 and void keys alike
    expected = np.unique(keys, return_inverse=True)
    assert distinct.dtype == keys.dtype and np.array_equal(distinct, expected[0])
    assert codes.dtype == np.int32 and np.array_equal(codes, expected[1])
    assert np.array_equal(distinct[codes], keys)


@pytest.mark.parametrize("tokens", [[], ["a"], ["a-token"], ["a-long-token"]],
                         ids=["empty", "one", "one_uint64", "one_void"])
def test_unique_inverse_of_no_key_or_one(tokens):
    keys = token_keys(tokens) if tokens else np.zeros(0, dtype=np.uint32)
    distinct, codes = data._unique_inverse(keys)
    assert distinct.dtype == keys.dtype and np.array_equal(distinct, keys)
    assert codes.dtype == np.int32 and codes.tolist() == [0] * len(tokens)


def test_token_keys_are_4_bytes_up_to_4_byte_tokens_then_whole_words():
    # UTF-8 bytes, not characters, set the width: "ü" is 2 bytes, "日本" 6
    for tokens, dtype in ((["a", "abcd", "ü", "üü"], np.uint32), (["abcde", "日本"], np.uint64),
                          (["a", "abcdefgh"], np.uint64), (["abcdefghi"], np.dtype("V16")),
                          (["a" * 17], np.dtype("V24"))):
        keys = token_keys(tokens)
        assert keys.dtype == dtype and key_tokens(keys) == tokens


def test_pipeline_idempotence(tmp_path):
    path = tmp_path / "raw.dat"
    rng = np.random.Generator(np.random.PCG64(5))
    write_raw_file(path, [
        (f"u{rng.integers(30)}", f"i{rng.integers(40)}", f"{rng.integers(1, 11) / 2}")
        for _ in range(600)
    ])

    def run():
        recs = data.filter_min_ratings(data.load_interactions(path, "::", 3.5), 5)
        return data.build_matrix(recs)

    m1, m2 = run(), run()
    assert m1.user_index == m2.user_index and m1.item_index == m2.item_index
    assert same_csr(m1, m2)


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


@pytest.mark.parametrize("fracs, part", [((0.001, 0.1), "test"), ((0.2, 0.001), "validation"),
                                         ((0.2, 0.9999), "train")])
def test_split_users_rejects_an_empty_part(cluster_matrix, fracs, part):
    # 300 users: the rounded share of the named part is 0
    with pytest.raises(ValueError, match=f"no {part} users"):
        data.split_users(cluster_matrix, *fracs)


def test_snapshot_roundtrip(tmp_path, cluster_matrix):
    snap = tmp_path / "matrix.snapshot"
    data.save_snapshot(cluster_matrix, snap)
    header = snap.read_text().splitlines()[0]
    assert header == (f"ELICIT-MATRIX v1 n={cluster_matrix.n} "
                      f"m={cluster_matrix.m} nnz={cluster_matrix.nnz}")
    loaded = data.load_snapshot(snap)
    assert same_csr(loaded, cluster_matrix)
    assert data.matrix_fingerprint(loaded) == data.matrix_fingerprint(cluster_matrix)


# ------------------------------------------- columnar ingest vs the reference

TOKENS = st.sampled_from(["u1", "u2", "u3", "i:1", "i,2", "7", "", " ", "x y", "ü", "u1\x00"])
# ratings that float() reads, parsed in numpy (plain decimals of at most 15
# digits) or by float() itself (the rest). The 16 digits of 96.48064786969077
# exceed 2**53, and digits / 10**places rounds twice, to another float.
GOOD_RATINGS = ["5", "4", "4.5", "3", "1", "+4", "4_0", " 4e0", ".5", "5.", "0004.50",
                "3.50000000000001", "999999999999999", "96.48064786969077", "\u0663"]
RATINGS = st.sampled_from(GOOD_RATINGS + [
    "4.0", " 4 ", "3.5", "3.6", "2", "1e1", "-1", "abc", "", "nan", "inf", "-Infinity",
    ".", "1.2.3", "4.5e", "٣.٥x", "4\x00", "12345678901234567"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
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
    # multi-byte UTF-8, trailing NULs, tokens of more than 8 and 16 bytes, and
    # pieces of the delimiters, so that delimiter matches overlap
    fields = [draw(st.sampled_from(["u1", "u2", "u3", "u:4", "u1\x00", "ü1", "user-00000012",
                                    "user-00000012-long", "x:", "x-+"])),
              draw(st.sampled_from(["a", "b", "c", "d:e", "f,g", "b\x00", "\x00", "日本",
                                    "item-0000", "item-00000", ":y", "-y"])),
              draw(RATINGS if kind == 4 else st.sampled_from(GOOD_RATINGS))]
    if kind == 5:  # a user or item token that may be empty
        fields[draw(st.integers(0, 1))] = draw(TOKENS)
    fields += draw(st.lists(STAMPS, max_size=2))
    return delimiter.join(fields)


def ref_positives(path, delimiter, threshold):
    """The reference ingest's lines rated above threshold."""
    return ref_binarize(ref_load_interactions(path, delimiter), threshold)


def _pipeline(load, filter_min, build, path, delimiter, threshold, min_count):
    """(records, matrix) of a full ingest, or the DataError message it stops with."""
    try:
        records = load(path, delimiter, threshold)
        matrix = build(filter_min(records, min_count))
    except data.DataError as exc:
        return str(exc)
    return records, matrix


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_columnar_ingest_matches_per_line_reference(tmp_path_factory, draw):
    delimiter = draw.draw(st.sampled_from(["::", ",", "-+-"]))
    lines = draw.draw(st.lists(log_lines(delimiter, draw.draw(st.booleans())), max_size=40))
    header = draw.draw(st.sampled_from(["", delimiter.join(["user", "item", "rating"])]))
    lines = [header] + lines if header else lines
    ends = draw.draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if lines and draw.draw(st.booleans()):  # no line end after the last line
        text = text[:-len(ends[-1])]
    path = tmp_path_factory.getbasetemp() / "ingest.log"
    path.write_bytes(text.encode("utf-8"))
    min_count = draw.draw(st.integers(0, 3))
    # a drawn rating as the threshold: the lines of that rating are not kept
    threshold = draw.draw(st.one_of(st.sampled_from([0.5, 3.5, 4.5]),
                                    st.sampled_from(GOOD_RATINGS).map(float)))
    expected = _pipeline(ref_positives, ref_filter_min_ratings, ref_build_matrix,
                         path, delimiter, threshold, min_count)
    chunk = draw.draw(st.integers(1, 64))
    with mock.patch.object(data, "READ_CHUNK_BYTES", chunk):
        got = _pipeline(data.load_interactions, data.filter_min_ratings, data.build_matrix,
                        path, delimiter, threshold, min_count)
    event("error" if isinstance(expected, str) else "matrix")
    if isinstance(expected, str):
        assert got == expected
        return
    (ref_records, ref_matrix), (records, matrix) = expected, got
    assert as_pairs(records) == ref_pairs(ref_records)
    assert list(matrix.user_index.items()) == list(ref_matrix.user_index.items())
    assert list(matrix.item_index.items()) == list(ref_matrix.item_index.items())
    assert same_csr(matrix, ref_matrix)


def test_ingest_matches_reference_across_chunk_boundaries(tmp_path, monkeypatch):
    path = tmp_path / "raw.dat"
    rng = np.random.Generator(np.random.PCG64(11))
    write_raw_file(path, [
        (f"u{rng.integers(40)}", f"i{rng.integers(60)}", f"{rng.integers(1, 11) / 2}",
         str(rng.integers(10**9)))
        for _ in range(3000)
    ])
    ref = ref_build_matrix(ref_filter_min_ratings(ref_positives(path, "::", 3.5), 5))
    for chunk in (1, 100, 4096):
        monkeypatch.setattr(data, "READ_CHUNK_BYTES", chunk)
        matrix = data.build_matrix(data.filter_min_ratings(
            data.load_interactions(path, "::", 3.5), 5))
        assert list(matrix.user_index.items()) == list(ref.user_index.items())
        assert list(matrix.item_index.items()) == list(ref.item_index.items())
        assert same_csr(matrix, ref)


def test_column_join_pads_narrow_and_empty_parts(tmp_path, monkeypatch):
    # blocks of a few bytes: the blank lines make blocks without a token, and
    # tokens of more than 8 and 16 bytes first appear blocks after the 4-byte ones
    path = tmp_path / "raw.dat"
    path.write_bytes("u1::a::5\n\n\n\n\nu2::b\x00::4\n\n\n\nuser-00000012-long::a::5\n"
                     "u1::item-0000012::4\n\n\n\nu2::日本-item-00012::5\nu2::a::2\n"
                     "user-00000012-long::b\x00::4\n".encode("utf-8"))
    parse = data._parse_block
    widths = []  # of each block's (users, items) key parts

    def spy(*args):
        columns = parse(*args)
        widths.append((len(columns[0]), columns[0].dtype.itemsize, columns[1].dtype.itemsize))
        return columns

    monkeypatch.setattr(data, "_parse_block", spy)
    monkeypatch.setattr(data, "READ_CHUNK_BYTES", 2)
    records = data.load_interactions(path, "::", 3.5)
    assert (0, 4, 4) in widths and widths[0] == (1, 4, 4)
    assert {w[1] for w in widths} == {4, 24} and {w[2] for w in widths} == {4, 16, 24}
    ref_records = ref_positives(path, "::", 3.5)
    assert as_pairs(records) == ref_pairs(ref_records)
    assert (records.users.dtype.itemsize, records.items.dtype.itemsize) == (24, 24)
    matrix = data.build_matrix(data.filter_min_ratings(records, 1))
    ref = ref_build_matrix(ref_filter_min_ratings(ref_records, 1))
    assert list(matrix.user_index.items()) == list(ref.user_index.items())
    assert list(matrix.item_index.items()) == list(ref.item_index.items())
    assert same_csr(matrix, ref)


def test_key_columns_widen_from_4_to_8_to_16_bytes(tmp_path, monkeypatch):
    # the first blocks' tokens have at most 4 bytes, later ones 5 to 8 and
    # then 9 to 16, and tokens of every width recur after both widenings
    path = tmp_path / "raw.dat"
    short, mid, long = ["u1", "u22", "ü1"], ["user-1", "user-22"], ["user-0000012", "user-0000012ü"]
    rows = [(short[k % 3], short[k % 2], str(k % 5 + 1)) for k in range(40)]
    rows += [((short + mid)[k % 5], (mid + short)[k % 5], str(k % 5 + 1)) for k in range(40)]
    rows += [((short + mid + long)[k % 7], (long + short)[k % 5], str(k % 5 + 1))
             for k in range(40)]
    write_raw_file(path, rows)
    put, widths = data._put, []  # key bytes of each column after a block, users then items

    def spy(column, at, part):
        column = put(column, at, part)
        widths.append(column.dtype.itemsize)
        return column

    monkeypatch.setattr(data, "_put", spy)
    monkeypatch.setattr(data, "READ_CHUNK_BYTES", 64)
    records = data.load_interactions(path, "::", 0.5)
    assert widths[:2] == [4, 4]
    assert sorted(set(widths[::2])) == sorted(set(widths[1::2])) == [4, 8, 16]
    ref_records = ref_positives(path, "::", 0.5)
    assert as_pairs(records) == ref_pairs(ref_records)
    matrix = data.build_matrix(data.filter_min_ratings(records, 2))
    ref = ref_build_matrix(ref_filter_min_ratings(ref_records, 2))
    files = {}
    for name, built in (("got", matrix), ("ref", ref)):
        files[name] = [tmp_path / f"{name}.snapshot", tmp_path / f"{name}-users.map",
                       tmp_path / f"{name}-items.map"]
        data.save_snapshot(built, files[name][0])
        data.save_maps(built, *files[name][1:])
    assert [f.read_bytes() for f in files["got"]] == [f.read_bytes() for f in files["ref"]]


def test_load_interactions_peak_memory_is_bounded_by_its_columns(tmp_path, monkeypatch):
    path = tmp_path / "raw.dat"
    rng = np.random.Generator(np.random.PCG64(5))
    n = 200_000
    users = np.sort(rng.integers(0, 500, n)).tolist()
    items, stars = rng.integers(0, 1000, n).tolist(), rng.integers(1, 6, n).tolist()
    path.write_text("".join(f"u{u}::i{i}::{s}::978300760\n" for u, i, s in
                            zip(users, items, stars)))
    chunk = 64 << 10  # the log spans about 75 blocks
    monkeypatch.setattr(data, "READ_CHUNK_BYTES", chunk)
    # the line count's reads too, which hold about twice their size
    monkeypatch.setattr(data, "LINE_COUNT_BYTES", chunk)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        records = data.load_interactions(path, "::", 3.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == sum(s > 3.5 for s in stars)
    # the two key columns, sized once by the line count, of 4-byte keys: the
    # tokens have at most 4 bytes
    columns = 8 * n
    # each block's positives are parsed straight into the columns, so only a
    # block's parse (about 13 blocks) is held above them. Parts of every
    # block joined into the columns would add a third of them.
    assert peak - columns < 16 * chunk


def test_build_matrix_peak_memory_is_bounded_by_its_key_columns():
    rng = np.random.Generator(np.random.PCG64(6))
    n = 200_000
    records = data.filter_min_ratings(data.Interactions(
        token_keys([f"u{u}" for u in np.sort(rng.integers(0, 500, n))]),
        token_keys([f"i{i}" for i in rng.integers(0, 1000, n)])), 1)
    keys = 8 * n  # an int32 user code and a 4-byte item key per line
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        matrix = data.build_matrix(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.nnz > n // 2
    # about 1.65 times the key columns: the int32 item ranks and pairs, the
    # two masks of the distinct pairs and the deduplicated pairs; int64
    # ranks and pairs, a copy of the pairs or the user ranks held while the
    # items are numbered would add another quarter at least
    assert peak < 1.9 * keys


def test_build_matrix_pairs_past_int32_are_int64():
    # n * m = 46,341**2 = 2,147,488,281 >= 2**31: an int32 pair of the last
    # user's item would wrap around. Each user rates its own item, some twice.
    n = 46_341
    order = np.random.Generator(np.random.PCG64(8)).permutation(np.arange(n + 1000) % n)
    tokens = token_keys([str(u) for u in order.tolist()])
    matrix = data.build_matrix(data.filter_min_ratings(data.Interactions(tokens, tokens), 1))
    assert (matrix.n, matrix.m) == (n, n)
    # first appearance numbers each user as its item, so the sorted unique
    # pairs are (u, u) for every u
    assert same_csr(matrix, data.RatingMatrix.from_csr(
        n, n, np.arange(n + 1), np.arange(n), {}, {}))
    assert list(matrix.user_index.items()) == list(matrix.item_index.items())


def test_filter_keeps_one_user_column_of_codes_into_its_distinct_keys():
    records = data.filter_min_ratings(make_table(
        [("b", "x"), ("a", "y"), ("b", "z"), ("c", "x"), ("a", "y"), ("b", "z")]), 2)
    # c's one line is dropped, and its key stays among the distinct ones
    assert key_tokens(records.user_keys) == ["a", "b", "c"]
    assert records.users.tolist() == [1, 0, 1, 0, 1]
    assert as_pairs(records) == [("b", "x"), ("a", "y"), ("b", "z"), ("a", "y"), ("b", "z")]
    matrix = data.build_matrix(records)
    assert matrix.user_index == {"b": 0, "a": 1}

    rng = np.random.Generator(np.random.PCG64(7))
    n = 200_000
    records = data.Interactions(token_keys([f"u{u}" for u in np.sort(rng.integers(0, 500, n))]),
                                token_keys([f"i{i}" for i in rng.integers(0, 1000, n)]))
    keys = records.users.nbytes + records.items.nbytes
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        records = data.filter_min_ratings(records, 1)
        held = tracemalloc.get_traced_memory()[0]
        data.build_matrix(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kept lines hold their user codes and items, as many bytes as the
    # key columns they came from; a user key column kept beside the codes
    # would add half of them, to what is held and to the peak
    assert held < 1.2 * keys and peak < 2.8 * keys


def test_load_interactions_reads_a_pipe(tmp_path):
    path, pipe = tmp_path / "raw.dat", tmp_path / "raw.pipe"
    write_raw_file(path, [(f"u{u % 7}", f"i{u % 11}", str(u % 5 + 1), "0")
                          for u in range(3000)])
    os.mkfifo(pipe)
    # a daemon: a writer left waiting for a reader cannot hold up the exit
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    try:
        records = data.load_interactions(pipe, "::", 3.5)  # no line count: the columns grow
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert as_pairs(records) == as_pairs(data.load_interactions(path, "::", 3.5))


def test_load_interactions_grows_columns_past_the_line_count(tmp_path, monkeypatch):
    # as for a file that grows during the read: more lines than counted,
    # and tokens that outgrow 8 and 16 bytes after the columns have grown
    path = tmp_path / "raw.dat"
    rows = [(f"user-{'x' * (u // 200)}{u % 9}", f"i{u % 13}", str(u % 5 + 1), "0")
            for u in range(3000)]
    write_raw_file(path, rows)
    monkeypatch.setattr(data, "READ_CHUNK_BYTES", 1000)
    monkeypatch.setattr(data, "_line_ends", lambda fh: 7)
    records = data.load_interactions(path, "::", 3.5)
    assert records.users.dtype.itemsize == 24
    assert as_pairs(records) == [(u, i) for u, i, r, _ in rows if float(r) > 3.5]


SMALL_SNAPSHOT = "ELICIT-MATRIX v1 n=3 m=4 nnz=6\n0:0 2\n1:1\n2:0 1 3\n"


@pytest.mark.parametrize("old, new, message", [
    ("1:1\n", "3:1\n", ":3: user id 3, expected 1 in user order"),
    ("1:1\n", "-1:1\n", ":3: malformed row '-1:1'"),
    ("1:1\n", "0:1\n", ":3: user id 0, expected 1 in user order"),
    ("1:1\n", "", ":3: user id 2, expected 1 in user order"),
    ("n=3", "n=4", "3 rows, the header says n=4"),
    ("n=3", "n=999999999999", "3 rows, the header says n=999999999999"),
    ("2:0 1 3\n", "2:0 1 3\n3:\n", "4 rows, the header says n=3"),
    ("1:1\n", "1:1.5\n", ":3: malformed row"),
    ("1:1\n", "x:1\n", ":3: malformed row"),
    ("1:1\n", "1:4\n", r":3: item ids of user 1 must be strictly increasing and lie in \[0, 4\)"),
    ("1:1\n", "1:-1\n", ":3: malformed row '1:-1'"),
    ("2:0 1 3", "2:1 0 3", ":4: item ids of user 2"),
    ("2:0 1 3", "2:0 1 1", ":4: item ids of user 2"),
    (" nnz=6", "", "bad snapshot header"),
    ("n=3", "n=three", "bad snapshot header"),
    ("n=3", "n=-3", "bad snapshot header"),
    ("n=3", "n=+3", "bad snapshot header"),
    ("n=3", "n=\uff13", "bad snapshot header"),
    ("nnz=6", "nnz=6 ", "bad snapshot header"),
    ("n=3", "n=03", "bad snapshot header"),
    ("n=3", "n=" + "9" * 5000, "bad snapshot header"),
    ("nnz=6", "nnz=5", "header nnz=5 but rows hold 6"),
    ("nnz=6", "nnz=7", "header nnz=7 but rows hold 6"),
    ("nnz=6", "nnz=999999999999", "header nnz=999999999999 but rows hold 6"),
    ("m=4", "m=2147483648", "2147483648 items: at most 2147483647"),
], ids=["user_ge_n", "user_negative", "user_twice", "user_missing", "rows_fewer_than_n",
        "rows_fewer_than_huge_n", "rows_more_than_n", "item_not_int", "user_not_int",
        "item_ge_m", "item_negative", "items_unsorted", "item_twice", "header_without_nnz",
        "header_bad_n", "header_negative_n", "header_signed_n", "header_non_ascii_digit",
        "header_trailing_space", "header_n_with_leading_zero", "header_n_of_5000_digits",
        "nnz_low", "nnz_high", "nnz_huge", "m_beyond_int32"])
def test_load_snapshot_rejects_corrupt_rows(tmp_path, old, new, message):
    path = tmp_path / "matrix.snapshot"
    path.write_text(SMALL_SNAPSHOT)
    assert [r.tolist() for r in row_list(data.load_snapshot(path))] == [[0, 2], [1], [0, 1, 3]]
    path.write_text(SMALL_SNAPSHOT.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(data.DataError, match=message):
        data.load_snapshot(path)


def test_item_ids_must_fit_int32():
    empty = np.zeros(0, dtype=np.int64)
    assert data.RatingMatrix.from_csr(1, 2**31 - 1, np.zeros(2, np.int64), empty, {}, {}).m
    with pytest.raises(data.DataError, match="at most 2147483647"):
        data.RatingMatrix.from_csr(1, 2**31, np.zeros(2, np.int64), empty, {}, {})


def test_load_snapshot_rejects_rows_out_of_user_order(tmp_path):
    # save_snapshot writes the rows in user order, and load_snapshot reads no other
    path = tmp_path / "matrix.snapshot"
    path.write_text("ELICIT-MATRIX v1 n=3 m=4 nnz=6\n2:0 1 3\n0:0 2\n1:1\n")
    with pytest.raises(data.DataError, match=":2: user id 2, expected 0 in user order$"):
        data.load_snapshot(path)


# ------------------------------------------------------- CSR layout and files

@st.composite
def rating_matrices(draw):
    """(matrix, rows) for a random matrix whose users may have empty rows,
    built from its rows or from its CSR arrays."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    rows = [np.array(sorted(draw(st.sets(st.integers(0, m - 1)))), dtype=np.int64)
            for _ in range(n)]
    from_rows = data.RatingMatrix(n=n, m=m, rows=rows, user_index={}, item_index={})
    from_csr = matrix_from_rows(rows, m)
    assert same_csr(from_csr, from_rows)
    return (from_csr if draw(st.booleans()) else from_rows), rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rating_matrices(), st.data())
def test_csr_matches_per_row_reference(case, draw):
    matrix, rows = case
    assert [r.tolist() for r in row_list(matrix)] == [r.tolist() for r in rows]
    assert matrix.nnz == sum(len(r) for r in rows)
    counts = np.zeros(matrix.m, dtype=np.int64)
    for r in rows:
        counts[r] += 1
    assert np.array_equal(matrix.item_counts(np.arange(matrix.n)), counts)
    user_ids = draw.draw(st.lists(st.integers(0, matrix.n - 1), max_size=15))
    dense = np.zeros((len(user_ids), matrix.m))
    for i, u in enumerate(user_ids):
        dense[i, rows[u]] = 1.0
    assert matrix.dense(user_ids).dtype == bool
    assert np.array_equal(matrix.dense(user_ids), dense)
    # the operand's products by identity matrices are its rows, exactly
    blocks = matrix.row_blocks(user_ids)
    assert blocks.shape == dense.shape
    assert (blocks @ np.eye(matrix.m)).tobytes() == dense.tobytes()
    assert (blocks.T @ np.eye(len(user_ids))).tobytes() == dense.T.tobytes()
    items = np.arange(matrix.m)[::-1]
    assert blocks.columns(items).tobytes() == dense[:, items].tobytes()
    assert np.array_equal(matrix.item_counts(user_ids), dense.sum(axis=0))
    positive_rows, _ = matrix.positives(user_ids)
    assert np.bincount(positive_rows, minlength=len(user_ids)).tolist() == [
        len(rows[u]) for u in user_ids]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rating_matrices())
def test_snapshot_roundtrip_keeps_csr_and_fingerprint(tmp_path_factory, case):
    matrix, _ = case
    path = tmp_path_factory.getbasetemp() / "roundtrip.snapshot"
    data.save_snapshot(matrix, path)
    loaded = data.load_snapshot(path)
    assert same_csr(loaded, matrix)
    assert data.matrix_fingerprint(loaded) == data.matrix_fingerprint(matrix)


@st.composite
def mutated_snapshots(draw):
    """The bytes of a matrix.snapshot that save_snapshot wrote, after one to
    three mutations: a cut at a byte, a flipped byte, a dropped, duplicated
    or swapped line, or digits inserted into the header's n, m or nnz."""
    matrix, _ = draw(rating_matrices())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.snapshot")
        data.save_snapshot(matrix, path)
        text = bytearray(Path(path).read_bytes())
    for kind in draw(st.lists(st.sampled_from(
            ["cut", "flip", "drop", "duplicate", "swap", "digits"]), min_size=1, max_size=3)):
        if kind != "digits":
            text = mutate(draw, text, kind)
        else:
            field = draw(st.sampled_from([b" n=", b" m=", b" nnz="]))
            start = text.split(b"\n", 1)[0].find(field) + len(field)  # in the header
            if start >= len(field):
                digits = draw(st.text("0123456789", min_size=1, max_size=12))
                end = start + len(re.match(rb"[0-9]*", text[start:]).group())
                text[draw(st.integers(start, end)):0] = digits.encode()
    return bytes(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_snapshots())
@example(b"ELICIT-MATRIX v1 n=999999999999 m=4 nnz=6\n0:0 2\n1:1\n2:0 1 3\n")
def test_load_snapshot_of_a_mutated_file_loads_or_is_one_line_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutated.snapshot"
    path.write_bytes(text)
    try:
        matrix = data.load_snapshot(path)
    except (data.DataError, UnicodeDecodeError) as exc:
        # the CLI prints it as one error: line
        event(type(exc).__name__)
        assert "\n" not in str(exc) and "\r" not in str(exc)
    else:
        event("loaded")
        assert isinstance(matrix, data.RatingMatrix)
        assert len(matrix.indptr) == matrix.n + 1 and matrix.indptr[-1] == matrix.nnz
        # what loads is what save_snapshot writes for that matrix, up to the
        # final line end (not written by save_snapshot, whose time grows with m)
        rows = "".join(f"{u}:{' '.join(map(str, row.tolist()))}\n"
                       for u, row in enumerate(row_list(matrix)))
        written = f"ELICIT-MATRIX v1 n={matrix.n} m={matrix.m} nnz={matrix.nnz}\n{rows}"
        assert written.encode() in (text, text + b"\n")


@pytest.mark.parametrize("old, new", [
    ("1:1\n", "1:+1\n"), ("1:1\n", "+1:1\n"), ("0:0 2\n", "+0:0 2\n"),
    ("2:0 1 3", "2:0 1_0"), ("1:1\n", "1:01\n"), ("1:1\n", "01:1\n"), ("0:0 2", "00:0 2"),
    ("0:0 2", "-0:0 2"), ("1:1\n", "1:\uff11\n"), ("1:1\n", "\u0661:1\n"), ("1:1\n", "1: 1\n"),
    ("1:1\n", "1:1 \n"), ("0:0 2", "0:0  2"), ("1:1\n", "1:1\r\n"), ("1:1\n", " 1:1\n"),
    ("1:1\n", "1:1:1\n"), ("1:1\n", "1\n"), ("1:1\n", "1:1\t\n"), ("1:1\n", "\n1:1\n"),
    ("1:1\n", "1:99999999999\n"),
], ids=["item_plus", "user_plus", "user_plus_zero", "item_underscore", "item_leading_zero",
        "user_leading_zero", "user_00", "user_minus_zero", "item_fullwidth_digit",
        "user_arabic_indic_digit", "space_after_colon", "trailing_space", "double_space",
        "crlf", "leading_space", "two_colons", "no_colon", "tab", "blank_line",
        "item_of_11_digits"])
def test_load_snapshot_rejects_ids_not_as_save_snapshot_writes_them(tmp_path, old, new):
    # every row is u:id id ... in ASCII decimals without sign or leading zero
    path = tmp_path / "matrix.snapshot"
    text = SMALL_SNAPSHOT.replace(old, new, 1)
    assert text != SMALL_SNAPSHOT
    path.write_bytes(text.encode("utf-8"))
    line = text[:text.index(new)].count("\n") + 1
    with pytest.raises(data.DataError, match=f"snapshot:{line}: malformed row"):
        data.load_snapshot(path)


def test_load_snapshot_reads_rows_across_blocks(tmp_path, monkeypatch, cluster_matrix):
    # blocks of a few bytes cut rows and ids anywhere; a fault is named by
    # its line in the file, not in its block
    path = tmp_path / "matrix.snapshot"
    data.save_snapshot(cluster_matrix, path)
    whole = data.load_snapshot(path)
    monkeypatch.setattr(data, "SNAPSHOT_CHUNK_BYTES", 3)
    assert same_csr(data.load_snapshot(path), whole)
    lines = path.read_text().splitlines(keepends=True)
    lines[-2] = lines[-2].replace(":", ":07 ", 1)
    path.write_text("".join(lines))
    with pytest.raises(data.DataError, match=f"snapshot:{len(lines) - 1}: malformed row"):
        data.load_snapshot(path)


def test_fingerprint_is_stable(cluster_matrix):
    # checkpoint manifests written before the CSR layout hold this value
    assert data.matrix_fingerprint(cluster_matrix) == "5085736c6d00b7df"


def test_item_map_roundtrip(tmp_path):
    path = tmp_path / "raw.dat"
    write_raw_file(path, [("u", "i\t2", "5"), ("u", "b", "5"), ("v", "7", "5"), ("v", "b", "5")])
    matrix = data.build_matrix(data.load_interactions(path, "::", 3.5))
    data.save_maps(matrix, tmp_path / "users.map", tmp_path / "items.map")
    assert data.load_item_map(tmp_path / "items.map", matrix.m) == list(matrix.item_index)
    assert data.load_item_map(tmp_path / "users.map", matrix.n) == list(matrix.user_index)


@pytest.mark.parametrize("text, message", [
    ("a\t0\nb\t1\nc\t2\nfoo\t99999\n", r":4: expected 3 lines, each token<TAB>index"),
    ("a\t0\nb\t1\nc\t2\nd\t3\n", r":4: expected 3 lines"),
    ("a\t0\nb\t1\nc\t3\n", ":3:"),
    ("a\t0\nb\t-1\nc\t2\n", ":2:"),
    ("a\t0\nb\t0\nc\t2\n", ":2:"),
    ("a\t0\nb 1\nc\t2\n", ":2:"),
    ("a\t0\nb\tone\nc\t2\n", ":2:"),
    ("a\t0\n\t1\nc\t2\n", ":2:"),
    ("a\t0\nc\t2\n", r":2: expected 3 lines, each token<TAB>index in index order"),
    ("b\t1\na\t0\nc\t2\n", ":1:"),
    ("a\t0\nb\t1\nc\t02\n", ":3:"),
    ("a\t0\nb\t1\n", "2 lines, expected one per item, 3"),
    # save_maps ends lines at \n only, so a \r stays in its line
    ("a\t0\r\nb\t1\r\nc\t2\r\n", r":1: .* got 'a\\t0\\r'$"),
    ("a\t0\rb\t1\nc\t2\n", ":1:"),
    ("a\t0\nb\udcff\t1\nc\t2\n", ":2: invalid utf-8 byte 0xff"),
], ids=["extra", "extra_in_order", "index_ge_m", "index_negative", "index_twice", "no_tab",
        "index_not_int", "empty_token", "index_missing", "out_of_order", "index_not_canonical",
        "too_few", "crlf", "lone_cr", "invalid_utf8"])
def test_load_item_map_rejects_corrupt_map(tmp_path, text, message):
    path = tmp_path / "items.map"
    path.write_text("a\t0\nb\t1\nc\t2\n")
    assert data.load_item_map(path, 3) == ["a", "b", "c"]
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(data.DataError, match=message):
        data.load_item_map(path, 3)
