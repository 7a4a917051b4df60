"""Raw interaction ingestion, binarization, filtering, matrix building and user splits."""

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import count, repeat

import numpy as np

__all__ = [
    "Interactions",
    "RatingMatrix",
    "SplitSpec",
    "load_interactions",
    "binarize",
    "filter_min_ratings",
    "build_matrix",
    "split_users",
    "save_snapshot",
    "load_snapshot",
    "save_maps",
    "load_item_map",
    "matrix_fingerprint",
]

SNAPSHOT_MAGIC = "ELICIT-MATRIX v1"
# Characters of the log parsed at a time. A chunk's lines and fields are held
# as Python strings while it is parsed, several times its size, so this bounds
# the ingest's memory.
READ_CHUNK_CHARS = 4 << 20


class DataError(ValueError):
    """Malformed input file or degenerate dataset."""


@dataclass
class Interactions:
    """An interaction log as columns, one entry per line, in file order.

    `users` and `items` are int64 codes into `user_tokens` and `item_tokens`,
    numbered by first appearance in the file. A subset keeps the token lists,
    so its codes need not be contiguous. `timestamps` holds 0 where
    `has_timestamp` is false.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray  # float64
    timestamps: np.ndarray  # int64
    has_timestamp: np.ndarray  # bool
    user_tokens: list = field(repr=False)
    item_tokens: list = field(repr=False)

    def __len__(self):
        return len(self.users)

    def take(self, mask):
        """The lines selected by a boolean mask, in order."""
        return replace(self, users=self.users[mask], items=self.items[mask],
                       ratings=self.ratings[mask], timestamps=self.timestamps[mask],
                       has_timestamp=self.has_timestamp[mask])


@dataclass
class RatingMatrix:
    """Binary implicit-feedback matrix stored as per-user sorted positive item indices.

    Immutable after construction; safe to share read-only across threads.
    """

    n: int
    m: int
    rows: list  # list of np.ndarray[int64], strictly increasing within each row
    user_index: dict = field(repr=False)
    item_index: dict = field(repr=False)

    @property
    def nnz(self):
        return sum(len(r) for r in self.rows)

    @property
    def sparsity(self):
        return 1.0 - self.nnz / (self.n * self.m)

    def dense(self, user_ids=None, dtype=np.float64):
        """Densify (a subset of) the matrix. Rows follow the order of user_ids."""
        if user_ids is None:
            user_ids = range(self.n)
        out = np.zeros((len(user_ids), self.m), dtype=dtype)
        for i, u in enumerate(user_ids):
            out[i, self.rows[u]] = 1.0
        return out

    def item_counts(self):
        counts = np.zeros(self.m, dtype=np.int64)
        for r in self.rows:
            counts[r] += 1
        return counts


@dataclass(frozen=True)
class SplitSpec:
    train_users: np.ndarray
    val_users: np.ndarray
    test_users: np.ndarray
    rng_seed: int


def load_interactions(path, delimiter="::"):
    """Parse a delimited interaction log into an Interactions table.

    Lines need at least (user, item, rating) fields; a fourth field is taken
    as an integer timestamp, absent when it does not parse or does not fit
    in int64. Blank lines are skipped, and so is a first line whose rating
    field is not a number (a header). Any other malformed line raises
    DataError naming its line number.
    """
    if not delimiter or "\n" in delimiter:
        raise DataError(f"delimiter must be non-empty and hold no newline, got {delimiter!r}")
    user_codes = defaultdict(count().__next__)  # token -> code, first appearance first
    item_codes = defaultdict(count().__next__)
    chunks = []
    lineno = 1  # of the chunk's first line
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(READ_CHUNK_CHARS):
            first, lineno = lineno, lineno + len(lines)
            if first == 1 and _is_header(lines[0], delimiter):
                lines, first = lines[1:], 2
            chunks.append(_parse_chunk(path, lines, first, delimiter, user_codes, item_codes))
    if not sum(len(chunk[0]) for chunk in chunks):
        raise DataError(f"{path}: no interaction records")
    users, items, ratings, timestamps, has_timestamp = (
        np.concatenate(column) for column in zip(*chunks))
    return Interactions(users, items, ratings, timestamps, has_timestamp,
                        list(user_codes), list(item_codes))


def _is_header(line, delimiter):
    parts = line.rstrip("\n").split(delimiter)
    if len(parts) < 3:
        return False
    try:
        float(parts[2])
    except ValueError:
        return True
    return False


def _parse_chunk(path, lines, first, delimiter, user_codes, item_codes):
    """Columns (users, items, ratings, timestamps, has_timestamp) of whole
    lines numbered from `first`, with tokens coded through the shared maps."""
    n_fields = np.fromiter(map(str.count, lines, repeat(delimiter)), np.int64, len(lines)) + 1
    # every line, newline included, contributes its n_fields to one flat split
    flat = "".join(lines).replace(delimiter, "\n").split("\n")
    try:
        column, n_fields = _columns(flat, n_fields)
        ratings = np.fromiter(map(float, column(2)), np.float64, len(n_fields))
        if not np.isfinite(ratings).all():
            raise ValueError("non-finite rating")
        users = np.fromiter(map(user_codes.__getitem__, column(0)), np.int64, len(n_fields))
        items = np.fromiter(map(item_codes.__getitem__, column(1)), np.int64, len(n_fields))
        if "" in user_codes or "" in item_codes:
            raise ValueError("empty user or item token")
    except ValueError:
        _check_lines(path, lines, first, delimiter)
        raise
    has_timestamp = n_fields >= 4
    timestamps = np.zeros(len(n_fields), dtype=np.int64)
    tokens = column(3)
    try:
        timestamps[has_timestamp] = np.fromiter(map(int, tokens), np.int64, len(tokens))
    except (ValueError, OverflowError):  # some timestamp is absent
        parsed = list(map(_int64_or_none, tokens))
        timestamps[has_timestamp] = [t or 0 for t in parsed]
        has_timestamp[has_timestamp] = [t is not None for t in parsed]
    return users, items, ratings, timestamps, has_timestamp


def _columns(flat, n_fields):
    """(column, n_fields of the lines with fields) for the flat split of a
    chunk, where column(k) is field k of each such line that has more than k
    fields. Blank lines have no fields; another line with fewer than 3
    raises ValueError."""
    lines = len(n_fields)
    width = n_fields[0] if lines else 3
    if width >= 3 and (n_fields == width).all():  # one line shape: columns are slices
        return (lambda k: flat[k:width * lines:width] if k < width else []), n_fields
    fields = np.array(flat, dtype=object)
    starts = np.cumsum(n_fields) - n_fields
    full = n_fields >= 3
    if (n_fields[~full] != 1).any() or (fields[starts[~full]] != "").any():
        raise ValueError("a line with fewer than 3 fields is not blank")
    starts, n_fields = starts[full], n_fields[full]
    return (lambda k: fields[starts[n_fields > k] + k]), n_fields


def _int64_or_none(token):
    try:
        value = int(token)
    except ValueError:
        return None
    return value if -2**63 <= value < 2**63 else None


def _check_lines(path, lines, first, delimiter):
    """Raise DataError for the first malformed line, checked one line at a
    time, so that the message and line number are exact."""
    for lineno, line in enumerate(lines, start=first):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) < 3:
            raise DataError(f"{path}:{lineno}: expected >=3 fields, got {len(parts)}")
        try:
            rating = float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparseable rating {parts[2]!r}") from None
        if not math.isfinite(rating):
            raise DataError(f"{path}:{lineno}: non-finite rating")
        if not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: empty user or item token")


def binarize(records, threshold=3.5):
    """Keep lines with rating strictly above threshold, as positives (rating 1)."""
    kept = records.take(records.ratings > threshold)
    return replace(kept, ratings=np.ones(len(kept)))


def filter_min_ratings(records, min_count):
    """Drop users with fewer than min_count positive lines; duplicate lines count."""
    kept = records.take(np.bincount(records.users)[records.users] >= min_count)
    if not len(kept):
        raise DataError("no users survive the minimum-rating filter")
    return kept


def build_matrix(records):
    """Assemble a RatingMatrix with indices in first-appearance order.

    Items only get an index if they appear in some surviving record, so
    all-zero columns cannot occur. Duplicate (user, item) pairs collapse
    to a single positive.
    """
    if not len(records):
        raise DataError("no records to build a matrix from")
    users, user_index = _renumber(records.users, records.user_tokens)
    items, item_index = _renumber(records.items, records.item_tokens)
    m = len(item_index)
    # sorted by user, then item; np.unique would hash, which is far slower here
    pairs = np.sort(users * m + items)
    pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
    rows = np.split(pairs % m, np.cumsum(np.bincount(pairs // m))[:-1])
    return RatingMatrix(
        n=len(user_index), m=m, rows=rows,
        user_index=user_index, item_index=item_index,
    )


def _renumber(codes, tokens):
    """Codes renumbered 0, 1, ... by first appearance, and the token -> index map."""
    uniq, first = np.unique(codes, return_index=True)
    in_order = uniq[np.argsort(first)]
    rank = np.empty(len(tokens), dtype=np.int64)
    rank[in_order] = np.arange(len(in_order))
    return rank[codes], {tokens[code]: k for k, code in enumerate(in_order.tolist())}


def split_users(matrix, test_frac=0.2, val_frac_of_train=0.1, seed=0):
    """Deterministic uniform user split: test fraction first, then validation
    as a fraction of the remaining (train) users.

    Shuffling uses numpy's PCG64 generator so the split is bit-identical
    across platforms for a given seed.
    """
    if not (0.0 < test_frac < 1.0 and 0.0 < val_frac_of_train < 1.0):
        raise ValueError("split fractions must lie in (0, 1)")
    n = matrix.n
    if n < 10:
        raise ValueError(f"need at least 10 users to split, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    n_test = int(round(test_frac * n))
    test = perm[:n_test]
    rest = perm[n_test:]
    n_val = int(round(val_frac_of_train * len(rest)))
    val = rest[:n_val]
    train = rest[n_val:]
    return SplitSpec(
        train_users=np.sort(train), val_users=np.sort(val),
        test_users=np.sort(test), rng_seed=seed,
    )


def save_snapshot(matrix, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{SNAPSHOT_MAGIC} n={matrix.n} m={matrix.m} nnz={matrix.nnz}\n")
        for u in range(matrix.n):
            fh.write(f"{u}:{' '.join(str(i) for i in matrix.rows[u])}\n")


def load_snapshot(path, users_map=None, items_map=None):
    """Read a matrix.snapshot. Raises DataError unless every user id in [0, n)
    has exactly one row and each row's item ids are integers, strictly
    increasing and in [0, m)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        try:
            if not header.startswith(SNAPSHOT_MAGIC):
                raise ValueError
            fields = dict(kv.split("=") for kv in header[len(SNAPSHOT_MAGIC):].split())
            n, m, nnz = int(fields["n"]), int(fields["m"]), int(fields["nnz"])
        except (KeyError, ValueError):
            raise DataError(f"{path}: bad snapshot header {header!r}") from None
        rows = [None] * n
        for lineno, line in enumerate(fh, start=2):
            u_s, _, items_s = line.rstrip("\n").partition(":")
            try:
                u = int(u_s)
                # via object: parsing from a str array raised the peak RSS of train
                row = np.array(items_s.split(), dtype=object).astype(np.int64)
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{lineno}: malformed row {line.rstrip()!r}") from None
            if not 0 <= u < n:
                raise DataError(f"{path}:{lineno}: user id {u} outside [0, {n})")
            if rows[u] is not None:
                raise DataError(f"{path}:{lineno}: second row for user {u}")
            if len(row) and (row[0] < 0 or row[-1] >= m or not (row[1:] > row[:-1]).all()):
                raise DataError(f"{path}:{lineno}: item ids of user {u} must be "
                                f"strictly increasing and lie in [0, {m})")
            rows[u] = row
    if any(r is None for r in rows):
        raise DataError(f"{path}: missing user rows")
    user_index = _load_map(users_map) if users_map else {str(u): u for u in range(n)}
    item_index = _load_map(items_map) if items_map else {str(i): i for i in range(m)}
    mat = RatingMatrix(n=n, m=m, rows=rows, user_index=user_index, item_index=item_index)
    if mat.nnz != nnz:
        raise DataError(f"{path}: header nnz={nnz} but rows hold {mat.nnz}")
    return mat


def save_maps(matrix, users_path, items_path):
    for index, path in ((matrix.user_index, users_path), (matrix.item_index, items_path)):
        with open(path, "w", encoding="utf-8") as fh:
            for token, idx in sorted(index.items(), key=lambda kv: kv[1]):
                fh.write(f"{token}\t{idx}\n")


def _load_map(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            token, _, idx = line.rstrip("\n").rpartition("\t")
            out[token] = int(idx)
    return out


def load_item_map(path):
    """token -> index map, plus the inverse index -> token list."""
    index = _load_map(path)
    inverse = [None] * len(index)
    for token, idx in index.items():
        inverse[idx] = token
    return index, inverse


def matrix_fingerprint(matrix):
    """Stable hash of the matrix contents, recorded in checkpoint manifests."""
    h = hashlib.sha256()
    h.update(f"{matrix.n},{matrix.m},{matrix.nnz};".encode())
    for row in matrix.rows:
        h.update(row.tobytes())
    return h.hexdigest()[:16]
