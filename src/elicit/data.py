"""Raw interaction ingestion, binarization, filtering, matrix building and user splits."""

import hashlib
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import count, repeat

import numpy as np

__all__ = [
    "Interactions",
    "RatingMatrix",
    "densify",
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
    so its codes need not be contiguous.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray  # float64
    user_tokens: list = field(repr=False)
    item_tokens: list = field(repr=False)

    def __len__(self):
        return len(self.users)

    def take(self, mask):
        """The lines selected by a boolean mask, in order."""
        return replace(self, users=self.users[mask], items=self.items[mask],
                       ratings=self.ratings[mask])


def densify(positives, shape, dtype=np.float64):
    """The 0/1 array of the given shape that is 1 exactly at positives, a
    pair (rows, items) of index arrays."""
    out = np.zeros(shape, dtype=dtype)
    out[positives] = 1
    return out


class RatingMatrix:
    """Binary implicit-feedback matrix in CSR form: the positives of user u
    are the item ids indices[indptr[u]:indptr[u + 1]], strictly increasing.

    `rows`, one array of item ids per user, is read at construction and not
    kept. Immutable after construction; safe to share read-only across threads.
    """

    def __init__(self, n, m, rows, user_index, item_index):
        self.n, self.m = n, m
        self.user_index, self.item_index = user_index, item_index
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, n), out=self.indptr[1:])
        self.indices = np.concatenate([np.zeros(0, dtype=np.int64), *rows]).astype(
            np.int64, copy=False)

    @property
    def nnz(self):
        return len(self.indices)

    @property
    def sparsity(self):
        return 1.0 - self.nnz / (self.n * self.m)

    def _gather(self, user_ids):
        """(indptr, indices) of the rows of user_ids, in that order."""
        starts = self.indptr[user_ids]
        lengths = self.indptr[user_ids + 1] - starts
        indptr = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # position j of output row r reads input position starts[r] + j
        at = np.repeat(starts - indptr[:-1], lengths)
        at += np.arange(len(at))
        return indptr, self.indices[at]

    def take(self, user_ids):
        """The sub-matrix of the rows of user_ids, in that order, over the
        same items. Its users are renumbered, so it has no user_index."""
        indptr, indices = self._gather(np.asarray(user_ids, dtype=np.int64))
        return RatingMatrix(len(indptr) - 1, self.m, np.split(indices, indptr[1:-1]),
                            {}, self.item_index)

    def positives(self, user_ids):
        """(rows, items) of the positives of the users user_ids, as int64
        arrays: rows[i] is the position in user_ids of the user of the i-th
        positive and items[i] its item; ordered by row, then by item."""
        indptr, items = self._gather(np.asarray(user_ids, dtype=np.int64))
        return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), items

    def dense(self, user_ids=None, dtype=np.float64):
        """Densify (a subset of) the matrix. Rows follow the order of user_ids."""
        if user_ids is None:
            user_ids = np.arange(self.n)
        return densify(self.positives(user_ids), (len(user_ids), self.m), dtype)

    def csr(self):
        """The matrix as a float64 scipy.sparse CSR array over the same
        indptr/indices, for kernels that only multiply by it."""
        # imported here: scipy.sparse adds about 0.25 s to the start-up of
        # every command
        from scipy.sparse import csr_array
        return csr_array((np.ones(self.nnz), self.indices, self.indptr), shape=(self.n, self.m))

    def item_counts(self):
        return np.bincount(self.indices, minlength=self.m)


@dataclass(frozen=True)
class SplitSpec:
    train_users: np.ndarray
    val_users: np.ndarray
    test_users: np.ndarray


def load_interactions(path, delimiter="::"):
    """Parse a delimited interaction log into an Interactions table.

    Lines need at least (user, item, rating) fields; later fields are
    ignored. Blank lines are skipped, and so is a first line whose rating
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
    users, items, ratings = (np.concatenate(column) for column in zip(*chunks))
    return Interactions(users, items, ratings, list(user_codes), list(item_codes))


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
    """Columns (users, items, ratings) of whole lines numbered from `first`,
    with tokens coded through the shared maps."""
    n_fields = np.fromiter(map(str.count, lines, repeat(delimiter)), np.int64, len(lines)) + 1
    # every line, newline included, contributes its n_fields to one flat split
    flat = "".join(lines).replace(delimiter, "\n").split("\n")
    try:
        column, n = _columns(flat, n_fields)
        ratings = np.fromiter(map(float, column(2)), np.float64, n)
        if not np.isfinite(ratings).all():
            raise ValueError("non-finite rating")
        users = np.fromiter(map(user_codes.__getitem__, column(0)), np.int64, n)
        items = np.fromiter(map(item_codes.__getitem__, column(1)), np.int64, n)
        if "" in user_codes or "" in item_codes:
            raise ValueError("empty user or item token")
    except ValueError:
        _check_lines(path, lines, first, delimiter)
        raise
    return users, items, ratings


def _columns(flat, n_fields):
    """(column, n) for the flat split of a chunk, where column(k), k < 3, is
    field k of each of the n lines with fields. Blank lines have no fields;
    another line with fewer than 3 raises ValueError."""
    lines = len(n_fields)
    width = n_fields[0] if lines else 3
    if width >= 3 and (n_fields == width).all():  # one line shape: columns are slices
        return (lambda k: flat[k:width * lines:width]), lines
    fields = np.array(flat, dtype=object)
    starts = np.cumsum(n_fields) - n_fields
    full = n_fields >= 3
    if (n_fields[~full] != 1).any() or (fields[starts[~full]] != "").any():
        raise ValueError("a line with fewer than 3 fields is not blank")
    starts = starts[full]
    return (lambda k: fields[starts + k]), len(starts)


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
        test_users=np.sort(test),
    )


def save_snapshot(matrix, path):
    # each item id is formatted once, not once per positive
    names = np.array([str(i) for i in range(matrix.m)], dtype=object)
    items, ptr = names[matrix.indices].tolist(), matrix.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{SNAPSHOT_MAGIC} n={matrix.n} m={matrix.m} nnz={matrix.nnz}\n")
        fh.writelines(f"{u}:{' '.join(items[ptr[u]:ptr[u + 1]])}\n" for u in range(matrix.n))


def load_snapshot(path):
    """Read a matrix.snapshot. Raises DataError unless every user id in [0, n)
    has exactly one row and each row's item ids are integers, strictly
    increasing and in [0, m). The matrix has no user or item index."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        try:
            if not header.startswith(SNAPSHOT_MAGIC):
                raise ValueError
            fields = dict(kv.split("=") for kv in header[len(SNAPSHOT_MAGIC):].split())
            n, m, nnz = int(fields["n"]), int(fields["m"]), int(fields["nnz"])
        except (KeyError, ValueError):
            raise DataError(f"{path}: bad snapshot header {header!r}") from None
        # the rows are parsed into one flat buffer, each row a view of it, so
        # that they are not one heap allocation each. An item id and its
        # separator take two characters at least, so half the file size
        # bounds the buffer when the header's nnz is too large.
        flat, pos = np.empty(max(0, min(nnz, os.fstat(fh.fileno()).st_size // 2)), np.int64), 0
        rows = [None] * n
        for lineno, line in enumerate(fh, start=2):
            u_s, _, items_s = line.rstrip("\n").partition(":")
            try:
                u = int(u_s)
                # via object: parsing from a str array raised the peak RSS of train
                items = np.array(items_s.split(), dtype=object)
                if pos + len(items) > len(flat):  # more ids than the header's nnz
                    flat, pos = np.empty(max(len(items), len(flat)), np.int64), 0
                row = flat[pos:pos + len(items)]
                row[:] = items
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{lineno}: malformed row {line.rstrip()!r}") from None
            pos += len(row)
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
    mat = RatingMatrix(n=n, m=m, rows=rows, user_index={}, item_index={})
    if mat.nnz != nnz:
        raise DataError(f"{path}: header nnz={nnz} but rows hold {mat.nnz}")
    return mat


def save_maps(matrix, users_path, items_path):
    for index, path in ((matrix.user_index, users_path), (matrix.item_index, items_path)):
        with open(path, "w", encoding="utf-8") as fh:
            for token, idx in sorted(index.items(), key=lambda kv: kv[1]):
                fh.write(f"{token}\t{idx}\n")


def load_item_map(path, m):
    """The item tokens of an items.map, in index order. Raises DataError
    unless every line is token<TAB>index and the indices are 0..m-1, each
    once."""
    tokens = [None] * m
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token, tab, idx = line.rstrip("\n").rpartition("\t")
            try:
                i = int(idx)
            except ValueError:
                i = None
            if not (tab and token and i is not None and 0 <= i < m and tokens[i] is None):
                raise DataError(f"{path}:{lineno}: expected token<TAB>index with each "
                                f"index in [0, {m}) once, got {line.rstrip()!r}")
            tokens[i] = token
    if None in tokens:
        raise DataError(f"{path}: no token for item {tokens.index(None)}")
    return tokens


def matrix_fingerprint(matrix):
    """Stable hash of the matrix contents, recorded in checkpoint manifests."""
    h = hashlib.sha256()
    h.update(f"{matrix.n},{matrix.m},{matrix.nnz};".encode())
    h.update(matrix.indices.tobytes())  # rows in user order: existing manifests still match
    return h.hexdigest()[:16]
