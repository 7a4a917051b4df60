"""Raw interaction ingestion, binarization, filtering, matrix building and user splits."""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .linalg import BLOCK_ELEMS

SNAPSHOT_MAGIC = "ELICIT-MATRIX v1"
# Bytes of the log read at a time. A block of whole lines is parsed as numpy
# arrays about ten times its size, so this bounds the parse's memory above
# that of the columns it returns. On a 1M-line log, blocks of 512 KiB to
# 1 MiB parsed fastest; at 4 MiB the parse's temporaries set the peak memory.
READ_CHUNK_BYTES = 1 << 20
# A rating of at most this many decimal digits and one optional point is
# parsed in numpy as digits / 10**places: both are exact float64 values below
# 2**53, so their quotient is float()'s correctly rounded value.
MAX_PLAIN_DIGITS = 15
POW10 = np.array([float(10**k) for k in range(MAX_PLAIN_DIGITS + 1)])
# PAD[l] is 0xFF from its l-th byte on: OR-ed into the 8 bytes from a token's
# start, it keeps the token's first l bytes and pads the rest with 0xFF
PAD = np.triu(np.full((9, 8), 0xFF, dtype=np.uint8)).view(np.uint64).ravel()
MAX_ITEMS = np.iinfo(np.int32).max  # item ids are int32


class DataError(ValueError):
    """Malformed input file or degenerate dataset."""


@dataclass
class Interactions:
    """An interaction log as columns, one entry per line, in file order.

    `users` and `items` hold each line's token as a key of its exact bytes
    (see _token_keys), all keys of a column of one width. `user_codes`, when
    known, is (distinct, codes) as an np.unique that saw these lines found
    them: sorted user keys, which may hold keys that no line has, and the
    index among them of each line's user.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray  # float64
    user_codes: tuple = None

    def __len__(self):
        return len(self.users)

    def take(self, mask):
        """The lines selected by a boolean mask, in order."""
        return Interactions(self.users[mask], self.items[mask], self.ratings[mask])


def densify(positives, shape, dtype=np.float64, out=None):
    """The 0/1 array of the given shape that is 1 exactly at positives, a
    pair (rows, items) of index arrays; written to `out` when given, an
    array of that shape and dtype."""
    if out is None:
        out = np.zeros(shape, dtype=dtype)
    else:
        out.fill(0)
    out[positives] = 1
    return out


class RatingMatrix:
    """Binary implicit-feedback matrix in CSR form: the positives of user u
    are the item ids indices[indptr[u]:indptr[u + 1]], strictly increasing;
    indptr is int64 and indices int32.

    Immutable after construction; safe to share read-only across threads.
    """

    def __init__(self, n, m, rows, user_index, item_index):
        """The matrix whose user u has the item ids rows[u]; from_csr takes
        the CSR arrays themselves."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), np.int64, n), out=indptr[1:])
        indices = np.concatenate([np.zeros(0, dtype=np.int32), *rows])
        vars(self).update(vars(self.from_csr(n, m, indptr, indices, user_index, item_index)))

    @classmethod
    def from_csr(cls, n, m, indptr, indices, user_index, item_index):
        """The matrix over the arrays indptr (n + 1) and indices, kept as
        they are when they are int64 and int32. Raises DataError for more
        items than int32 ids can number."""
        if m > MAX_ITEMS:
            raise DataError(f"{m} items: at most {MAX_ITEMS} are supported")
        matrix = cls.__new__(cls)
        matrix.n, matrix.m = n, m
        matrix.indptr = indptr.astype(np.int64, copy=False)
        matrix.indices = indices.astype(np.int32, copy=False)
        matrix.user_index, matrix.item_index = user_index, item_index
        return matrix

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
        return RatingMatrix.from_csr(len(indptr) - 1, self.m, indptr, indices, {},
                                     self.item_index)

    def positives(self, user_ids):
        """(rows, items) of the positives of the users user_ids, as int64
        and int32 arrays: rows[i] is the position in user_ids of the user of
        the i-th positive and items[i] its item; ordered by row, then by
        item."""
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

    def user_counts(self, user_ids):
        """The number of positives of each user of user_ids, as int64."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        return self.indptr[user_ids + 1] - self.indptr[user_ids]


@dataclass(frozen=True)
class SplitSpec:
    train_users: np.ndarray
    val_users: np.ndarray
    test_users: np.ndarray


def load_interactions(path, delimiter="::"):
    """Parse a delimited interaction log into an Interactions table.

    Lines need at least (user, item, rating) fields; later fields are
    ignored. The file must be UTF-8; lines end at \\n, \\r\\n or \\r, as in text
    mode. Blank lines are skipped, and so is a first line of at least 3
    fields whose rating field is not a number (a header). Any other malformed
    line raises DataError naming its line number.
    """
    if not delimiter or "\n" in delimiter:
        raise DataError(f"delimiter must be non-empty and hold no newline, got {delimiter!r}")
    # surrogatepass: a lone surrogate never occurs in UTF-8 text, so such a
    # delimiter matches nothing, as in the decoded text
    sep = delimiter.encode("utf-8", "surrogatepass")
    parts = ([], [], [])  # of the users, items and ratings columns, one per block
    for first, block in _blocks(path):
        for part, column in zip(parts, _parse_block(path, block, first, sep)):
            part.append(column)
    if not sum(map(len, parts[0])):
        raise DataError(f"{path}: no interaction records")
    # a column's parts are freed once it is joined, so the join holds one
    # column twice at most, not all three
    columns = []
    for part in parts:
        columns.append(_join(part))
        part.clear()
    return Interactions(*columns)


def _join(parts):
    """The column of its per-block parts. Key parts narrower than the widest
    are padded with 0xFF words, which keeps each key's token."""
    width = max(part.dtype.itemsize for part in parts)
    for j, part in enumerate(parts):
        words = part.dtype.itemsize // 8
        if 8 * words < width:
            wide = np.full((len(part), width // 8), PAD[0])
            # not reshape(len(part), -1): an empty part leaves -1 undefined
            wide[:, :words] = part.view(np.uint64).reshape(-1, words)
            parts[j] = wide.view(f"V{width}").ravel()
    return np.concatenate(parts)


def _blocks(path):
    """(first, block) pairs: the file's bytes as blocks of whole lines, each
    ending in \\n, with \\r\\n and lone \\r translated to \\n, and the number
    of each block's first line. Raises DataError at the first line that is
    not UTF-8."""
    rest = b""
    lineno = 1
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(READ_CHUNK_BYTES)
            buf = rest + chunk
            if chunk:  # cut after the last line end, but a final \r waits for a \n
                cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
                block, rest = buf[:cut], buf[cut:]
            else:
                block = buf
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if block and not block.endswith(b"\n"):  # the last line of the file
                block += b"\n"
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    bad = lineno + block.count(b"\n", 0, exc.start)
                    raise DataError(f"{path}:{bad}: invalid utf-8 byte "
                                    f"0x{block[exc.start]:02x} ({exc.reason})") from None
            if block:
                yield lineno, block
                lineno += np.count_nonzero(np.frombuffer(block, np.uint8) == 10)
            if not chunk:
                return


def _parse_block(path, block, first, sep):
    """Columns (users, items, ratings) of a block of lines numbered from
    `first`, each ending in \\n, with tokens as keys (see _token_keys).
    Skips blank lines and a header, and raises DataError at the first
    malformed line, as load_interactions describes."""
    buf = np.frombuffer(block, dtype=np.uint8)
    # every line end and delimiter, in order, after a virtual line end at -1
    marks = np.concatenate(([-1], np.flatnonzero((buf == 10) | _delimiter_starts(buf, sep))))
    line_end = np.flatnonzero(buf[marks[1:]] == 10) + 1  # in marks
    line_start = np.concatenate(([0], line_end))[:-1]  # the mark before the line
    n_delims = line_end - line_start - 1
    blank = (n_delims == 0) & (marks[line_end] == marks[line_start] + 1)
    full = n_delims >= 2  # the lines of at least 3 fields
    at = line_start[full]
    user = marks[at] + 1, marks[at + 1]
    item = user[1] + len(sep), marks[at + 2]
    rating = item[1] + len(sep), marks[at + 3]  # up to the third delimiter or the line end
    ratings, unparsed = _parse_ratings(block, buf, *rating)
    # each line's first fault, in the order the checks are made; 0 for none
    fault = np.where(blank | full, 0, 1)
    fault[full] = np.select(
        [unparsed, ~np.isfinite(ratings), (user[0] == user[1]) | (item[0] == item[1])],
        [2, 3, 4])
    # the file's first line is a header when its rating is unparseable
    header = int(first == 1 and fault[0] == 2)
    fault[:header] = 0
    if fault.any():
        i = int(np.flatnonzero(fault)[0])
        reason = ["", f"expected >=3 fields, got {n_delims[i] + 1}", "unparseable rating",
                  "non-finite rating", "empty user or item token"][fault[i]]
        if fault[i] == 2:
            j = np.count_nonzero(full[:i])  # the line's place among the full lines
            reason += f" {block[rating[0][j]:rating[1][j]].decode('utf-8')!r}"
        raise DataError(f"{path}:{first + i}: {reason}")
    return (_token_keys(buf, user[0][header:], user[1][header:]),
            _token_keys(buf, item[0][header:], item[1][header:]), ratings[header:])


def _delimiter_starts(buf, sep):
    """Mask of the positions in buf where a delimiter sep starts, matches
    taken leftmost and non-overlapping, as str.split takes them."""
    starts = np.zeros(len(buf), dtype=bool)
    n = len(buf) - len(sep) + 1
    if n <= 0:
        return starts
    match = starts[:n]
    np.equal(buf[:n], sep[0], out=match)
    for j in range(1, len(sep)):
        match &= buf[j:n + j] == sep[j]
    # two matches overlap only at a shift s where sep's suffix equals its prefix
    shifts = [s for s in range(1, len(sep)) if sep[s:] == sep[:-s]]
    if any((match[:-s] & match[s:]).any() for s in shifts):
        found = np.flatnonzero(match)
        near = np.diff(found) < len(sep)
        # a match no nearer than len(sep) to another one is kept; along each
        # chain of overlapping ones, keep each that does not overlap the last kept
        chained = np.append(near, False) | np.insert(near, 0, False)
        last = -len(sep)
        for p in found[chained].tolist():
            if p < last + len(sep):
                match[p] = False
            else:
                last = p
    return starts


def _parse_ratings(block, buf, starts, ends):
    """(ratings, unparsed): float() of each field block[starts[i]:ends[i]],
    and a mask of the fields float() rejects, whose ratings are NaN. Plain
    decimals are parsed in numpy, every other field by float() itself."""
    lengths = ends - starts
    width = int(np.clip(lengths.max(initial=0), 1, MAX_PLAIN_DIGITS + 1))
    inside = np.arange(width) < lengths[:, None]
    chars = buf[np.minimum(starts[:, None] + np.arange(width), len(buf) - 1)]
    digits = chars - 48
    is_digit = (digits < 10) & inside
    is_point = (chars == 46) & inside
    n_digits = is_digit.sum(axis=1)
    plain = ((is_digit | is_point) == inside).all(axis=1) & (is_point.sum(axis=1) <= 1)
    plain &= (n_digits >= 1) & (n_digits <= MAX_PLAIN_DIGITS) & (lengths <= width)
    value = np.zeros(len(starts), dtype=np.int64)
    for j in range(width):
        value = np.where(is_digit[:, j], value * 10 + digits[:, j], value)
    places = (is_digit & np.logical_or.accumulate(is_point, axis=1)).sum(axis=1)
    ratings = value / POW10[np.where(plain, places, 0)]
    unparsed = np.zeros(len(starts), dtype=bool)
    for i in np.flatnonzero(~plain).tolist():
        try:
            ratings[i] = float(block[starts[i]:ends[i]].decode("utf-8"))
        except ValueError:
            ratings[i], unparsed[i] = np.nan, True
    return ratings, unparsed


def _token_keys(buf, starts, ends):
    """One key per token buf[starts[i]:ends[i]]: its bytes padded with 0xFF
    to 8 * words bytes, words enough for the longest token; as uint64 when
    words == 1 and as raw bytes otherwise.

    0xFF never occurs in UTF-8, so keys of one width are equal exactly when
    the tokens' bytes are, and each key decodes back to its token (numpy's S
    arrays would drop trailing NULs).
    """
    lengths = ends - starts
    words = max(1, -(-int(lengths.max(initial=0)) // 8))
    # the 8 bytes from each position, read as one (unaligned) uint64; bytes
    # past a token are masked, so the padding's value does not matter
    padded = np.concatenate([buf, np.zeros(8 * words, dtype=np.uint8)])
    at = np.ndarray((len(buf) + 8 * words - 7,), np.uint64, buffer=padded, strides=(1,))
    keys = np.empty((len(starts), words), dtype=np.uint64)
    for j in range(words):
        keys[:, j] = at[starts + 8 * j] | PAD[np.clip(lengths - 8 * j, 0, 8)]
    return keys[:, 0] if words == 1 else keys.view(f"V{8 * words}").ravel()


def binarize(records, threshold=3.5):
    """Keep lines with rating strictly above threshold, as positives (rating 1)."""
    mask = records.ratings > threshold
    users = records.users[mask]
    return Interactions(users, records.items[mask], np.ones(len(users)))


def filter_min_ratings(records, min_count):
    """Drop users with fewer than min_count positive lines; duplicate lines
    count. The kept lines carry the user codes of the filter's np.unique."""
    distinct, inverse = np.unique(records.users, return_inverse=True)
    keep = np.bincount(inverse)[inverse] >= min_count
    kept = records.take(keep)
    if not len(kept):
        raise DataError("no users survive the minimum-rating filter")
    kept.user_codes = distinct, inverse[keep]
    return kept


def build_matrix(records):
    """Assemble a RatingMatrix with indices in first-appearance order.

    Items only get an index if they appear in some surviving record, so
    all-zero columns cannot occur. Duplicate (user, item) pairs collapse
    to a single positive.
    """
    if not len(records):
        raise DataError("no records to build a matrix from")
    users, user_index = _renumber(records.users, records.user_codes)
    items, item_index = _renumber(records.items)
    n, m = len(user_index), len(item_index)
    # sorted by user, then item; np.unique would hash, which is far slower here
    pairs = np.sort(users * m + items)
    pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // m, minlength=n), out=indptr[1:])
    return RatingMatrix.from_csr(n, m, indptr, np.remainder(pairs, m, out=pairs),
                                 user_index, item_index)


def _renumber(keys, unique=None):
    """Token keys numbered 0, 1, ... by first appearance, and the token ->
    number map. `unique`, when given, is (distinct, codes) as in
    Interactions.user_codes, so keys need no sort: distinct may hold keys
    that no line has."""
    distinct, codes = np.unique(keys, return_inverse=True) if unique is None else unique
    # a scatter-min finds each distinct key's first position in linear time;
    # a key no line has keeps len(codes), so it sorts after every used one
    first = np.full(len(distinct), len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    in_order = np.argsort(first)[:np.count_nonzero(first < len(codes))]
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[in_order] = np.arange(len(in_order))
    # only the distinct keys are decoded: each is its token's bytes, then 0xFF
    blob, width = distinct[in_order].tobytes(), distinct.dtype.itemsize
    tokens = (blob[at:at + width].rstrip(b"\xff").decode("utf-8")
              for at in range(0, len(blob), width))
    return rank[codes], {token: k for k, token in enumerate(tokens)}


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
    for name, part in (("test", test), ("validation", val), ("train", train)):
        if not len(part):
            raise ValueError(f"the split fractions leave no {name} users out of {n}")
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
            if min(n, m, nnz) < 0:
                raise ValueError
        except (KeyError, ValueError):
            raise DataError(f"{path}: bad snapshot header {header!r}") from None
        if m > MAX_ITEMS:
            raise DataError(f"{path}: {m} items: at most {MAX_ITEMS} are supported")
        # the rows are parsed into one flat buffer, in file order. An item id
        # and its separator take two characters at least (the last id one),
        # so this bounds the buffer when the header's nnz is too large.
        flat = np.empty(max(0, min(nnz, (os.fstat(fh.fileno()).st_size + 1) // 2)), np.int32)
        pos = 0
        line_of = np.full(n, -1, dtype=np.int64)  # the row in the file of each user
        lengths = np.zeros(n, dtype=np.int64)  # of each row in the file
        for lineno, line in enumerate(fh, start=2):
            u_s, _, items_s = line.rstrip("\n").partition(":")
            try:
                u = int(u_s)
                # via object: parsing from a str array raised the peak RSS of train
                items = np.array(items_s.split(), dtype=object)
                # ids beyond the header's nnz are parsed, counted and dropped
                end = pos + len(items)
                row = flat[pos:end] if end <= len(flat) else np.empty(len(items), np.int32)
                row[:] = items  # an id beyond int32 overflows
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{lineno}: malformed row {line.rstrip()!r}") from None
            if not 0 <= u < n:
                raise DataError(f"{path}:{lineno}: user id {u} outside [0, {n})")
            if line_of[u] >= 0:
                raise DataError(f"{path}:{lineno}: second row for user {u}")
            if len(row) and (row[0] < 0 or row[-1] >= m or not (row[1:] > row[:-1]).all()):
                raise DataError(f"{path}:{lineno}: item ids of user {u} must be "
                                f"strictly increasing and lie in [0, {m})")
            # a row after the n-th has a user out of range or repeated, so lineno - 2 < n
            line_of[u], lengths[lineno - 2], pos = lineno - 2, len(row), end
    if (line_of < 0).any():
        raise DataError(f"{path}: missing user rows")
    if pos != nnz:
        raise DataError(f"{path}: header nnz={nnz} but rows hold {pos}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    in_file_order = RatingMatrix.from_csr(n, m, indptr, flat, {}, {})
    if (line_of == np.arange(n)).all():
        return in_file_order
    return in_file_order.take(line_of)


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
    # the rows in user order, as int64 bytes, so existing manifests still
    # match; converted by blocks, so no int64 copy of the indices is made
    for i in range(0, matrix.nnz, BLOCK_ELEMS):
        h.update(matrix.indices[i:i + BLOCK_ELEMS].astype(np.int64).tobytes())
    return h.hexdigest()[:16]
