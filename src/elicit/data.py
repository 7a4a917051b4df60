"""Raw interaction ingestion, binarization, filtering, matrix building and user splits."""

import array
import re
from dataclasses import dataclass

import numpy as np

from .linalg import BLOCK_ELEMS

SNAPSHOT_MAGIC = "ELICIT-MATRIX v1"
# a non-negative integer as str() writes it: ASCII digits, no sign or leading
# zero, and at most 19 of them (an int64, and below int()'s limit on digits)
CANONICAL_INT = "(0|[1-9][0-9]{0,18})"
SNAPSHOT_HEADER = f"{SNAPSHOT_MAGIC} n={CANONICAL_INT} m={CANONICAL_INT} nnz={CANONICAL_INT}"
# Bytes of the log read at a time. A block of whole lines is parsed as numpy
# arrays about ten times its size, so this bounds the parse's memory above
# that of the columns it returns. On a 1M-line log (24.5 MB; 2-core VM,
# numpy 2.4), blocks of 512 KiB parsed in 171-196 ms, of 256 KiB and 1 MiB
# in 184-208 ms; 1 MiB blocks raised the high-water mark by 36 MB over the
# parse, 512 KiB by 29 MB, and at 4 MiB the parse's temporaries set the
# peak memory of prepare.
READ_CHUNK_BYTES = 1 << 19
# Bytes of matrix.snapshot read at a time. Its rows hold a token in about
# every 4.5 bytes, so their parse's temporaries are larger for their size;
# 128 KiB blocks loaded a 2.5 MB snapshot fastest (37 ms on a 2-core VM; 46
# ms at 512 KiB) and raised the high-water mark by 5 MB (14 MB at 512 KiB).
SNAPSHOT_CHUNK_BYTES = 1 << 17
# Keys coded at a time by _unique_inverse: each block's sort and permutation
# stay this small
UNIQUE_BLOCK = 1 << 16
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


def _invalid_utf8(path, line, exc):
    """The DataError of a UnicodeDecodeError at the given line of path."""
    return DataError(f"{path}:{line}: invalid utf-8 byte 0x{exc.object[exc.start]:02x} "
                     f"({exc.reason})")


def read_lines(path, universal=True):
    """The lines of the UTF-8 text file at path, without their line ends;
    the last line's end may be missing. Lines end at \\n, and with
    `universal` also at \\r\\n and a lone \\r, as in text mode; without it,
    for the files this program writes, a \\r stays in its line. Raises
    DataError naming path:line at the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()

    def split(text):
        if universal:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return text.split("\n")

    try:
        lines = split(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _invalid_utf8(path, len(split(raw[:exc.start].decode("utf-8"))), exc) from None
    return lines[:-1] if lines[-1] == "" else lines


@dataclass
class Interactions:
    """An interaction log as columns, one entry per line, in file order.

    `users` and `items` hold each line's token as a key of its exact bytes
    (see _token_keys), all keys of a column of one width. `user_codes`, when
    known, is (distinct, codes) as a _unique_inverse that saw these lines
    found them: distinct user keys, which may hold keys that no line has, and
    the index among them of each line's user.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray = None  # float64; None for positives
    user_codes: tuple = None

    def __len__(self):
        return len(self.users)

    def take(self, mask):
        """The lines selected by a boolean mask, in order, as positives."""
        return Interactions(self.users[mask], self.items[mask])


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
        indices, for kernels that only multiply by it. Its indptr is an int32
        copy where nnz fits: with an int64 one, scipy copies the indices."""
        # imported here: scipy.sparse adds about 0.25 s to the start-up of
        # every command
        from scipy.sparse import csr_array
        indptr = self.indptr.astype(np.int32) if self.nnz < 2**31 else self.indptr
        return csr_array((np.ones(self.nnz), self.indices, indptr), shape=(self.n, self.m))

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
    ignored. The file must be UTF-8; lines end at \\n, \\r\\n or \\r, as in text
    mode. Blank lines are skipped, and so is a first line of at least 3
    fields whose rating field is not a number (a header). Any other malformed
    line raises DataError naming its line number.
    """
    if not delimiter or "\n" in delimiter or "\r" in delimiter:
        raise DataError(f"delimiter must be non-empty and hold no line end, got {delimiter!r}")
    # surrogatepass: a lone surrogate never occurs in UTF-8 text, so such a
    # delimiter matches nothing, as in the decoded text
    sep = delimiter.encode("utf-8", "surrogatepass")
    with open(path, "rb") as fh:
        # each block's columns are written straight into the three columns,
        # sized by the line ends (a pipe, which reads once, starts empty) and
        # grown when a block does not fit
        size = _line_ends(fh) if fh.seekable() else 0
        columns, n = [np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size)], 0
        first = 1  # the number of the block's first line
        for block in _blocks(fh, READ_CHUNK_BYTES):
            *parts, lines = _parse_block(path, block, first, sep)
            columns = [_put(column, n, part) for column, part in zip(columns, parts)]
            n += len(parts[2])
            first += lines
    if not n:
        raise DataError(f"{path}: no interaction records")
    return Interactions(*(column[:n] for column in columns))


def _line_ends(fh):
    """At least fh's number of lines: its \\n and \\r bytes plus 1 (exact for \\n ends)."""
    count = 1
    while chunk := fh.read(READ_CHUNK_BYTES):
        buf = np.frombuffer(chunk, np.uint8)
        count += np.count_nonzero(buf == 10) + np.count_nonzero(buf == 13)
    fh.seek(0)
    return count


def _put(column, at, part):
    """column with part written from `at` on: a new column when it is too short
    (grown by half at least) or its keys are narrower than part's."""
    end, wide = at + len(part), max(column.dtype, part.dtype, key=lambda dt: dt.itemsize)
    if end > len(column) or wide != column.dtype:
        size = len(column) if end <= len(column) else max(end, len(column) * 3 // 2)
        column = _put(np.empty(size, wide), 0, column[:at])
    # 0xFF words pad a narrower key and keep its token (see _token_keys); not
    # reshape(len(part), -1): an empty part leaves -1 undefined
    rows = column[at:end].view(np.uint64).reshape(-1, wide.itemsize // 8)
    words = part.dtype.itemsize // 8
    rows[:, :words] = part.view(np.uint64).reshape(-1, words)
    rows[:, words:] = PAD[0]
    return column


def _blocks(fh, size, text=True):
    """The bytes of fh, read `size` bytes at a time, as blocks of whole lines,
    each ending in \\n; with text, \\r\\n and lone \\r end lines too and are
    translated to \\n."""
    rest = b""
    while True:
        chunk = fh.read(size)
        buf = rest + chunk
        if chunk:  # cut after the last line end, but a final \r waits for a \n
            cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1) if text else -1) + 1
            block, rest = buf[:cut], buf[cut:]
        else:
            block = buf
        if text and b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if block and not block.endswith(b"\n"):  # the last line of the file
            block += b"\n"
        if block:
            yield block
        if not chunk:
            return


def _parse_block(path, block, first, sep):
    """Columns (users, items, ratings) of a block of lines numbered from
    `first`, each ending in \\n, with tokens as keys (see _token_keys), and
    the block's line count. Skips blank lines and a header, and raises
    DataError at the first line that is not UTF-8 or is malformed, as
    load_interactions describes."""
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _invalid_utf8(path, first + block.count(b"\n", 0, exc.start), exc) from None
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
            _token_keys(buf, item[0][header:], item[1][header:]), ratings[header:],
            len(line_end))


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
    """The lines with rating strictly above threshold, as positives: lines
    with no rating."""
    return records.take(records.ratings > threshold)


def filter_min_ratings(records, min_count):
    """Drop users with fewer than min_count positive lines; duplicate lines
    count. The kept lines carry the user codes the filter found (see
    _unique_inverse)."""
    distinct, inverse = _unique_inverse(records.users)
    keep = (np.bincount(inverse) >= min_count)[inverse]
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
    # items first, so no user ranks are held while the items are sorted
    items, item_index = _renumber(records.items)
    pairs, user_index = _renumber(records.users, records.user_codes)
    n, m = len(user_index), len(item_index)
    # sorted by user, then item, in place; np.unique would hash, which is far
    # slower here
    pairs *= m
    pairs += items
    pairs.sort()
    pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
    indptr = np.searchsorted(pairs, np.arange(n + 1) * m)  # each user's first pair
    return RatingMatrix.from_csr(n, m, indptr, np.remainder(pairs, m, out=pairs),
                                 user_index, item_index)


def _renumber(keys, unique=None):
    """Token keys numbered 0, 1, ... by first appearance, and the token ->
    number map. `unique`, when given, is (distinct, codes) as in
    Interactions.user_codes, so keys need no sort: distinct may hold keys
    that no line has."""
    distinct, codes = _unique_inverse(keys) if unique is None else unique
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


def _unique_inverse(keys):
    """(distinct, codes): np.unique(keys, return_inverse=True), found without
    a permutation of all keys: each block of UNIQUE_BLOCK keys is coded on its
    own, and its codes are mapped through one coding of the blocks' few
    distinct keys."""
    blocks = range(0, len(keys), UNIQUE_BLOCK)
    codes, parts = np.empty(len(keys), np.int64), []
    for i in blocks:
        part, codes[i:i + UNIQUE_BLOCK] = np.unique(keys[i:i + UNIQUE_BLOCK], return_inverse=True)
        parts.append(part)
    distinct, to_distinct = np.unique(np.concatenate([keys[:0], *parts]), return_inverse=True)
    at = 0
    for i, part in zip(blocks, parts):
        block = codes[i:i + UNIQUE_BLOCK]
        block[:] = to_distinct[at:at + len(part)][block]
        at += len(part)
    return distinct, codes


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
    """Read a matrix.snapshot as save_snapshot writes it: the header, then the
    rows of users 0..n-1 in order, each `u:id id ...` in ASCII decimals with
    no sign or leading zero. Raises DataError for any other layout, and
    unless each row's item ids are strictly increasing and lie in [0, m). The
    matrix has no user or item index."""
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n").decode("utf-8", "backslashreplace")
        fields = re.fullmatch(SNAPSHOT_HEADER, header)
        if not fields:
            raise DataError(f"{path}: bad snapshot header {header!r}")
        n, m, nnz = map(int, fields.groups())
        if m > MAX_ITEMS:
            raise DataError(f"{path}: {m} items: at most {MAX_ITEMS} are supported")
        # the rows' ids grow one buffer, so nothing is sized from the header
        flat, lengths = array.array("i"), array.array("q")
        for block in _blocks(fh, SNAPSHOT_CHUNK_BYTES, text=False):
            ids, row_lengths = _parse_rows(path, block, len(lengths), m)
            flat.frombytes(ids.view(np.uint8))
            lengths.frombytes(row_lengths.view(np.uint8))
    if len(lengths) != n:
        raise DataError(f"{path}: {len(lengths)} rows, the header says n={n}")
    if len(flat) != nnz:
        raise DataError(f"{path}: header nnz={nnz} but rows hold {len(flat)}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(lengths, np.int64), out=indptr[1:])
    return RatingMatrix.from_csr(n, m, indptr, np.frombuffer(flat, np.int32), {}, {})


def _parse_rows(path, block, first, m):
    """(ids, lengths) of a block of snapshot rows of users first, first + 1,
    ..., each ending in \\n: their item ids as int32, row after row, and each
    row's count as int64. Raises DataError at the first row that
    load_snapshot does not admit."""
    buf = np.frombuffer(block, dtype=np.uint8)
    sep = (buf == 32) | (buf == 58) | (buf == 10)  # ' ', ':' and '\n'
    marks = np.flatnonzero(sep)
    kind = buf[marks]
    row_end = kind == 10
    ends = marks[row_end]
    # token j runs from the byte after mark j - 1 to mark j; a row's first
    # token is its user's
    starts = np.concatenate(([0], marks[:-1] + 1))
    lengths = marks - starts
    opens = np.concatenate(([True], row_end[:-1]))
    row = np.cumsum(row_end) - row_end
    # the empty token of a row without items, between its ':' and its '\n'
    empty = (lengths == 0) & row_end & np.concatenate(([False], kind[:-1] == 58))
    # more than 10 digits lie beyond int32
    malformed = (opens != (kind == 58)) | ((lengths == 0) & ~empty) | (lengths > 10)
    malformed |= (lengths > 1) & (buf[starts] == 48)  # a leading zero
    value = np.zeros(len(marks), dtype=np.int64)
    for j in range(int(np.clip(lengths.max(initial=0), 0, 10))):
        digit = buf[np.minimum(starts + j, len(buf) - 1)] - 48
        value = np.where(j < lengths, value * 10 + digit, value)
    is_id = ~opens & ~empty
    ids, id_row = value[is_id], row[is_id]
    # each row's first fault, in the order the checks are made; 0 for none
    fault = np.zeros(len(ends), dtype=np.int8)
    fault[id_row[ids >= m]] = 3
    fault[id_row[1:][(ids[1:] <= ids[:-1]) & (id_row[1:] == id_row[:-1])]] = 3
    users = value[opens]
    fault[users != np.arange(first, first + len(ends))] = 2
    fault[row[malformed]] = 1
    # bytes other than digits and separators
    fault[np.searchsorted(ends, np.flatnonzero(~sep & (buf - 48 > 9)))] = 1
    if fault.any():
        i = int(np.flatnonzero(fault)[0])
        u, where = first + i, f"{path}:{first + i + 2}"
        if fault[i] == 1:
            text = block[ends[i - 1] + 1 if i else 0:ends[i]].decode("utf-8", "backslashreplace")
            raise DataError(f"{where}: malformed row {text!r}")
        if fault[i] == 2:
            raise DataError(f"{where}: user id {users[i]}, expected {u} in user order")
        raise DataError(f"{where}: item ids of user {u} must be "
                        f"strictly increasing and lie in [0, {m})")
    return ids.astype(np.int32), np.bincount(id_row, minlength=len(ends))


def save_maps(matrix, users_path, items_path):
    for index, path in ((matrix.user_index, users_path), (matrix.item_index, items_path)):
        with open(path, "w", encoding="utf-8") as fh:
            for token, idx in sorted(index.items(), key=lambda kv: kv[1]):
                fh.write(f"{token}\t{idx}\n")


def load_item_map(path, m):
    """The item tokens of an items.map as save_maps writes it: m lines, line
    i (from 0) token<TAB>i. Raises DataError for any other layout."""
    tokens = []
    for i, line in enumerate(read_lines(path, universal=False)):
        token, _, idx = line.rpartition("\t")
        if not (i < m and token and idx == str(i)):
            raise DataError(f"{path}:{i + 1}: expected {m} lines, each token<TAB>index "
                            f"in index order, got {line!r}")
        tokens.append(token)
    if len(tokens) != m:
        raise DataError(f"{path}: {len(tokens)} lines, expected one per item, {m}")
    return tokens


def matrix_fingerprint(matrix):
    """Stable hash of the matrix contents, recorded in checkpoint manifests."""
    import hashlib  # here: it maps OpenSSL, which prepare never needs
    h = hashlib.sha256()
    h.update(f"{matrix.n},{matrix.m},{matrix.nnz};".encode())
    # the rows in user order, as int64 bytes, so existing manifests still
    # match; converted by blocks, so no int64 copy of the indices is made
    for i in range(0, matrix.nnz, BLOCK_ELEMS):
        h.update(matrix.indices[i:i + BLOCK_ELEMS].astype(np.int64).tobytes())
    return h.hexdigest()[:16]
