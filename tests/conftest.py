import struct

# before numpy: elicit sets OPENBLAS_THREAD_TIMEOUT, which OpenBLAS reads
# when numpy loads it, so the tests run the lanes as the CLI does
from elicit import data, model

import numpy as np
import pytest
from hypothesis import strategies as st


def make_cluster_matrix(n_per_cluster=100, items_per_cluster=10, clusters=3,
                        p_like=0.6, seed=0):
    """Synthetic dataset with disjoint user groups, each liking one disjoint
    item block. The informative seed set is one item per block."""
    rng = np.random.Generator(np.random.PCG64(seed))
    m = clusters * items_per_cluster
    rows = []
    for c in range(clusters):
        block = np.arange(c * items_per_cluster, (c + 1) * items_per_cluster)
        for _ in range(n_per_cluster):
            liked = block[rng.random(items_per_cluster) < p_like]
            while len(liked) < 2:
                liked = block[rng.random(items_per_cluster) < p_like]
            rows.append(np.sort(liked).astype(np.int64))
    return matrix_from_rows(rows, m, user_index={str(u): u for u in range(len(rows))},
                            item_index={str(i): i for i in range(m)})


def matrix_from_rows(rows, m, user_index=None, item_index=None):
    """The RatingMatrix over m items whose user u has the strictly increasing
    item ids rows[u], built through RatingMatrix.from_csr."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.concatenate([np.zeros(0, dtype=np.int64), *rows]).astype(np.int64)
    return data.RatingMatrix.from_csr(len(rows), m, indptr, indices,
                                      {} if user_index is None else user_index,
                                      {} if item_index is None else item_index)


def write_raw_file(path, records, delimiter="::"):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(delimiter.join(str(f) for f in rec) + "\n")


def write_small_checkpoint(path):
    """A valid checkpoint with k=3, m=10, d=4 and seeds 2, 4, 8."""
    rng = np.random.Generator(np.random.PCG64(12))
    phi = rng.standard_normal((3, 10)).astype(np.float32)
    model.save_checkpoint(path, phi, model.init_decoder(3, 4, 10, rng), np.array([2, 4, 8]))


def checkpoint_bytes(k, m, d):
    """A DRE1 file of the length its header (k, m, d) implies, with zero
    weights and the seeds 0, 1, ..., k - 1."""
    floats = k * m + k * d + d + d * m + m
    return (model.CHECKPOINT_MAGIC + struct.pack("<III", k, m, d) + bytes(4 * floats)
            + np.arange(k, dtype="<u4").tobytes())


# headers that train never writes, in files of the length they imply
HEADER_FAULTS = {"k_zero": (0, 10, 0), "k_equals_m": (10, 10, 4), "d_zero": (3, 10, 0)}


def corrupt_checkpoint(path, fault):
    """Rewrite a write_small_checkpoint file (k=3, m=10, d=4) with one fault;
    a fault of HEADER_FAULTS replaces the whole file."""
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    if fault in HEADER_FAULTS:
        raw = checkpoint_bytes(*HEADER_FAULTS[fault])
    elif fault == "truncated":
        raw = raw[:-3]
    elif fault == "trailing":
        raw += b"\0"
    elif fault == "nan":
        raw[16 + 4 * 31:16 + 4 * 32] = np.array([np.nan], dtype="<f4").tobytes()
    elif fault == "inf":
        raw[-16:-12] = np.array([-np.inf], dtype="<f4").tobytes()
    elif fault == "seed_out_of_range":
        raw[-4:] = np.array([10], dtype="<u4").tobytes()
    elif fault == "duplicate_seed":
        raw[-4:] = raw[-8:-4]
    with open(path, "wb") as fh:
        fh.write(bytes(raw))


@pytest.fixture
def cluster_matrix():
    return make_cluster_matrix(seed=0)


@pytest.fixture
def decoded_rows(monkeypatch):
    """The row count of each model._decoder_forward call, in call order."""
    forward, rows = model._decoder_forward, []

    def counting_forward(theta, z, ws, out=None):
        rows.append(len(z))
        return forward(theta, z, ws, out)

    monkeypatch.setattr(model, "_decoder_forward", counting_forward)
    return rows


def mutate(draw, raw, kind):
    """Apply one mutation of the given kind to raw, a bytearray, and return
    it: "cut" the file at a byte, "flip" a byte, or "drop", "duplicate" or
    "swap" lines (split at \\n); draw is a Hypothesis draw."""
    if kind == "cut":
        del raw[draw(st.integers(0, len(raw))):]
    elif kind == "flip" and raw:
        raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    elif kind in ("drop", "duplicate", "swap"):
        lines = raw.split(b"\n")
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        raw = bytearray(b"\n".join(lines))
    return raw
