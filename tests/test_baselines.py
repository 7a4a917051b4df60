import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

from elicit import baselines, data, model
from conftest import make_cluster_matrix, matrix_from_rows


def test_select_random_exhaustive_and_deterministic():
    rng = np.random.Generator(np.random.PCG64(0))
    full = baselines.select_random(6, 6, rng)
    assert sorted(full.tolist()) == list(range(6))
    s1 = baselines.select_random(20, 5, np.random.Generator(np.random.PCG64(1)))
    s2 = baselines.select_random(20, 5, np.random.Generator(np.random.PCG64(1)))
    assert np.array_equal(s1, s2)
    with pytest.raises(ValueError):
        baselines.select_random(3, 4, rng)


def test_select_random_uniform():
    rng = np.random.Generator(np.random.PCG64(2))
    counts = np.zeros(10)
    for _ in range(10000):
        counts[baselines.select_random(10, 1, rng)[0]] += 1
    assert np.all(np.abs(counts / 10000 - 0.1) <= 0.01)


def _matrix_from_counts(counts):
    """One user per interaction; column j gets counts[j] positives."""
    rows = []
    for j, c in enumerate(counts):
        rows.extend([np.array([j], dtype=np.int64)] * c)
    # pad a final user liking everything so every row is nonempty regardless
    rows.append(np.arange(len(counts), dtype=np.int64))
    return matrix_from_rows(rows, len(counts), item_index={str(j): j for j in range(len(counts))})


def test_select_popular_tie_break():
    matrix = _matrix_from_counts([5, 9, 9, 2])  # +1 each from the pad user
    assert baselines.select_popular(matrix.item_counts(), 2).tolist() == [1, 2]
    assert baselines.select_popular(matrix.item_counts(), 1).tolist() == [1]


def test_select_popular_user_order_invariant(cluster_matrix):
    shuffled = cluster_matrix.take(np.arange(cluster_matrix.n)[::-1])
    assert np.array_equal(baselines.select_popular(cluster_matrix.item_counts(), 5),
                          baselines.select_popular(shuffled.item_counts(), 5))


def test_rbmf_select_block_structure():
    # 3 orthogonal item blocks; brute-force max |det| picks one per block
    matrix = make_cluster_matrix(n_per_cluster=40, items_per_cluster=4,
                                 clusters=3, seed=1)
    seeds = baselines.rbmf_select(matrix.csr(), 3, seed=0)
    blocks = {int(s) // 4 for s in seeds}
    assert blocks == {0, 1, 2}
    # against the brute-force volume oracle on the SVD factor
    from elicit.linalg import truncated_svd
    right = truncated_svd(matrix.csr().toarray(), 3, seed=0)
    best = max(
        abs(np.linalg.det(right.T[list(c)]))
        for c in itertools.combinations(range(matrix.m), 3)
    )
    assert abs(np.linalg.det(right.T[seeds])) >= 0.9 * best


def test_rbmf_select_deterministic(cluster_matrix):
    s1 = baselines.rbmf_select(cluster_matrix.csr(), 4, seed=3)
    s2 = baselines.rbmf_select(cluster_matrix.csr(), 4, seed=3)
    assert np.array_equal(s1, s2)
    assert len(set(s1.tolist())) == 4
    # the sparse matrix selects what its dense copy selects
    assert np.array_equal(s1, baselines.rbmf_select(cluster_matrix.csr().toarray(), 4, seed=3))


def test_rbmf_decoder_exact_rank_self_consistency():
    rng = np.random.Generator(np.random.PCG64(4))
    R = rng.random((20, 3)) @ rng.random((3, 6))  # exact rank 3
    seeds = baselines.rbmf_select(R, 3, seed=0)
    X = baselines.rbmf_decoder(csr_array(R), seeds)
    assert X.shape == (3, 6) and X.dtype == np.float64
    assert np.linalg.norm(R[:, seeds] @ X - R) <= 1e-6 * np.linalg.norm(R)


def test_rbmf_decoder_matches_qr_oracle():
    rng = np.random.Generator(np.random.PCG64(5))
    R = (rng.random((20, 6)) < 0.5).astype(float)
    R += 0.01 * rng.random((20, 6))  # avoid exact collinearity for the oracle
    seeds = np.array([0, 2, 4])
    X = baselines.rbmf_decoder(csr_array(R), seeds)
    X_qr = np.linalg.lstsq(R[:, seeds], R, rcond=None)[0]
    assert np.linalg.norm(X - X_qr) <= 1e-5 * np.linalg.norm(X_qr)


def test_plusplus_decoder_deterministic_and_learns(cluster_matrix):
    split = data.split_users(cluster_matrix, seed=0)
    seeds = baselines.select_popular(cluster_matrix.item_counts(), 3)
    cfg = model.TrainConfig(k=3, d=8, lr=0.01, epochs=15, batch_size=64,
                            t0=5.0, te=0.1, retrain_epochs=10, seed=0, val_every=10)
    t1 = baselines.plusplus_decoder(cluster_matrix, split, seeds, cfg)
    t2 = baselines.plusplus_decoder(cluster_matrix, split, seeds, cfg)
    assert np.array_equal(t1.w2, t2.w2) and np.array_equal(t1.b1, t2.b1)
    R = cluster_matrix.dense(split.train_users).astype(np.float32)
    z = R[:, seeds]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0).spawn(1)[0]))
    fresh = model.init_decoder(3, 8, cluster_matrix.m, rng)
    assert (model.mse_loss(model.decode(t1, z), R)
            < model.mse_loss(model.decode(fresh, z), R))


def test_plusplus_decoder_peak_memory_is_one_decoder_fit():
    # 2 epochs of 2 minibatches, the second ragged
    rng = np.random.Generator(np.random.PCG64(3))
    n, m = 700, 4000
    matrix = matrix_from_rows([np.sort(rng.choice(m, rng.integers(10, 70), replace=False))
                               for _ in range(n)], m)
    split = data.split_users(matrix, seed=0)
    k, d, b = 8, 128, 256
    assert b < len(split.train_users) < 2 * b
    cfg = model.TrainConfig(k=k, d=d, lr=0.01, epochs=2, batch_size=b, t0=5.0, te=0.1,
                            retrain_epochs=1, seed=0, val_every=1)
    seeds = np.arange(0, m, m // k)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        baselines.plusplus_decoder(matrix, split, seeds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params = 4 * (k * d + d + d * m + m)  # float32
    # the trained decoder, its Adam moments, and one workspace: the input,
    # hidden and output rows of a minibatch and the gradients. A second
    # decoder (the starting one next to a trained copy), or a step's output
    # and gradients kept while the next step allocates its own, exceed the
    # slack, which covers the per-dtype and per-block scratch buffers
    # and the minibatch's positives.
    workspace = 4 * b * (k + 3 * d + m) + params
    assert peak - (3 * params + workspace) < 16 * 4 * model.BLOCK_ELEMS


def test_mostpop_ranks_items_by_count():
    # MOSTPOP's ranking: the candidates ranked by their training counts
    matrix = _matrix_from_counts([3, 1, 2])
    counts = matrix.item_counts()
    assert np.array_equal(np.argsort(-counts, kind="stable"), [0, 2, 1])
    assert model._rank_candidates(counts[None], np.array([], dtype=np.int64), 3).tolist() == [
        [0, 2, 1]]
    assert model._rank_candidates(counts[None], np.array([0]), 2).tolist() == [[2, 1]]
    with pytest.raises(ValueError):
        model._rank_candidates(counts[None], np.array([0]), 3)


def test_seed_file_roundtrip(tmp_path):
    path = str(tmp_path / "seeds.txt")
    seeds = np.array([5, 1, 9], dtype=np.int64)
    baselines.save_seeds(seeds, path)
    assert Path(path).read_text() == "5\n1\n9\n"
    assert np.array_equal(baselines.load_seeds(path, 10), seeds)
    # the last line's end may be missing
    Path(path).write_text("0\n10\n9")
    assert baselines.load_seeds(path, 11).tolist() == [0, 10, 9]
    Path(path).write_text("1\n4\n1\n")
    with pytest.raises(data.DataError, match=r"seeds\.txt:3: expected a distinct item index "
                                             r"in \[0, 10\), got '1'$"):
        baselines.load_seeds(path, 10)


@pytest.mark.parametrize("line", [
    "+3", "-1", "1_0", "07", "00", "\u0664", "\uff13", " 3", "3 ", "3\t", "", "3.0", "0x3",
    "10", "1" * 20, "3\r", "3\r5",
], ids=["plus", "minus", "underscore", "leading_zero", "double_zero", "arabic_indic",
        "full_width", "leading_space", "trailing_space", "tab", "blank", "float", "hex",
        "eq_m", "20_digits", "crlf", "lone_cr"])
def test_load_seeds_rejects_lines_not_as_save_seeds_writes_them(tmp_path, line):
    # int() reads each of these but blank, float and hex as an integer; lines
    # end at \n only, as save_seeds writes them, so a \r stays in its line
    path = tmp_path / "seeds.txt"
    path.write_text(f"4\n{line}\n2\n", encoding="utf-8")
    with pytest.raises(data.DataError, match=rf"seeds\.txt:2: expected a distinct item index in "
                                             rf"\[0, 10\), got {re.escape(repr(line))}$"):
        baselines.load_seeds(path, 10)


def test_load_seeds_needs_at_least_one_seed(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_bytes(b"")
    with pytest.raises(data.DataError, match=r"seeds\.txt: need at least one seed index, "
                                             r"each in \[0, 10\)$"):
        baselines.load_seeds(path, 10)


def test_load_seeds_names_the_line_of_invalid_utf8(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_bytes(b"4\n2\n\xff\n")
    with pytest.raises(data.DataError, match=r"seeds\.txt:3: invalid utf-8 byte 0xff "):
        baselines.load_seeds(path, 10)
