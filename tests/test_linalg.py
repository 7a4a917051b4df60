import hashlib
import itertools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from elicit import data, linalg, model
from elicit.linalg import (
    MAXVOL_DELTA, gumbel_noise, maxvol, ridge_solve, softmax_rows, truncated_svd,
)
from conftest import make_cluster_matrix, matrix_from_rows


def rank_k_residual(A, right):
    """||A - A @ pinv(right) @ right||: A's distance from its projection
    onto the row space of the right factor."""
    return np.linalg.norm(A - A @ np.linalg.pinv(right) @ right)


def test_svd_diagonal_by_hand():
    A = np.diag([3.0, 2.0, 1.0])
    right = truncated_svd(A, 2, seed=0)
    norms = np.sort(np.linalg.norm(right, axis=1))[::-1]
    assert np.allclose(norms, [3.0, 2.0], atol=1e-10)
    assert abs(rank_k_residual(A, right) - 1.0) <= 1e-10


def test_svd_exact_rank_recovery():
    rng = np.random.Generator(np.random.PCG64(1))
    A = np.outer(rng.standard_normal(12), rng.standard_normal(9))
    for k in (1, 3):
        right = truncated_svd(A, k, seed=0)
        assert right.shape == (k, 9)
        assert rank_k_residual(A, right) <= 1e-8


def test_svd_against_full_svd_oracle():
    rng = np.random.Generator(np.random.PCG64(2))
    A = rng.standard_normal((50, 40))
    k = 10
    right = truncated_svd(A, k, seed=0)
    s = np.linalg.svd(A, compute_uv=False)
    tail = np.sqrt(np.sum(s[k:] ** 2))
    assert rank_k_residual(A, right) <= 1.01 * tail


def test_svd_right_rows_orthogonal_with_singular_value_norms():
    rng = np.random.Generator(np.random.PCG64(3))
    A = rng.standard_normal((30, 20))
    right = truncated_svd(A, 5, seed=4)
    s = np.linalg.svd(A, compute_uv=False)[:5]
    gram = right @ right.T
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-8
    assert np.allclose(np.sqrt(np.diag(gram)), s, rtol=1e-6)


def test_svd_deterministic_and_range_checked():
    A = np.eye(4)
    assert np.array_equal(truncated_svd(A, 2, seed=9), truncated_svd(A, 2, seed=9))
    with pytest.raises(ValueError):
        truncated_svd(A, 5, seed=0)


def test_maxvol_brute_force_example():
    B = np.array([[10.0, 0.0], [0.0, 10.0], [1.0, 1.0], [0.5, 0.5]])
    res = maxvol(B)
    assert set(res.indices.tolist()) == {0, 1}
    assert res.converged


def test_maxvol_square_is_identity():
    rng = np.random.Generator(np.random.PCG64(5))
    B = rng.standard_normal((3, 3))
    res = maxvol(B)
    assert set(res.indices.tolist()) == {0, 1, 2}
    assert res.swaps == 0


def test_maxvol_dominance_and_det_growth():
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(10):
        B = rng.standard_normal((15, 4))
        res = maxvol(B)
        C = np.linalg.solve(B[res.indices].T, B.T).T
        assert np.max(np.abs(C)) <= 1 + MAXVOL_DELTA + 1e-9
        # at least as large as the pivoted initialization's determinant
        from elicit.linalg import _pivoted_init
        d_init = abs(np.linalg.det(B[_pivoted_init(B)]))
        assert abs(np.linalg.det(B[res.indices])) >= d_init - 1e-12


def _full_update_pivoted_init(B):
    """The maxvol initialization before its elimination updated only the
    trailing block, frozen as its reference."""
    m, k = B.shape
    W = np.array(B, dtype=np.float64)
    order = np.arange(m)
    for col in range(k):
        piv = col + np.argmax(np.abs(W[col:, col]))
        if piv != col:
            W[[col, piv]] = W[[piv, col]]
            order[[col, piv]] = order[[piv, col]]
        W[col + 1:] -= np.outer(W[col + 1:, col] / W[col, col], W[col])
    return order[:k]


def test_pivoted_init_picks_the_pivots_of_the_full_update():
    from elicit.linalg import _pivoted_init
    rng = np.random.Generator(np.random.PCG64(16))
    # small integers give equal magnitudes, so argmax's first-of-ties choice
    # is compared too
    blocks = [rng.standard_normal((300, 20)), rng.integers(-3, 4, (60, 8)).astype(float),
              rng.standard_normal((9, 9))]
    for B in blocks:
        assert np.array_equal(_pivoted_init(B), _full_update_pivoted_init(B))


def test_maxvol_near_optimal_det():
    rng = np.random.Generator(np.random.PCG64(7))
    B = rng.standard_normal((12, 3))
    res = maxvol(B)
    best = max(
        abs(np.linalg.det(B[list(c)])) for c in itertools.combinations(range(12), 3)
    )
    assert abs(np.linalg.det(B[res.indices])) >= 0.9 * best


def test_ridge_identity_design():
    B = np.arange(12.0).reshape(4, 3)
    X = ridge_solve(np.eye(4), B, lam=1e-14)
    assert np.allclose(X, B, atol=1e-10)


def test_ridge_orthonormal_design():
    rng = np.random.Generator(np.random.PCG64(8))
    A = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    B = rng.standard_normal((10, 6))
    X = ridge_solve(A, B, lam=0.0)
    assert np.allclose(X, A.T @ B, atol=1e-10)


def test_ridge_matches_qr_oracle():
    rng = np.random.Generator(np.random.PCG64(9))
    A = rng.standard_normal((20, 5))
    B = rng.standard_normal((20, 7))
    X = ridge_solve(A, B, lam=1e-10)
    X_qr = np.linalg.lstsq(A, B, rcond=None)[0]
    assert np.linalg.norm(X - X_qr) <= 1e-6 * np.linalg.norm(X_qr)


def test_ridge_normal_equation_residual():
    rng = np.random.Generator(np.random.PCG64(10))
    A = rng.standard_normal((30, 6))
    B = rng.standard_normal((30, 4))
    lam = 1e-6
    X = ridge_solve(A, B, lam=lam)
    res = A.T @ B - (A.T @ A + lam * np.eye(6)) @ X
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(A.T @ B)


def test_gumbel_fixed_point():
    # u = 1/e maps to g = -log(-log(1/e)) = 0
    assert -np.log(-np.log(1 / np.e)) == pytest.approx(0.0, abs=1e-12)


def test_gumbel_mean_is_euler_gamma():
    rng = np.random.Generator(np.random.PCG64(11))
    g = gumbel_noise(1000, 1000, rng)
    assert g.mean() == pytest.approx(0.5772156649, abs=0.01)


def test_gumbel_deterministic():
    g1 = gumbel_noise(4, 5, np.random.Generator(np.random.PCG64(12)))
    g2 = gumbel_noise(4, 5, np.random.Generator(np.random.PCG64(12)))
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gumbel_noise_blocks_match_one_float64_draw(dtype):
    # 3 x 30,000 elements: one full block of BLOCK_ELEMS and a ragged one
    rows, cols = 3, 30_000
    assert linalg.BLOCK_ELEMS < rows * cols < 2 * linalg.BLOCK_ELEMS
    rng, ref_rng = (np.random.Generator(np.random.PCG64(21)) for _ in range(2))
    out = np.full((rows, cols), np.nan, dtype=dtype)
    assert gumbel_noise(rows, cols, rng, out=out) is out
    u = ref_rng.random((rows, cols), dtype=np.float64)
    ref = -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))
    assert np.array_equal(out.view(np.uint8), ref.astype(dtype).view(np.uint8))
    # the float64 array made without `out` holds the same draw
    fresh = gumbel_noise(rows, cols, np.random.Generator(np.random.PCG64(21)))
    assert fresh.dtype == np.float64 and np.array_equal(fresh.astype(dtype), out)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_softmax_hand_cases():
    assert np.allclose(softmax_rows(np.array([[0.0, 0.0]]), 1.0), [[0.5, 0.5]])
    nearly_onehot = softmax_rows(np.array([[5.0, 0.0]]), 0.01)
    assert np.allclose(nearly_onehot, [[1.0, 0.0]], atol=1e-9)
    probs = softmax_rows(np.array([[1.0, 2.0, 3.0]]), 1.0)
    assert np.allclose(probs, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-6)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(13))
    M = rng.standard_normal((6, 9)) * 10
    for tau in (0.05, 1.0, 50.0):
        P = softmax_rows(M, tau)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        shift = rng.standard_normal((6, 1)) * 5
        assert np.allclose(softmax_rows(M + shift, tau), P, atol=1e-12)


def test_softmax_rejects_bad_tau():
    with pytest.raises(ValueError):
        softmax_rows(np.zeros((1, 2)), 0.0)


def _row_blocks(R):
    """The RowBlocks operand of the 0/1 array R's rows."""
    return matrix_from_rows([np.flatnonzero(r) for r in R], R.shape[1]).row_blocks(
        np.arange(len(R)))


def _binary_rows(rows, cols, density, seed, empty_row=None):
    """A RowBlocks operand of a random 0/1 matrix, and the matrix as float64;
    the row empty_row, if given, has no positives."""
    rng = np.random.Generator(np.random.PCG64(seed))
    R = (rng.random((rows, cols)) < density).astype(np.float64)
    if empty_row is not None:
        R[empty_row] = 0
    return _row_blocks(R), R


def test_row_blocks_input_matches_dense():
    # a binary matrix, as the training matrix is: the ridge normal equations
    # then hold exact integer counts, so the operand gives the same bits as
    # the plain dense expressions; the SVD's products are float32. 300
    # users, with an empty row: two whole blocks of PRODUCT_ROWS = 128 and
    # a part of one
    S, R = _binary_rows(300, 170, 0.1, seed=14, empty_row=5)
    dense, blocks = truncated_svd(R, 4, seed=1), truncated_svd(S, 4, seed=1)
    assert np.abs(blocks - dense).max() <= 1e-5 * np.abs(dense).max()
    seeds = np.array([8, 3, 120, 77])
    A = R[:, seeds]
    plain = np.linalg.solve(A.T @ A + 1e-6 * np.eye(4), A.T @ R)
    for B in (R, S):
        X = ridge_solve(A, B)
        assert X.tobytes() == plain.tobytes() and X.flags.c_contiguous
    assert ridge_solve(S.columns(seeds), S).tobytes() == plain.tobytes()


@pytest.mark.parametrize("lanes", [1, 2])
def test_row_blocks_products_match_dense_float64(monkeypatch, lanes):
    # 300 users: two whole blocks of PRODUCT_ROWS = 128 and a part of one,
    # with an empty row in the second
    monkeypatch.setattr(linalg, "_lanes", lanes)
    S, R = _binary_rows(300, 170, 0.1, seed=12, empty_row=200)
    rng = np.random.Generator(np.random.PCG64(13))
    X, Y = rng.standard_normal((170, 7)), rng.standard_normal((300, 7))
    assert S.shape == R.shape and S.T.shape == R.T.shape
    for got, want in ((S @ X, R @ X), (S.T @ Y, R.T @ Y)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
    # exact where the factor is 0/1: the counts are integers below 2**24
    assert (S.T @ R[:, :5]).tobytes() == (R.T @ R[:, :5]).tobytes()
    assert S.columns(np.array([4, 0, 169])).tobytes() == R[:, [4, 0, 169]].tobytes()


@pytest.mark.parametrize("case, householder", [
    ("full_rank", False),  # a random sketch: Cholesky QR, twice
    ("cluster_sketch", False),  # the first sketch of the block-structured matrix
    ("condition_1e8", False),  # past the first pass Q is far from orthonormal
    ("rank_one", True),  # its Gram matrix is singular
    ("repeated_column", True),
])
def test_orthonormal_takes_cholesky_qr_or_householder(monkeypatch, case, householder):
    rng = np.random.Generator(np.random.PCG64(15))
    cluster = make_cluster_matrix(n_per_cluster=40, items_per_cluster=4, clusters=3, seed=1)
    Y = {"full_rank": lambda: rng.standard_normal((200, 60)),
         "cluster_sketch": lambda: cluster.row_blocks(np.arange(cluster.n))
         @ rng.standard_normal((cluster.m, 12)),
         "condition_1e8": lambda: np.linalg.qr(rng.standard_normal((200, 20)))[0]
         @ np.diag(np.logspace(0, -8, 20)) @ np.linalg.qr(rng.standard_normal((20, 20)))[0],
         "rank_one": lambda: np.outer(rng.standard_normal(12), rng.standard_normal(9)),
         "repeated_column": lambda: rng.standard_normal((30, 6))[:, [0, 1, 2, 3, 4, 4]]}[case]()
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
    Q = linalg._orthonormal(Y)
    assert calls == ([Y.shape] if householder else [])
    assert Q.shape == Y.shape
    assert np.abs(Q.T @ Q - np.eye(Y.shape[1])).max() <= 1e-12
    # Q spans Y's columns
    assert np.abs(Q @ (Q.T @ Y) - Y).max() <= 1e-10 * np.abs(Y).max()


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("split", [None, True, False], ids=["default", "split", "no_split"])
@pytest.mark.parametrize("total, step", [(0, 3), (2, 3), (3, 3), (9, 2), (8, 2)],
                         ids=["no_blocks", "short_block", "one_block", "odd_ragged", "even"])
def test_in_lanes_runs_each_block_once_in_order_within_its_lane(monkeypatch, total, step,
                                                                split, lanes):
    blocks = [(start, min(start + step, total)) for start in range(0, total, step)]
    two = lanes == 2 and len(blocks) > 1 and split is not False
    monkeypatch.setattr(linalg, "_lanes", lanes)
    if not two:
        def no_thread(*args, **kwargs):
            raise AssertionError("a lane thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(linalg, "_lane_worker", None)
    calls = []  # (lane, thread ident, start, stop) per call, as the lanes make them

    def body(lane, start, stop):
        calls.append((lane, threading.get_ident(), start, stop))

    linalg._in_lanes(total, step, body, **({} if split is None else {"split": split}))
    half = -(-len(blocks) // 2) if two else len(blocks)  # lane 0's blocks
    assert [call[2:] for call in calls if call[0] == 0] == blocks[:half]
    assert [call[2:] for call in calls if call[0] == 1] == blocks[half:]
    # lane 0 on the calling thread, lane 1 on the worker
    assert all((ident == threading.get_ident()) == (lane == 0) for lane, ident, *_ in calls)


def _svd_in_lanes(monkeypatch, A, k, lanes):
    """truncated_svd(A, k) in `lanes` lanes, and whether a product ran in
    two."""
    two_lanes = []
    in_lanes = linalg._in_lanes

    def recording_in_lanes(total, step, body, **split):
        def recording_body(lane, start, stop):
            two_lanes.append(lane == 1)
            body(lane, start, stop)

        in_lanes(total, step, recording_body, **split)

    monkeypatch.setattr(linalg, "_in_lanes", recording_in_lanes)
    monkeypatch.setattr(linalg, "_lanes", lanes)
    return truncated_svd(A, k, seed=3), any(two_lanes)


@pytest.mark.parametrize("shape, density, k", [
    # RBMF's products at a quarter of the benchmark's nonzeros: 60 columns,
    # whole blocks of PRODUCT_ROWS users and a part of one, each product of
    # a block in two lanes, from DENSE_LANE_WORK
    ((1500, 1200), 0.05, 50),
    # every product of a block below DENSE_LANE_WORK: one lane
    ((300, 40), 0.2, 5),
])
def test_svd_of_row_blocks_has_the_same_bits_in_one_lane_and_two(monkeypatch, shape, density,
                                                                 k):
    A = _binary_rows(*shape, density, seed=30)[0]
    one, one_in_two = _svd_in_lanes(monkeypatch, A, k, lanes=1)
    two, two_in_two = _svd_in_lanes(monkeypatch, A, k, lanes=2)
    sketch = min(shape[1], k + 10)
    assert not one_in_two
    assert two_in_two == (data.PRODUCT_ROWS * shape[1] * sketch >= linalg.DENSE_LANE_WORK)
    assert one.tobytes() == two.tobytes()


ONE_BLAS_THREAD = pytest.mark.skipif(
    not linalg._blas_threads, reason="no OpenBLAS thread setter in this process")


def _recorded_matmul(monkeypatch, run, lanes=2):
    """run() in `lanes` lanes, and the (out shape, lane) of each np.matmul
    call it made, sorted."""
    calls, matmul = [], np.matmul
    lane_of = {threading.get_ident(): 0}  # thread ident -> lane

    def recording(x, y, out):
        calls.append((out.shape, lane_of.setdefault(threading.get_ident(), 1)))
        return matmul(x, y, out=out)

    monkeypatch.setattr(linalg, "_lanes", lanes)
    monkeypatch.setattr(linalg.np, "matmul", recording)
    return run(), sorted(calls)


@ONE_BLAS_THREAD
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["C", "a_transposed", "b_transposed"])
@pytest.mark.parametrize("n, inner, p", [
    (255, 301, 3705),  # float32: by columns, 1872 + 1833
    (3705, 301, 255),  # by rows, 1872 + 1833
    (257, 3707, 51),  # by rows, 144 + 113; 51 columns are too few to split
    (51, 3707, 257),  # float32: by columns, 144 + 113; float64: 51 rows, not split
    (300, 256, 301),  # float32: by columns, 144 + 157; float64: by rows, 144 + 156
    (143, 500, 97),  # by rows, 48 + 95, a third of the work
    (1, 5000, 5000),  # numpy's vector-matrix path, not split
    (97, 400, 100),  # 3.9 Mi multiply-adds, below DENSE_LANE_WORK: not split
])
def test_matmul_has_the_bits_of_the_whole_one_thread_product(monkeypatch, dtype, layout, n,
                                                             inner, p):
    rng = np.random.Generator(np.random.PCG64(n * p))
    a = rng.standard_normal((inner, n) if layout == "a_transposed" else (n, inner)).astype(dtype)
    b = rng.standard_normal((p, inner) if layout == "b_transposed" else (inner, p)).astype(dtype)
    a = a.T if layout == "a_transposed" else a
    b = b.T if layout == "b_transposed" else b
    whole = a @ b
    got, calls = _recorded_matmul(monkeypatch, lambda: linalg._matmul(a, b))
    assert got.tobytes() == whole.tobytes()
    by_rows = n > p or dtype == np.float64
    size = n if by_rows else p
    if (size < 2 * linalg.PRODUCT_ALIGN or min(n, p) == 1
            or n * inner * p < linalg.DENSE_LANE_WORK):
        assert calls == [((n, p), 0)]
    else:
        cut = linalg.PRODUCT_ALIGN * round(size / (2 * linalg.PRODUCT_ALIGN))
        parts = [(cut, p), (n - cut, p)] if by_rows else [(n, cut), (n, p - cut)]
        assert calls == sorted(zip(parts, (0, 1)))
        assert min(cut, size - cut) >= size / 3


@ONE_BLAS_THREAD
def test_matmul_in_two_lanes_at_once_keeps_its_bits_when_repeated(monkeypatch):
    # the lanes' products run at the same time, each on its own thread,
    # through one OpenBLAS; every repetition has the whole product's bits
    monkeypatch.setattr(linalg, "_lanes", 2)
    rng = np.random.Generator(np.random.PCG64(40))
    for dtype in (np.float32, np.float64):
        h = rng.standard_normal((256, 300)).astype(dtype)
        w = rng.standard_normal((300, 3706)).astype(dtype)
        whole = (h @ w).tobytes()
        out = np.empty((256, 3706), dtype)
        for _ in range(10):
            out.fill(np.nan)
            assert linalg._matmul(h, w, out=out) is out and out.tobytes() == whole


@pytest.mark.parametrize("lanes", [1, 2])
def test_dense_products_are_cut_only_in_two_lanes(monkeypatch, lanes):
    # the decoder's five products at perfbench's sizes (b = 256, k = 50,
    # d = 300, m = 3706): in one lane each is one np.matmul on the calling
    # thread; in two, h @ w2 is cut in two, and the second part and one of
    # the backward's two products of d_out run on the worker
    rng = np.random.Generator(np.random.PCG64(41))
    theta = model.DecoderParams(*(rng.standard_normal(shape).astype(np.float32)
                                  for shape in ((50, 300), (300,), (300, 3706), (3706,))))
    z = rng.random((256, 50)).astype(np.float32)
    positives = np.nonzero(rng.random((256, 3706)) < 0.03)

    def decoder_passes():
        ws = model.Workspace()
        h, r_hat = model._decoder_forward(theta, z, ws)
        return model._decoder_backward(theta, z, h, r_hat, positives, ws)

    calls = _recorded_matmul(monkeypatch, decoder_passes, lanes)[1]
    assert len(calls) == 4 + lanes
    assert sum(lane for _, lane in calls) == 2 * (lanes - 1)


def _train_and_svd():
    """The Python threads alive after a short train on the cluster matrix
    and a truncated SVD large enough for a multi-threaded OpenBLAS to split
    its dense steps, and the sha256 of their outputs."""
    matrix = make_cluster_matrix(seed=0)
    cfg = model.TrainConfig(k=3, d=8, lr=0.01, epochs=2, batch_size=64, t0=5.0, te=0.1,
                            retrain_epochs=2, seed=0, val_every=1)
    phi, theta, _ = model.train(matrix, data.split_users(matrix, seed=0), cfg)
    svd = truncated_svd(_binary_rows(1500, 1200, 0.05, seed=31)[0], 50, seed=5)
    digest = hashlib.sha256(b"".join(x.tobytes() for x in (phi, *vars(theta).values(), svd)))
    return threading.active_count(), digest.hexdigest()


# numpy, then elicit, imported by a process of one case: "plain", "cpu0"
# (its affinity mask allows one CPU) or "no_maps" (/proc/self/maps is
# unreadable while elicit is imported, so no BLAS thread setter is found);
# it prints linalg._lanes, numpy's OpenBLAS thread count and _train_and_svd()
# run with many blocks per block loop
LANES_SCRIPT = """\
import builtins, os, sys
case, real_open = sys.argv[1], builtins.open
if case == "cpu0":
    os.sched_setaffinity(0, {0})
if case == "no_maps":
    def open(file, *args, **kwargs):
        if file == "/proc/self/maps":
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, *args, **kwargs)
    builtins.open = open
import numpy
from elicit import linalg, model
builtins.open = real_open
from test_linalg import _train_and_svd
model.BLOCK_ELEMS = 64
print(linalg._lanes, linalg._openblas_threads()[0](), *_train_and_svd())
"""


@ONE_BLAS_THREAD
@pytest.mark.parametrize("case", ["plain", "cpu0", "no_maps"])
def test_two_lanes_only_where_blas_is_pinned_on_two_cpus(monkeypatch, case):
    # with OPENBLAS_NUM_THREADS=2, importing elicit puts numpy's OpenBLAS on
    # one thread unless no setter is found, and the lanes are 2, with a lane
    # worker started by the train, only with that pin and 2 CPUs allowed.
    # Pinned, the outputs have the bits of this process's, whose BLAS is on
    # one thread. Unpinned, BLAS splits its products by its own rule, which
    # differs between kernels (Haswell's splits round otherwise than its one
    # thread), so only two such runs are compared
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        (os.path.dirname(os.path.dirname(linalg.__file__)), os.path.dirname(__file__))))

    def run():
        return subprocess.run([sys.executable, "-c", LANES_SCRIPT, case], env=env,
                              capture_output=True, text=True, check=True).stdout.split()

    out = run()
    two = min(2, len(os.sched_getaffinity(0)))
    lanes, blas_threads = {"plain": (two, 1), "cpu0": (1, 1), "no_maps": (1, two)}[case]
    # one Python thread per lane
    assert out[:3] == [str(lanes), str(blas_threads), str(lanes)]
    if case == "no_maps":
        assert run()[3] == out[3]
    else:
        monkeypatch.setattr(model, "BLOCK_ELEMS", 64)
        assert out[3] == _train_and_svd()[1]
