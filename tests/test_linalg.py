import itertools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import csr_array

from elicit import linalg, model
from elicit.linalg import (
    MAXVOL_DELTA, gumbel_noise, maxvol, ridge_solve, softmax_rows, truncated_svd,
)


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


def test_sparse_input_matches_dense():
    # a binary matrix, as the training matrix is: the ridge normal equations
    # then hold exact integer counts, so the sparse route gives the same bits
    # as the plain dense expressions; the SVD sums floats in another order
    rng = np.random.Generator(np.random.PCG64(11))
    R = (rng.random((60, 25)) < 0.2).astype(np.float64)
    S = csr_array(R)
    dense, sparse = truncated_svd(R, 4, seed=1), truncated_svd(S, 4, seed=1)
    assert np.allclose(sparse, dense, atol=1e-10)
    A = R[:, [3, 7, 11]]
    plain = np.linalg.solve(A.T @ A + 1e-6 * np.eye(3), A.T @ R)
    for B in (R, S):
        X = ridge_solve(A, B)
        assert X.tobytes() == plain.tobytes() and X.flags.c_contiguous


def _binary_csr(rows, cols, density, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return csr_array((rng.random((rows, cols)) < density).astype(np.float64))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("split", [None, True, False], ids=["default", "split", "no_split"])
@pytest.mark.parametrize("total, step", [(0, 3), (2, 3), (3, 3), (9, 2), (8, 2)],
                         ids=["no_blocks", "short_block", "one_block", "odd_ragged", "even"])
def test_in_lanes_runs_each_block_once_in_order_within_its_lane(monkeypatch, total, step,
                                                                split, cpus):
    blocks = [(start, min(start + step, total)) for start in range(0, total, step)]
    two = cpus == 2 and len(blocks) > 1 and split is not False
    monkeypatch.setattr(linalg, "_lane_cpus", cpus)
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


def _svd_in_lanes(monkeypatch, A, k, cpus):
    """truncated_svd(A, k) as on `cpus` CPUs, and whether a product ran in
    two lanes."""
    two_lanes = []
    in_lanes = linalg._in_lanes

    def recording_in_lanes(total, step, body, **split):
        def recording_body(lane, start, stop):
            two_lanes.append(lane == 1)
            body(lane, start, stop)

        in_lanes(total, step, recording_body, **split)

    monkeypatch.setattr(linalg, "_in_lanes", recording_in_lanes)
    monkeypatch.setattr(linalg, "_lane_cpus", cpus)
    return truncated_svd(A, k, seed=3), any(two_lanes)


@pytest.mark.parametrize("shape, density, k, work", [
    # past SPARSE_LANE_WORK by itself: 1500 x 1200 at 5%, 60 columns
    ((1500, 1200), 0.05, 50, None),
    # small products with the lanes forced on: 5 columns split 3 + 2 and
    # 2 columns split 1 + 1; 1 column is one block, so it stays in one lane
    ((9, 7), 0.4, 2, 0),
    ((6, 2), 0.6, 1, 0),
    ((6, 1), 0.6, 1, 0),
])
def test_svd_of_a_csr_array_has_the_same_bits_in_one_lane_and_two(monkeypatch, shape, density,
                                                                 k, work):
    if work is not None:
        monkeypatch.setattr(linalg, "SPARSE_LANE_WORK", work)
    A = _binary_csr(*shape, density, seed=30)
    one, one_in_two = _svd_in_lanes(monkeypatch, A, k, cpus=1)
    two, two_in_two = _svd_in_lanes(monkeypatch, A, k, cpus=2)
    assert not one_in_two and two_in_two == (min(shape[1], k + 10) > 1)  # the sketch's columns
    assert one.tobytes() == two.tobytes()
    # each product in two lanes has the bits of scipy's whole product
    X = np.random.Generator(np.random.PCG64(4)).standard_normal((shape[1], 5))
    for M, Y in ((A, X), (A.T, A @ X)):
        assert linalg._matmul(M, Y).tobytes() == (M @ Y).tobytes()


ONE_BLAS_THREAD = pytest.mark.skipif(
    not linalg._openblas_threads(), reason="no OpenBLAS thread setter in this process")


@ONE_BLAS_THREAD
def test_svd_of_a_csr_array_has_the_same_bits_without_the_blas_thread_setter(monkeypatch):
    # where no setter is found, BLAS keeps its own threads and dense
    # products run whole; here numpy's OpenBLAS on 2 threads stands in
    A = _binary_csr(1500, 1200, 0.05, seed=31)
    one_thread = truncated_svd(A, 50, seed=5)
    monkeypatch.setattr(linalg, "_dense_lanes", False)
    set_threads = linalg._openblas_threads()[1]
    set_threads(2)
    try:
        two_threads = truncated_svd(A, 50, seed=5)
    finally:
        set_threads(1)
    assert two_threads.tobytes() == one_thread.tobytes()


@ONE_BLAS_THREAD
def test_import_of_elicit_after_numpy_puts_numpys_openblas_on_one_thread(tmp_path):
    # linalg alone (no package import) reads the count numpy started with,
    # here 2 where there are 2 CPUs; importing elicit afterwards sets it to 1
    # and lets dense products run in lanes
    script = tmp_path / "threads.py"
    script.write_text(
        "import importlib.util\nimport numpy\n"
        f"spec = importlib.util.spec_from_file_location('lone_linalg', {linalg.__file__!r})\n"
        "lone = importlib.util.module_from_spec(spec)\nspec.loader.exec_module(lone)\n"
        "get = lone._openblas_threads()[0]\nbefore = get()\nimport elicit\n"
        "print(before, get(), elicit.linalg._dense_lanes)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.dirname(os.path.dirname(linalg.__file__)))
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 2
    assert out == [str(min(2, cpus)), "1", "True"]


def _recorded_matmul(monkeypatch, run):
    """run() on 2 CPUs, and the (out shape, lane) of each np.matmul call it
    made, sorted."""
    calls, matmul = [], np.matmul
    lanes = {threading.get_ident(): 0}

    def recording(x, y, out):
        calls.append((out.shape, lanes.setdefault(threading.get_ident(), 1)))
        return matmul(x, y, out=out)

    monkeypatch.setattr(linalg, "_lane_cpus", 2)
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
    # through one OpenBLAS; every repetition has the whole product's bits,
    # also for float64 scoring against a float32 w (one cast before the cut)
    monkeypatch.setattr(linalg, "_lane_cpus", 2)
    rng = np.random.Generator(np.random.PCG64(40))
    for h_dtype, w_dtype in ((np.float32,) * 2, (np.float64,) * 2, (np.float64, np.float32)):
        h = rng.standard_normal((256, 300)).astype(h_dtype)
        w = rng.standard_normal((300, 3706)).astype(w_dtype)
        whole = (h @ w).tobytes()
        out = np.empty((256, 3706), h_dtype)
        for _ in range(10):
            out.fill(np.nan)
            assert linalg._matmul(h, w, out=out) is out and out.tobytes() == whole


@pytest.mark.parametrize("dense_lanes", [False, True])
def test_dense_products_run_whole_on_the_calling_thread_without_the_blas_thread_setter(
        monkeypatch, dense_lanes):
    # the decoder's five products at perfbench's sizes (b = 256, k = 50,
    # d = 300, m = 3706): where no setter is found, each is one np.matmul
    # on the calling thread, as BLAS runs its own threads
    monkeypatch.setattr(linalg, "_dense_lanes", dense_lanes)
    rng = np.random.Generator(np.random.PCG64(41))
    theta = model.DecoderParams(*(rng.standard_normal(shape).astype(np.float32)
                                  for shape in ((50, 300), (300,), (300, 3706), (3706,))))
    z = rng.random((256, 50)).astype(np.float32)
    positives = np.nonzero(rng.random((256, 3706)) < 0.03)

    def decoder_passes():
        ws = model.Workspace()
        h, r_hat = model._decoder_forward(theta, z, ws)
        return model._decoder_backward(theta, z, h, r_hat, positives, ws)

    calls = _recorded_matmul(monkeypatch, decoder_passes)[1]
    assert len(calls) == 5 + dense_lanes  # h @ w2 in two parts
    assert any(lane == 1 for _, lane in calls) == dense_lanes
