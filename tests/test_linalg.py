import itertools

import numpy as np
import pytest
from scipy.sparse import csr_array

from elicit import linalg
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


def _svd_in_lanes(monkeypatch, A, k, cpus):
    """truncated_svd(A, k) as on `cpus` CPUs, and whether a product ran in
    two lanes."""
    two_lanes = []
    in_lanes = linalg._in_lanes

    def recording_in_lanes(lanes, total, step, body):
        two_lanes.append(lanes == 2)
        in_lanes(lanes, total, step, body)

    monkeypatch.setattr(linalg, "_in_lanes", recording_in_lanes)
    monkeypatch.setattr(linalg, "_lane_cpus", cpus)
    return truncated_svd(A, k, seed=3), any(two_lanes)


@pytest.mark.parametrize("shape, density, k, work", [
    # past SPARSE_LANE_WORK by itself: 1500 x 1200 at 5%, 60 columns
    ((1500, 1200), 0.05, 50, None),
    # small products with the lanes forced on: 5 columns split 3 + 2,
    # 2 columns split 1 + 1, and 1 column split 1 + 0
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
    assert not one_in_two and two_in_two
    assert one.tobytes() == two.tobytes()
    # each product in two lanes has the bits of scipy's whole product
    X = np.random.Generator(np.random.PCG64(4)).standard_normal((shape[1], 5))
    for M, Y in ((A, X), (A.T, A @ X)):
        assert linalg._sparse_product(M, Y).tobytes() == (M @ Y).tobytes()


def test_svd_of_a_csr_array_has_the_same_bits_without_the_blas_thread_setter(monkeypatch):
    A = _binary_csr(1500, 1200, 0.05, seed=31)
    with_setter = truncated_svd(A, 50, seed=5)
    monkeypatch.setattr(linalg, "_blas_threads", ())
    assert truncated_svd(A, 50, seed=5).tobytes() == with_setter.tobytes()


def test_svd_factorizes_on_one_blas_thread_and_restores_the_count(monkeypatch):
    # a stand-in OpenBLAS at 2 threads: the QR and SVD calls see 1, and the
    # count is 2 again after the SVD, also when a factorization raises
    threads = [2]
    seen = []
    monkeypatch.setattr(linalg, "_blas_threads",
                        (lambda: threads[0], lambda n: threads.__setitem__(0, n)))
    qr, svd = np.linalg.qr, np.linalg.svd

    def counting(factorize):
        def call(*args, **kwargs):
            seen.append(threads[0])
            return factorize(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "qr", counting(qr))
    monkeypatch.setattr(np.linalg, "svd", counting(svd))
    A = _binary_csr(40, 30, 0.3, seed=32)
    truncated_svd(A, 5, seed=0)
    assert seen == [1] * 10 and threads == [2]

    def failing(*args, **kwargs):
        seen.append(threads[0])
        raise np.linalg.LinAlgError("stop")

    seen.clear()
    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="stop"):
        truncated_svd(A, 5, seed=0)
    assert seen == [1] * 10 and threads == [2]


def test_svd_restores_the_real_blas_thread_count_after_an_exception(monkeypatch):
    calls = linalg._openblas_threads()
    if not calls:
        pytest.skip("no OpenBLAS thread setter in this process")
    before = calls[0]()

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("stop")

    monkeypatch.setattr(np.linalg, "qr", failing)
    with pytest.raises(np.linalg.LinAlgError, match="stop"):
        truncated_svd(_binary_csr(40, 30, 0.3, seed=33), 5, seed=0)
    assert calls[0]() == before
