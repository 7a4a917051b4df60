"""Numerical kernels: randomized truncated SVD, Maxvol submatrix selection,
ridge least squares, Gumbel noise and tempered row softmax."""

from dataclasses import dataclass

import numpy as np

BLOCK_ELEMS = 1 << 16  # elements per block of the elementwise passes over large arrays
MAXVOL_DELTA = 0.01  # Maxvol stops once every |C_ij| is at most 1 + this


@dataclass
class MaxvolResult:
    indices: np.ndarray  # k selected row indices
    swaps: int
    converged: bool


def truncated_svd(A, k, seed=0):
    """The k x m right factor of A's rank-k approximation by randomized
    subspace iteration: the top k right singular vectors, each scaled by its
    singular value. Deterministic for a given seed. A is a dense array or a
    scipy.sparse matrix: it only ever multiplies a dense factor from the
    left, as A or A.T."""
    n, m = A.shape
    if not (1 <= k <= min(n, m)):
        raise ValueError(f"k={k} out of range for {n}x{m} matrix")
    rng = np.random.Generator(np.random.PCG64(seed))
    p = min(m, k + 10)  # the range sketch oversamples by 10 columns
    Q = np.linalg.qr(A @ rng.standard_normal((m, p)))[0]
    for _ in range(4):  # power iterations
        Q = np.linalg.qr(A.T @ Q)[0]
        Q = np.linalg.qr(A @ Q)[0]
    B = (A.T @ Q).T  # Q.T @ A
    s, Vt = np.linalg.svd(B, full_matrices=False)[1:]
    return s[:k, None] * Vt[:k]


def _pivoted_init(B):
    """Row indices chosen by Gaussian elimination with partial pivoting."""
    m, k = B.shape
    W = np.array(B, dtype=np.float64)
    order = np.arange(m)
    for col in range(k):
        piv = col + np.argmax(np.abs(W[col:, col]))
        if np.abs(W[piv, col]) == 0.0:
            raise np.linalg.LinAlgError("rank-deficient matrix in maxvol init")
        if piv != col:
            W[[col, piv]] = W[[piv, col]]
            order[[col, piv]] = order[[piv, col]]
        # the later columns' steps read only the trailing block
        W[col + 1:, col + 1:] -= np.outer(W[col + 1:, col] / W[col, col], W[col, col + 1:])
    return order[:k]


def maxvol(B):
    """Classic Maxvol: find k rows of the m x k matrix B whose submatrix has
    near-maximal |determinant|.

    Starting from a partial-pivoting initialization, repeatedly swap in the
    row with the largest coefficient of C = B @ B_S^{-1} until every |C_ij|
    is at most 1 + MAXVOL_DELTA. |det(B_S)| is non-decreasing across swaps.
    """
    B = np.asarray(B, dtype=np.float64)
    m, k = B.shape
    if m < k:
        raise ValueError(f"need at least k={k} rows, got {m}")
    indices = _pivoted_init(B)
    if m == k:
        return MaxvolResult(indices=np.arange(k), swaps=0, converged=True)
    swaps = 0
    converged = False
    for _ in range(200):  # swaps before giving up on convergence
        C = np.linalg.solve(B[indices].T, B.T).T  # C @ B_S = B
        flat = np.argmax(np.abs(C))
        i, j = divmod(flat, k)
        if np.abs(C[i, j]) <= 1.0 + MAXVOL_DELTA:
            converged = True
            break
        indices[j] = i  # |det| grows by factor |C_ij| > 1
        swaps += 1
    return MaxvolResult(indices=indices, swaps=swaps, converged=converged)


def ridge_solve(A, B, lam=1e-6):
    """Solve min_X ||B - A X||_F^2 + lam ||X||_F^2 via the normal equations.

    A is a dense array; B is a dense array or a scipy.sparse matrix."""
    A = np.asarray(A, dtype=np.float64)
    k = A.shape[1]
    G = A.T @ A + lam * np.eye(k)
    try:
        return np.linalg.solve(G, (B.T @ A).T)  # A.T @ B
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"normal matrix singular despite lam={lam}") from exc


def gumbel_noise(rows, cols, rng, dtype=np.float64, out=None):
    """I.i.d. Gumbel(0, 1) samples: g = -log(-log(u)), u ~ Uniform(0, 1),
    computed in float64 and returned as dtype, or written to `out` (a
    C-contiguous rows x cols array) in its own dtype. The uniforms are drawn
    in blocks of BLOCK_ELEMS in C order, the order in which the generator
    fills a whole array, so the samples and the generator's state after the
    draw do not depend on the block size, and no rows x cols float64 array
    is made for another dtype."""
    if out is None:
        out = np.empty((rows, cols), dtype)
    flat = out.reshape(-1, copy=False)
    u_buf = np.empty(min(flat.size, BLOCK_ELEMS), np.float64)
    for i in range(0, flat.size, BLOCK_ELEMS):
        block = flat[i:i + BLOCK_ELEMS]
        u = rng.random(out=u_buf[:len(block)])
        np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        block[...] = u
    return out


def softmax_rows(M, tau, out=None):
    """Row-wise softmax of M / tau, stabilized by row-max subtraction;
    written to `out` when given, which may be M itself."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    Z = np.divide(M, tau, out=out)
    Z -= Z.max(axis=-1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=-1, keepdims=True)
    return Z
