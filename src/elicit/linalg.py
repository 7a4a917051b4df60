"""Numerical kernels: randomized truncated SVD, Maxvol submatrix selection,
ridge least squares, Gumbel noise and tempered row softmax; and _in_lanes,
the one block loop of these kernels and of the model, which alone decides
whether a loop runs in one lane or two."""

import os
from dataclasses import dataclass

import numpy as np

BLOCK_ELEMS = 1 << 16  # elements per block of the elementwise passes over large arrays
# multiply-adds (nonzeros x dense columns) above which a sparse product runs
# in two lanes: below about this, the hand-over to the worker costs more
# than the second lane saves
SPARSE_LANE_WORK = 1 << 21
# multiply-adds from which a dense product runs in two lanes (_matmul)
DENSE_LANE_WORK = 1 << 22
# rows or columns per step of a dense product's cut: a multiple of the row
# and column tiles of OpenBLAS's x86-64 kernels (12 x 8 for float64 on
# SkylakeX), whose last rows and columns round by their place in the tile
PRODUCT_ALIGN = 48
MAXVOL_DELTA = 0.01  # Maxvol stops once every |C_ij| is at most 1 + this

_lane_cpus = None  # the CPUs this process may run on, read at the first block loop
# whether dense products may run in lanes: set by elicit/__init__ once it has
# put numpy's OpenBLAS on one thread, so that lanes never share the cores
# with BLAS's own threads
_dense_lanes = False
_lane_worker = None  # the (tasks, results) queues of the lane-1 thread, made at its first use


@dataclass
class MaxvolResult:
    indices: np.ndarray  # k selected row indices
    swaps: int
    converged: bool


def _in_lanes(total, step, body, split=True):
    """The one block loop: body(lane, start, stop) once for each block
    [start, stop) of range(0, total, step), stop at most total. It runs in
    two lanes when `split` (the caller's rule for work worth the hand-over)
    holds, there is more than one block and the process may run on 2 CPUs
    or more; else in one, inline. Lane 0 runs the first ceil(blocks / 2)
    blocks in order on the calling thread and lane 1 the rest in order on
    one persistent worker thread, started at its first use. The lanes must
    write disjoint ranges and call only numpy, its dense products only
    where numpy's BLAS is on one thread (_dense_lanes), and scipy.sparse's
    products, which release the GIL in their loops.
    No function of this package may run on the worker, as the tracers of
    perfbench and tools keep one span stack per process. An exception of
    either lane is raised here once both have stopped, and the worker
    stays usable. There is one worker, so block loops run one at a time."""
    global _lane_cpus, _lane_worker
    if _lane_cpus is None:
        _lane_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)
    blocks = -(-total // step)

    def run(lane, first, last):
        for start in range(first, last, step):
            body(lane, start, min(start + step, total))

    if not (split and blocks > 1 and _lane_cpus >= 2):
        run(0, 0, total)
        return
    if _lane_worker is None:
        import queue
        import threading
        tasks, results = queue.SimpleQueue(), queue.SimpleQueue()

        def serve():
            while True:
                work, first, last = tasks.get()
                try:
                    work(1, first, last)
                    error = None
                except BaseException as exc:  # raised again by the caller
                    error = exc
                work = None  # its arrays are not held until the next call
                results.put(error)
                error = None

        threading.Thread(target=serve, name="elicit lane 1", daemon=True).start()
        _lane_worker = tasks, results
    tasks, results = _lane_worker
    half = -(-blocks // 2) * step  # lane 0 takes the first ceil(blocks / 2) blocks
    tasks.put((run, half, total))
    try:
        run(0, 0, half)
    finally:
        error = results.get()
    if error is not None:
        raise error


def _openblas_threads():
    """The (get, set) functions of the thread count of numpy's OpenBLAS,
    found among the libraries the process has mapped, or () where there is
    none (another BLAS, or no /proc). The names searched are those of
    numpy's wheels (64_-suffixed) and of a plain OpenBLAS; scipy's wheels
    name theirs scipy_openblas_*_num_threads, unsuffixed, so scipy's
    OpenBLAS is not taken for numpy's."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    import ctypes
    handles = [ctypes.CDLL(lib) for lib in libs]
    return next(((getattr(handle, name.format("get")), getattr(handle, name.format("set")))
                 for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                              "openblas_{}_num_threads")
                 for handle in handles if hasattr(handle, name.format("set"))), ())


def _matmul(a, b, out=None):
    """a @ b for a dense 2-D b, into `out` (of their result dtype, and
    overlapping neither) when given, in two parts run in lanes that keep
    the one-thread product's bits: a scipy.sparse a by the halves of b's
    columns above SPARSE_LANE_WORK multiply-adds; a dense product from
    DENSE_LANE_WORK on, if _dense_lanes, by its larger output dimension if
    float32 and by its rows otherwise, at the multiple of PRODUCT_ALIGN
    nearest the middle (each part past model.SMALL_GEMM_WORK), and never
    one output row or column."""
    n, p = a.shape[0], b.shape[1]
    out = np.empty((n, p), np.result_type(a.dtype, b.dtype)) if out is None else out
    sparse = not isinstance(a, np.ndarray)
    # a float64 product's last columns round by the call's column count (as
    # measured on SkylakeX kernels), its rows only by their place in a tile
    by_rows = not sparse and (n > p or out.dtype != np.float32)
    size = n if by_rows else p
    if sparse:  # scipy makes each output column on its own
        cut, split = -(-p // 2), a.nnz * p > SPARSE_LANE_WORK
    else:
        cut = PRODUCT_ALIGN * round(size / (2 * PRODUCT_ALIGN))
        # numpy takes one output row or column through a matrix-vector path
        split = (_dense_lanes and size >= 2 * PRODUCT_ALIGN and min(n, p) > 1
                 and n * a.shape[1] * p >= DENSE_LANE_WORK)
        b = b.astype(out.dtype, copy=False)  # cast once, not in each part (exact)
    bounds = (0, cut, size) if split and 0 < cut < size else (0, size)

    def part(lane, i, _):
        start, stop = bounds[i:i + 2]
        if by_rows:
            np.matmul(a[start:stop], b, out=out[start:stop])
        elif sparse:
            out[:, start:stop] = a @ b[:, start:stop]
        else:
            np.matmul(a, b[:, start:stop], out=out[:, start:stop])

    _in_lanes(len(bounds) - 1, 1, part)
    return out


def truncated_svd(A, k, seed):
    """The k x m right factor of A's rank-k approximation by randomized
    subspace iteration: the top k right singular vectors, each scaled by its
    singular value. Deterministic for a given seed. A is a dense array or a
    scipy.sparse matrix: it only ever multiplies a dense factor from the
    left, as A or A.T, in lanes (_matmul)."""
    n, m = A.shape
    if not (1 <= k <= min(n, m)):
        raise ValueError(f"k={k} out of range for {n}x{m} matrix")
    rng = np.random.Generator(np.random.PCG64(seed))
    p = min(m, k + 10)  # the range sketch oversamples by 10 columns
    Q = np.linalg.qr(_matmul(A, rng.standard_normal((m, p))))[0]
    for _ in range(4):  # power iterations
        Q = np.linalg.qr(_matmul(A.T, Q))[0]
        Q = np.linalg.qr(_matmul(A, Q))[0]
    B = _matmul(A.T, Q).T  # Q.T @ A
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


def gumbel_noise(rows, cols, rng, out=None):
    """I.i.d. Gumbel(0, 1) samples: g = -log(-log(u)), u ~ Uniform(0, 1),
    computed in float64 and written to `out` (a C-contiguous rows x cols
    array) in its own dtype, or to a new float64 array. The uniforms are
    drawn in blocks of BLOCK_ELEMS in C order, the order in which the
    generator fills a whole array, so the samples and the generator's state
    after the draw do not depend on the block size, and no rows x cols
    float64 array is made for another dtype."""
    if out is None:
        out = np.empty((rows, cols))
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
