"""Numerical kernels: randomized truncated SVD, Maxvol submatrix selection,
ridge least squares, Gumbel noise and tempered row softmax; and the two
lanes (_in_lanes) in which the block loops of these kernels and of the
model run."""

import contextlib
import os
from dataclasses import dataclass

import numpy as np

BLOCK_ELEMS = 1 << 16  # elements per block of the elementwise passes over large arrays
# multiply-adds (nonzeros x dense columns) above which a sparse product runs
# in two lanes: below about this, the hand-over to the worker costs more
# than the second lane saves
SPARSE_LANE_WORK = 1 << 21
MAXVOL_DELTA = 0.01  # Maxvol stops once every |C_ij| is at most 1 + this

_lane_cpus = None  # the CPUs this process may run on, read at the first block loop
_lane_worker = None  # the (tasks, results) queues of the lane-1 thread, made at its first use
_blas_threads = None  # (get, set) of numpy's OpenBLAS thread count, () if none; found at first use


@dataclass
class MaxvolResult:
    indices: np.ndarray  # k selected row indices
    swaps: int
    converged: bool


def _lanes(work, block):
    """The lanes of a loop over `work` elements (or rows) in blocks of
    `block`: 2 when that is more than one block and the process may run on
    2 CPUs or more, else 1. A loop of one block's work would pay the
    hand-over to the worker for nothing."""
    global _lane_cpus
    if _lane_cpus is None:
        _lane_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)
    return 2 if work > block and _lane_cpus >= 2 else 1


def _in_lanes(lanes, total, step, body):
    """Run the block loop over range(0, total, step) as body(lane, start,
    stop) for each of `lanes` (from _lanes) contiguous parts [start, stop)
    of it: lane 0 on the calling thread and lane 1, if any, on one
    persistent worker thread, started at its first use. The lanes must
    write disjoint ranges and call only numpy (none of its BLAS products)
    and scipy.sparse's products: these release the GIL in their loops, and
    OpenBLAS's own threads serve the caller's products.
    No function of this package may run on the worker, as the tracers of
    perfbench and tools keep one span stack per process. An exception of
    either lane is raised here once both have stopped, and the worker
    stays usable. There is one worker, so block loops run one at a time."""
    global _lane_worker
    if lanes == 1:
        body(0, 0, total)
        return
    if _lane_worker is None:
        import queue
        import threading
        tasks, results = queue.SimpleQueue(), queue.SimpleQueue()

        def serve():
            while True:
                work, start, stop = tasks.get()
                try:
                    work(1, start, stop)
                    error = None
                except BaseException as exc:  # raised again by the caller
                    error = exc
                work = None  # its arrays are not held until the next call
                results.put(error)
                error = None

        threading.Thread(target=serve, name="elicit lane 1", daemon=True).start()
        _lane_worker = tasks, results
    tasks, results = _lane_worker
    blocks = -(-total // step)
    half = -(-blocks // 2) * step  # lane 0 takes the first ceil(blocks / 2) blocks
    tasks.put((body, half, total))
    try:
        body(0, 0, half)
    finally:
        error = results.get()
    if error is not None:
        raise error


def _openblas_threads():
    """The (get, set) functions of the thread count of numpy's OpenBLAS,
    found once among the libraries the process has mapped, or () where
    there is none (another BLAS, or no /proc). The names searched are
    those of numpy's wheels (64_-suffixed) and of a plain OpenBLAS; scipy's
    wheels name theirs scipy_openblas_*_num_threads, unsuffixed, so
    scipy's OpenBLAS is not taken for numpy's."""
    global _blas_threads
    if _blas_threads is None:
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                libs = sorted({line.split()[-1] for line in fh
                               if "openblas" in line and ".so" in line})
        except OSError:
            libs = []
        import ctypes
        handles = [ctypes.CDLL(lib) for lib in libs]
        _blas_threads = next(((getattr(handle, name.format("get")),
                               getattr(handle, name.format("set")))
                              for name in ("scipy_openblas_{}_num_threads64_",
                                           "openblas_{}_num_threads64_", "openblas_{}_num_threads")
                              for handle in handles if hasattr(handle, name.format("set"))), ())
    return _blas_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Runs its block with numpy's OpenBLAS on one thread and restores the
    previous thread count after it, also when the block raises; where no
    setter is found (_openblas_threads), it changes nothing."""
    calls = _openblas_threads()
    if not calls:
        yield
        return
    get, set_threads = calls
    previous = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _sparse_product(A, X):
    """A @ X for a scipy.sparse A and a dense 2-D X. When that is more than
    SPARSE_LANE_WORK multiply-adds, the two halves of X's columns run in two
    lanes (_in_lanes). scipy makes each column of a sparse product on its
    own, by the same operations in the same order, whatever the other
    columns, so the bits do not depend on the lanes."""
    p = X.shape[1]
    lanes = _lanes(A.nnz * p, SPARSE_LANE_WORK)
    if lanes == 1:
        return A @ X
    out = np.empty((A.shape[0], p), np.result_type(A.dtype, X.dtype))

    def columns(lane, start, stop):
        out[:, start:stop] = A @ X[:, start:stop]

    _in_lanes(lanes, p, -(-p // 2), columns)
    return out


def truncated_svd(A, k, seed):
    """The k x m right factor of A's rank-k approximation by randomized
    subspace iteration: the top k right singular vectors, each scaled by its
    singular value. Deterministic for a given seed. A is a dense array or a
    scipy.sparse matrix: it only ever multiplies a dense factor from the
    left, as A or A.T, and a sparse A's products run in two lanes
    (_sparse_product). The QR and SVD factorizations run on one BLAS
    thread (_one_blas_thread): their panel loops at these sizes are faster
    on one, and their factors have the same bits. A dense A's products run
    on that one thread too."""
    n, m = A.shape
    if not (1 <= k <= min(n, m)):
        raise ValueError(f"k={k} out of range for {n}x{m} matrix")
    times = np.matmul if isinstance(A, np.ndarray) else _sparse_product
    rng = np.random.Generator(np.random.PCG64(seed))
    p = min(m, k + 10)  # the range sketch oversamples by 10 columns
    with _one_blas_thread():
        Q = np.linalg.qr(times(A, rng.standard_normal((m, p))))[0]
        for _ in range(4):  # power iterations
            Q = np.linalg.qr(times(A.T, Q))[0]
            Q = np.linalg.qr(times(A, Q))[0]
        B = times(A.T, Q).T  # Q.T @ A
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
