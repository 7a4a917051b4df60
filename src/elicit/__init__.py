"""Seed-itemset rating elicitation: end-to-end learned seed selection with a
neural reconstruction decoder, classic statistic-based and maximal-volume
baselines, and a top-N ranking evaluation protocol."""

from . import baselines, data, evaluate, linalg, model

# numpy's OpenBLAS on one thread, whatever the import order: the lanes of
# linalg._in_lanes are the program's one thread pool, and the outputs do not
# depend on the BLAS thread count. Where no setter is found (another BLAS, or
# no /proc), BLAS keeps its own threads and every dense product runs whole.
if _blas_threads := linalg._openblas_threads():
    _blas_threads[1](1)
linalg._dense_lanes = bool(_blas_threads)

__version__ = "0.1.0"
