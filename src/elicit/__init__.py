"""Seed-itemset rating elicitation: end-to-end learned seed selection with a
neural reconstruction decoder, classic statistic-based and maximal-volume
baselines, and a top-N ranking evaluation protocol."""

import os

# OpenBLAS's idle threads sleep at once instead of spinning for about 0.1 s
# after each product, which would hold the core on which linalg._in_lanes
# runs its second lane. OpenBLAS reads this when numpy loads it, so a process
# that imported numpy before this package keeps the default; a value the
# user set is kept too.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import baselines, data, evaluate, linalg, model

__version__ = "0.1.0"
