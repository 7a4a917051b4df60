"""Seed-itemset rating elicitation: end-to-end learned seed selection with a
neural reconstruction decoder, classic statistic-based and maximal-volume
baselines, and a top-N ranking evaluation protocol."""

from . import baselines, data, evaluate, linalg, model

__version__ = "0.1.0"
