"""Comparison methods: random / popularity / maximal-volume seed selection,
the linear least-squares decoder and the '++' variants that pair any selector
with the neural decoder. MOSTPOP, the non-personalized popularity ranking, is
model._rank_candidates over the items' training counts."""

import re

import numpy as np

from . import model
from .data import CANONICAL_INT, DataError, read_lines
from .linalg import maxvol, ridge_solve, truncated_svd


def select_random(m, k, rng):
    """Uniform sample of k distinct items."""
    if k > m:
        raise ValueError(f"cannot sample k={k} from m={m} items")
    return rng.permutation(m)[:k].astype(np.int64)


def select_popular(counts, k):
    """Top-k items by their positive-interaction counts, ties by ascending
    index."""
    order = np.lexsort((np.arange(len(counts)), -counts))
    return order[:k].astype(np.int64)


def rbmf_select(R, k, seed=0):
    """Maximal-volume seed selection: rank-k SVD of the training matrix R
    (scipy.sparse or dense), then Maxvol over the item rows of the
    (value-weighted) right factor."""
    return maxvol(truncated_svd(R, k, seed=seed).T).indices.astype(np.int64)


def rbmf_decoder(R, seeds):
    """Linear decoder: the k x m float64 matrix X of the regularized
    least-squares fit of the scipy.sparse training matrix R onto its seed
    columns, the only part of R that is densified; predictions are z @ X."""
    return ridge_solve(R[:, seeds].toarray(), R)


def plusplus_decoder(matrix, split, seeds, cfg):
    """Neural decoder for a fixed, externally chosen seed itemset: a fresh
    decoder with one input per seed, trained on hard selections with the full
    epoch budget. Shares the training loop and architecture with the
    end-to-end model."""
    # stream 0, the one retrain_decoder shuffles with: kept for byte-identical output
    theta = model.init_decoder(len(seeds), cfg.d, matrix.m, model.rng_streams(cfg.seed)[0])
    return model.retrain_decoder(matrix, split, seeds, theta, epochs=cfg.epochs, lr=cfg.lr,
                                 batch_size=cfg.batch_size, seed=cfg.seed)


def save_seeds(seeds, path):
    """Seed exchange file: one ASCII decimal item index per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in seeds:
            fh.write(f"{int(s)}\n")


def load_seeds(path, m):
    """Read a save_seeds file of distinct item indices below m. Raises
    DataError naming path:line for a line that is not such an index as
    save_seeds writes it (ASCII digits, no sign, no leading zero) or that
    repeats an earlier line's."""
    seeds = {}  # kept in file order
    for lineno, text in enumerate(read_lines(path, universal=False), start=1):
        if not re.fullmatch(CANONICAL_INT, text) or int(text) >= m or int(text) in seeds:
            raise DataError(f"{path}:{lineno}: expected a distinct item index in [0, {m}), "
                            f"got {text!r}")
        seeds[int(text)] = None
    return np.array(list(seeds), dtype=np.int64)
