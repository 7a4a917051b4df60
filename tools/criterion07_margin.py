"""Criterion 07's margin: the pipeline of its acceptance test, run for runs
0..N-1 instead of only runs 0..4.

    PYTHONPATH=src python tools/criterion07_margin.py [--runs N]

The criterion trains DRE with seed=run on the 3-block cluster matrix of
tests/test_acceptance.py and passes when, over runs 0..4, the seeds cover
all 3 blocks in at least 4 runs and DRE beats RAN++ at NDCG@5 in at least 4.
This prints each run, the coverage and win counts over all N runs and how
many disjoint 5-run windows would pass, so a change that moves DRE-training
bits shows whether it is worse in distribution or only unlucky at runs 0..4.
The matrix comes from the test file itself; the loop body repeats the
test's. 100 runs take about 2 minutes on 2 cores.
"""

import argparse
import os
import sys
import time

import numpy as np

from elicit import baselines, data, evaluate, model

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from test_acceptance import cluster_matrix  # noqa: E402


def criterion07_run(matrix, split, run):
    """(blocks covered by DRE's seeds, DRE's NDCG@5, RAN++'s NDCG@5) of one run."""
    cfg = model.TrainConfig(
        k=3, d=16, lr=0.01, epochs=1000, batch_size=64, t0=10.0, te=0.01,
        retrain_epochs=100, seed=run, val_every=10**6)
    phi, theta, _ = model.train(matrix, split, cfg)
    seeds = model.extract_seeds(phi)
    theta = model.retrain_decoder(
        matrix, split, seeds, theta, cfg.retrain_epochs,
        lr=cfg.lr, batch_size=cfg.batch_size, seed=cfg.seed)
    dre = evaluate.evaluate_method(
        lambda z: model.recommend(theta, seeds, z, 5), matrix, split, seeds, Ns=(5,))
    rng = np.random.Generator(np.random.PCG64(1000 + run))
    rand_seeds = baselines.select_random(matrix.m, 3, rng)
    rand_theta = baselines.plusplus_decoder(matrix, split, rand_seeds, cfg)
    ran = evaluate.evaluate_method(
        lambda z: model.recommend(rand_theta, rand_seeds, z, 5),
        matrix, split, rand_seeds, Ns=(5,))
    return len({int(s) // 10 for s in seeds}), dre["NDCG"][5].mean(), ran["NDCG"][5].mean()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=100, help="runs 0..N-1 (default 100)")
    args = parser.parse_args(argv)
    start = time.time()
    matrix = cluster_matrix()
    split = data.split_users(matrix, seed=0)
    covered, won = [], []
    for run in range(args.runs):
        blocks, d, r = criterion07_run(matrix, split, run)
        covered.append(blocks == 3)
        won.append(d > r)
        print(f"run {run}: blocks {blocks}/3 DRE={d:.4f} RAN++={r:.4f}", flush=True)
    windows = [(sum(covered[i:i + 5]) >= 4 and sum(won[i:i + 5]) >= 4)
               for i in range(0, args.runs - 4, 5)]
    print(f"coverage {sum(covered)}/{args.runs}, wins {sum(won)}/{args.runs}, "
          f"passing 5-run windows {sum(windows)}/{len(windows)}, "
          f"{time.time() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
