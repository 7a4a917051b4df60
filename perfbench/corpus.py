"""Seeded generator of a raw `user::item::stars::ts` log shaped like
MovieLens-1M, and the matrix shape `elicit prepare` must build from it.

The expected shape is computed here with plain numpy, independently of
`elicit.data`, so the benchmark's check of `prepare` does not reuse the
code it checks.
"""

from dataclasses import dataclass

import numpy as np

# ML-1M star histogram (1..5 stars): 5.6%, 10.8%, 26.1%, 34.9%, 22.6%.
STAR_PROBS = np.array([0.0562, 0.1075, 0.2613, 0.3489, 0.2261])
THRESHOLD = 3.5   # `elicit prepare` default: a rating counts when stars > 3.5
MIN_COUNT = 5     # `elicit prepare` default: users need >= 5 positives
TS0 = 956703932   # first ML-1M timestamp


@dataclass(frozen=True)
class Shape:
    """Corpus size and popularity parameters."""

    users: int
    items: int
    lines: int             # total ratings; activity is rescaled to hit it exactly
    min_activity: int
    activity_mu: float     # log-scale mean of the lognormal activity above min_activity
    activity_sigma: float
    popularity_alpha: float
    popularity_offset: float


ML1M = Shape(users=6040, items=3706, lines=1000209, min_activity=20, activity_mu=4.47,
             activity_sigma=1.05, popularity_alpha=1.0, popularity_offset=30.0)
TINY = Shape(users=240, items=200, lines=8000, min_activity=20, activity_mu=2.5,
             activity_sigma=0.6, popularity_alpha=1.0, popularity_offset=10.0)


@dataclass(frozen=True)
class Expected:
    lines: int
    n: int
    m: int
    nnz: int
    max_item: int      # largest item token
    pairs: np.ndarray  # sorted int64 user_token * (max_item + 1) + item_token


def generate(shape, seed):
    """Return (log_text, Expected) for one seed. Same seed, same bytes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    item_tokens = np.sort(rng.choice(np.arange(1, int(shape.items * 1.07) + 1),
                                     size=shape.items, replace=False))
    # power-law popularity over a seeded ranking of the items
    rank = rng.permutation(shape.items)
    log_w = (-shape.popularity_alpha * np.log(rank + shape.popularity_offset)).astype(np.float32)
    activity = _activity(shape, rng)

    users, items = [], []
    for u0 in range(0, shape.users, 512):
        block = activity[u0:u0 + 512]
        # Gumbel top-c (Gumbel = -log Exp(1)): each user's items, without
        # replacement, weighted by popularity. An Exp draw of 0 gives +inf.
        with np.errstate(divide="ignore"):
            keys = log_w - np.log(rng.standard_exponential((len(block), shape.items),
                                                           dtype=np.float32))
        for j, c in enumerate(block):
            top = np.argpartition(-keys[j], c - 1)[:c]
            users.append(np.full(c, u0 + j + 1, dtype=np.int64))
            items.append(top[np.argsort(-keys[j, top], kind="stable")])
    users = np.concatenate(users)
    items = item_tokens[np.concatenate(items)]
    stars = 1 + rng.choice(5, size=len(users), p=STAR_PROBS / STAR_PROBS.sum())
    ts = TS0 + np.cumsum(rng.integers(0, 60, size=len(users)))

    text = "".join(f"{u}::{i}::{s}::{t}\n" for u, i, s, t in
                   zip(users.tolist(), items.tolist(), stars.tolist(), ts.tolist()))
    return text, expected_shape(users, items, stars)


def _activity(shape, rng):
    """Lognormal ratings per user above min_activity, rescaled so that they
    sum to exactly shape.lines; no user rates more than all but one item."""
    cap = shape.items - 1
    extra = rng.lognormal(shape.activity_mu, shape.activity_sigma, shape.users)
    want = extra * (shape.lines - shape.users * shape.min_activity) / extra.sum()
    activity = np.minimum(shape.min_activity + np.floor(want).astype(np.int64), cap)
    # flooring and capping only lose ratings: hand them out by largest remainder
    by_remainder = np.argsort(-(want - np.floor(want)), kind="stable")
    while (short := shape.lines - int(activity.sum())) > 0:
        activity[by_remainder[activity[by_remainder] < cap][:short]] += 1
    return activity


def expected_shape(users, items, stars):
    """n/m/nnz after binarize (> THRESHOLD) and the per-user MIN_COUNT filter.
    The generator never repeats a (user, item) pair, so no pair collapses."""
    pos = stars > THRESHOLD
    pu, pi = users[pos], items[pos]
    kept = np.bincount(pu) >= MIN_COUNT
    keep = kept[pu]
    max_item = int(items.max())
    pairs = np.sort(pu[keep] * (max_item + 1) + pi[keep])
    return Expected(lines=len(users), n=int(kept.sum()),
                    m=int(np.count_nonzero(np.bincount(pi[keep]))), nnz=len(pairs),
                    max_item=max_item, pairs=pairs)
