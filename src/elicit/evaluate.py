"""Simulated-elicitation evaluation: P@N and NDCG@N over test users,
multi-run aggregation and paired significance testing."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataError

BLOCK_ROWS = 256
METRICS = ("P", "NDCG")


def precision_at(omega, v_set, N):
    """Fraction of the top-N ranked items that are ground-truth positives."""
    if N > len(omega):
        raise ValueError(f"N={N} exceeds ranking length {len(omega)}")
    return sum(1 for item in omega[:N] if item in v_set) / N


def ndcg_at(omega, v_set, N):
    """DCG@N with binary gains and log2 discounts, normalized by the ideal
    DCG for this user (all |V| positives at the top ranks)."""
    if N > len(omega):
        raise ValueError(f"N={N} exceeds ranking length {len(omega)}")
    if not v_set:
        raise ValueError("ground-truth set is empty; caller must skip this user")
    dcg = sum(1.0 / math.log2(n + 1) for n, item in enumerate(omega[:N], start=1) if item in v_set)
    idcg = sum(1.0 / math.log2(n + 1) for n in range(1, min(N, len(v_set)) + 1))
    return dcg / idcg


def score_users(predictor, matrix, user_ids, seeds, Ns):
    """Simulate elicitation for `user_ids` and score the rankings.

    Feedback z is each user's true binary ratings on the seed items; the
    ground truth is the user's positives minus the seeds. Users with empty
    ground truth are skipped (counted). The other users are scored in
    near-equal blocks of at most BLOCK_ROWS: `predictor` maps a (b, k)
    feedback block to a (b, >= max(Ns)) array of b rankings with no seed
    items.

    Returns {"users": [...], "P": {N: array}, "NDCG": {N: array}, "skipped": int}.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    is_seed = np.zeros(matrix.m, dtype=bool)
    is_seed[seeds] = True
    n_max = max(Ns)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    rows, items = matrix.positives(user_ids)
    truth_size = (np.bincount(rows, minlength=len(user_ids))
                  - np.bincount(rows[is_seed[items]], minlength=len(user_ids)))
    scored = np.flatnonzero(truth_size > 0)
    users, truth_size = user_ids[scored], truth_size[scored]
    hits = [np.zeros((0, n_max), dtype=bool)]
    # near-equal blocks, so no block has 1 row (unless only one user is
    # scored): a 1-row decode takes numpy's matrix-vector path, which rounds
    # differently from the matrix-matrix product
    n_blocks = -(-len(users) // BLOCK_ROWS)
    for block in np.array_split(users, n_blocks) if n_blocks else []:
        R = matrix.dense(block)
        # float64 feedback in F order, the layout of a column selection from a
        # float block, as the predictors' products can round differently in
        # another layout
        omega = predictor(R[:, seeds].astype(np.float64, order="F"))
        if omega.ndim != 2 or len(omega) != len(R) or omega.shape[1] < n_max:
            raise ValueError(f"need {len(R)} rankings of >= {n_max} items, got {omega.shape}")
        omega = omega[:, :n_max]
        if is_seed[omega].any():
            raise ValueError("seed item leaked into a ranking")
        if (np.diff(np.sort(omega, axis=1), axis=1) == 0).any():
            raise ValueError("duplicate item in a ranking")
        hits.append(np.take_along_axis(R, omega, axis=1))
    hits = np.concatenate(hits)
    # sequential sums in rank order, as in precision_at / ndcg_at
    discount = np.array([1.0 / math.log2(n + 1) for n in range(1, n_max + 1)])
    dcg, ideal = np.cumsum(hits * discount, axis=1), np.cumsum(discount)
    return {
        "users": users.tolist(),
        "P": {N: hits[:, :N].sum(axis=1) / N for N in Ns},
        "NDCG": {N: dcg[:, N - 1] / ideal[np.minimum(N, truth_size) - 1] for N in Ns},
        "skipped": len(user_ids) - len(users),
    }


def evaluate_method(predictor, matrix, split, seeds, Ns):
    """score_users on the test users; raises if every one was skipped."""
    table = score_users(predictor, matrix, split.test_users, seeds, Ns)
    if not table["users"]:
        raise ValueError("every test user was skipped; evaluation is degenerate")
    return table


def paired_t_test(scores_a, scores_b):
    """Two-sided paired t-test on per-user score differences."""
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length 1-d score arrays with >= 2 entries")
    d = a - b
    n = len(d)
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        return (math.inf if mean > 0 else -math.inf, 0.0) if mean != 0 else (0.0, 1.0)
    t = mean / (sd / math.sqrt(n))
    # scipy.stats costs about a second to import; stdtr is what t.sf evaluates
    from scipy.special import stdtr
    p = 2.0 * stdtr(n - 1, -abs(t))
    return t, p


@dataclass
class EvalReport:
    """Per-method, per-metric, per-N means and stds over runs, plus paired
    t-tests (per-run and pooled over concatenated per-user scores)."""

    methods: list
    Ns: list
    run_seeds: list
    cells: dict = field(default_factory=dict)   # (method, metric, N) -> {"mean","std","runs"}
    tests: dict = field(default_factory=dict)   # (a, b, metric, N) -> {"per_run","pooled"}
    skipped: dict = field(default_factory=dict)  # method -> per-run skip counts

    def to_json(self):
        """The report as strict JSON: a t statistic that is not finite (the
        t of constant, non-zero differences is infinite) is written as null."""
        return json.dumps({
            "methods": self.methods,
            "Ns": list(self.Ns),
            "run_seeds": list(self.run_seeds),
            "cells": {
                f"{m}|{metric}|{N}": v for (m, metric, N), v in self.cells.items()
            },
            "tests": {
                f"{a}|{b}|{metric}|{N}": {"per_run": [_finite_t(*tp) for tp in v["per_run"]],
                                          "pooled": _finite_t(*v["pooled"])}
                for (a, b, metric, N), v in self.tests.items()
            },
            "skipped": self.skipped,
        }, indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text):
        """Parse to_json output. Raises DataError unless methods, Ns,
        run_seeds and cells are present; methods are distinct strings and Ns
        distinct integers; the cells are exactly methods x METRICS x Ns, each
        with a mean, a std and one value per run, all finite and in [0, 1];
        and each test pairs two of the methods at one metric and one of the
        Ns, with a pooled p-value in [0, 1]; a t may be null (see to_json)."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise DataError("eval report: not a JSON object")
        for key in ("methods", "Ns", "run_seeds", "cells"):
            if key not in raw:
                raise DataError(f"eval report: no {key!r} key")
        methods, Ns, run_seeds = raw["methods"], raw["Ns"], raw["run_seeds"]
        if not (_distinct(methods, str) and _distinct(Ns, int) and isinstance(run_seeds, list)):
            raise DataError("eval report: methods must be distinct strings, Ns distinct "
                            "integers and run_seeds a list")
        rep = cls(methods=methods, Ns=Ns, run_seeds=run_seeds, skipped=raw.get("skipped", {}))
        cells, tests = raw["cells"], raw.get("tests", {})
        if not (isinstance(cells, dict) and isinstance(tests, dict)):
            raise DataError("eval report: cells and tests must be JSON objects")
        for key, cell in cells.items():
            runs = cell.get("runs") if isinstance(cell, dict) else None
            if not (isinstance(runs, list) and len(runs) == len(run_seeds)
                    and all(map(_unit, [cell.get("mean"), cell.get("std"), *runs]))):
                raise DataError(f"eval report: cell {key!r} needs a mean, a std and one "
                                f"value per run, each finite and in [0, 1]")
            rep.cells[_split_key(key, 3)] = cell
        if set(rep.cells) != {(m, metric, N) for m in methods for metric in METRICS for N in Ns}:
            raise DataError("eval report: the cells are not methods x (P, NDCG) x Ns")
        for key, test in tests.items():
            a, b, metric, N = _split_key(key, 4)
            pooled = test.get("pooled") if isinstance(test, dict) else None
            if not (a in methods and b in methods and metric in METRICS and N in Ns
                    and isinstance(pooled, list) and len(pooled) == 2 and _unit(pooled[1])):
                raise DataError(f"eval report: test {key!r} must pair two methods at a "
                                f"metric and N of the report, with a pooled p in [0, 1]")
            rep.tests[(a, b, metric, N)] = test
        return rep


def _finite_t(t, p):
    """A test's [t, p], with None (null) for a t that is not finite (or is
    None already, as in a parsed report)."""
    return [t if t is not None and math.isfinite(t) else None, p]


def _distinct(values, kind):
    """values is a list of distinct instances of kind (bool is not an int)."""
    return (isinstance(values, list)
            and all(isinstance(v, kind) and not isinstance(v, bool) for v in values)
            and len(set(values)) == len(values))


def _unit(x):
    """x is a JSON number in [0, 1] (so not NaN or infinite)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0.0 <= x <= 1.0


def _split_key(key, width):
    """A report key 'a|...|N' of `width` fields as a tuple, N an int."""
    parts = key.split("|")
    if len(parts) == width and parts[-1].isascii() and parts[-1].isdigit():
        return (*parts[:-1], int(parts[-1]))
    raise DataError(f"eval report: malformed key {key!r}")


def aggregate_runs(run_reports, pairings, run_seeds):
    """Combine per-run evaluation tables into an EvalReport.

    run_reports: {method: [evaluate_method result, one per run]}.
    pairings: (method_a, method_b) pairs to t-test on the users both scored,
    at least 2 in each run; both a per-run test and a pooled test over all
    runs' concatenated per-user scores are reported. run_seeds: each run's
    seed.
    """
    methods = sorted(run_reports)
    n_runs = {m: len(r) for m, r in run_reports.items()}
    if len(set(n_runs.values())) != 1:
        raise ValueError(f"inconsistent run counts across methods: {n_runs}")
    Ns = sorted(run_reports[methods[0]][0]["P"])
    report = EvalReport(methods=methods, Ns=Ns, run_seeds=list(run_seeds))
    for method in methods:
        runs = run_reports[method]
        report.skipped[method] = [r["skipped"] for r in runs]
        for metric in METRICS:
            for N in Ns:
                means = [float(r[metric][N].mean()) for r in runs]
                report.cells[(method, metric, N)] = {
                    "mean": float(np.mean(means)),
                    "std": float(np.std(means)),
                    "runs": means,
                }
    for a, b in pairings:
        runs = list(zip(run_reports[a], run_reports[b]))
        # score_users skips the users whose positives all lie in a method's
        # seeds, so each run pairs the scores of the users both methods scored
        common = [np.intersect1d(ra["users"], rb["users"], assume_unique=True,
                                 return_indices=True)[1:] for ra, rb in runs]
        for metric in METRICS:
            for N in Ns:
                pairs = [(ra[metric][N][ia], rb[metric][N][ib])
                         for (ra, rb), (ia, ib) in zip(runs, common)]
                for run, (sa, _) in enumerate(pairs):
                    if len(sa) < 2:
                        raise ValueError(f"{a} and {b} share {len(sa)} scored users in run "
                                         f"{run}, too few for the paired t-test of {metric}@{N}")
                per_run = [paired_t_test(sa, sb) for sa, sb in pairs]
                pooled = paired_t_test(*(np.concatenate(side) for side in zip(*pairs)))
                report.tests[(a, b, metric, N)] = {
                    "per_run": [[t, p] for t, p in per_run],
                    "pooled": list(pooled),
                }
    return report


def best_baseline(report, method, metric, N):
    """The method other than `method` with the highest mean metric@N (the
    first in report.methods on a tie), or None when there is no other."""
    others = [meth for meth in report.methods if meth != method]
    return max(others, key=lambda meth: report.cells[(meth, metric, N)]["mean"], default=None)


def write_report_table(report, path):
    """One row per method x metric x N: mean, std and the pooled p of the
    paired t-test against the best baseline, when that pair was tested."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["method", "metric", "N", "mean", "std", "p_vs_best"]) + "\n")
        for method in report.methods:
            for metric in METRICS:
                for N in report.Ns:
                    cell = report.cells[(method, metric, N)]
                    test = report.tests.get(
                        (method, best_baseline(report, method, metric, N), metric, N))
                    p = test["pooled"][1] if test else None
                    fh.write("\t".join([
                        method, metric, str(N),
                        f"{cell['mean']:.6f}", f"{cell['std']:.6f}",
                        "" if p is None else f"{p:.6g}",
                    ]) + "\n")
