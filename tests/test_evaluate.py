import json
import math

import numpy as np
import pytest

from elicit import data, evaluate, model
from conftest import matrix_from_rows


def test_precision_hand_cases():
    omega = ["a", "b", "c", "d"]
    assert evaluate.precision_at(omega, {"a", "c"}, 2) == pytest.approx(0.5)
    assert evaluate.precision_at(omega, {"a", "b"}, 2) == 1.0
    assert evaluate.precision_at(omega, set(), 4) == 0.0
    with pytest.raises(ValueError):
        evaluate.precision_at(omega, {"a"}, 5)


def test_ndcg_hand_case():
    # hits at ranks 1 and 3 with |V| = 2, N = 3
    value = evaluate.ndcg_at(["a", "x", "b"], {"a", "b"}, 3)
    assert value == pytest.approx(0.9197207891, abs=1e-9)
    assert evaluate.ndcg_at(["a", "b", "x"], {"a", "b"}, 3) == 1.0
    assert evaluate.ndcg_at(["x", "y", "z"], {"a"}, 3) == 0.0
    with pytest.raises(ValueError):
        evaluate.ndcg_at(["a"], set(), 1)


def test_metric_bounds_and_tail_invariance():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(50):
        items = rng.permutation(30)
        v = set(rng.choice(30, size=5, replace=False).tolist())
        N = 10
        p = evaluate.precision_at(list(items), v, N)
        nd = evaluate.ndcg_at(list(items), v, N)
        assert 0.0 <= p <= 1.0 and 0.0 <= nd <= 1.0
        # permuting items below rank N changes nothing
        tail = np.concatenate([items[:N], rng.permutation(items[N:])])
        assert evaluate.ndcg_at(list(tail), v, N) == pytest.approx(nd)


def test_ndcg_monotone_in_rank():
    v = {"hit"}
    worse = evaluate.ndcg_at(["a", "b", "hit", "c"], v, 4)
    better = evaluate.ndcg_at(["a", "hit", "b", "c"], v, 4)
    assert better > worse


def _tiny_matrix():
    rows = [
        np.array([0, 1, 2]),      # u0
        np.array([0, 3]),         # u1
        np.array([2]),            # u2: only positive is the seed -> skipped
        np.array([1, 3, 4]),      # u3
    ]
    return matrix_from_rows(rows, 5)


def test_evaluate_method_protocol():
    matrix = _tiny_matrix()
    split = data.SplitSpec(train_users=np.array([], dtype=int),
                           val_users=np.array([], dtype=int),
                           test_users=np.arange(4))
    seeds = np.array([2])
    # oracle predictor: looks up the user's truth via closure-counter
    fixed = [0, 1, 3, 4]

    def predictor(z):
        return fixed

    table = evaluate.evaluate_method(predictor, matrix, split, seeds, Ns=(2, 4))
    assert table["skipped"] == 1
    assert table["users"] == [0, 1, 3]
    # u0 truth {0,1}: top-2 of [0,1] -> P@2 = 1
    assert table["P"][2][0] == pytest.approx(1.0)
    # u1 truth {0,3}: ranking [0,1,3,4] -> hits at 1 and 3
    dcg = 1 + 1 / math.log2(4)
    idcg = 1 + 1 / math.log2(3)
    assert table["NDCG"][4][1] == pytest.approx(dcg / idcg)


def test_score_users_blocks_match_per_user_metrics():
    rng = np.random.Generator(np.random.PCG64(3))
    n, m, Ns = 600, 40, (5, 10)
    rows = [np.sort(rng.choice(m, size=rng.integers(1, 8), replace=False)) for _ in range(n)]
    matrix = matrix_from_rows(rows, m)
    seeds = np.array([4, 9, 30])
    weights = rng.integers(-2, 3, size=(len(seeds), m)).astype(np.float64)
    item_bias = rng.permutation(m) / m
    heights = []

    def predictor(z):
        heights.append(len(z))
        return model._rank_candidates(z @ weights + item_bias, seeds, max(Ns))

    user_ids = rng.permutation(n)[:520]
    table = evaluate.score_users(predictor, matrix, user_ids, seeds, Ns)
    kept = [u for u in user_ids if set(rows[u].tolist()) - set(seeds.tolist())]
    assert table["users"] == [int(u) for u in kept]
    assert table["skipped"] == len(user_ids) - len(kept)
    assert sum(heights) == len(kept) and 2 <= min(heights) and max(heights) <= 256
    for i, u in enumerate(kept):
        z = np.isin(seeds, rows[u]).astype(np.float64)
        omega = predictor(z[None, :])[0].tolist()
        truth = set(rows[u].tolist()) - set(seeds.tolist())
        for N in Ns:
            assert table["P"][N][i] == evaluate.precision_at(omega, truth, N)
            assert table["NDCG"][N][i] == pytest.approx(evaluate.ndcg_at(omega, truth, N),
                                                        rel=1e-15, abs=0)


def _per_block_float_score_users(predictor, matrix, user_ids, seeds, Ns):
    """score_users as it was before it read each block's feedback and hits
    from the boolean rows, densifying each block again as float64; frozen as
    its bit-level reference."""
    seeds = np.asarray(seeds, dtype=np.int64)
    is_seed = np.zeros(matrix.m, dtype=bool)
    is_seed[seeds] = True
    n_max = max(Ns)
    user_ids = np.asarray(user_ids, dtype=np.int64)
    known = matrix.dense(user_ids, dtype=bool)
    truth_size = known.sum(axis=1) - known[:, seeds].sum(axis=1)
    users, truth_size = user_ids[truth_size > 0], truth_size[truth_size > 0]
    hits = [np.zeros((0, n_max), dtype=bool)]
    n_blocks = -(-len(users) // evaluate.BLOCK_ROWS)
    for block in np.array_split(users, n_blocks) if n_blocks else []:
        R = matrix.dense(block)
        omega = np.asarray(predictor(R[:, seeds]))
        omega = np.broadcast_to(omega, (len(block), omega.shape[-1]))
        if omega.shape[1] < n_max:
            raise ValueError(f"N={n_max} exceeds ranking length {omega.shape[1]}")
        omega = omega[:, :n_max]
        if is_seed[omega].any():
            raise ValueError("seed item leaked into a ranking")
        if (np.diff(np.sort(omega, axis=1), axis=1) == 0).any():
            raise ValueError("duplicate item in a ranking")
        hits.append(np.take_along_axis(R, omega, axis=1) > 0)
    hits = np.concatenate(hits)
    discount = np.array([1.0 / math.log2(n + 1) for n in range(1, n_max + 1)])
    dcg, ideal = np.cumsum(hits * discount, axis=1), np.cumsum(discount)
    return {
        "users": users.tolist(),
        "P": {N: hits[:, :N].sum(axis=1) / N for N in Ns},
        "NDCG": {N: dcg[:, N - 1] / ideal[np.minimum(N, truth_size) - 1] for N in Ns},
        "skipped": len(user_ids) - len(users),
    }


@pytest.mark.parametrize("user_ids", [np.r_[0:20, 100:600], [25], []],
                         ids=["blocks", "one_user", "no_user"])
def test_score_users_bit_identical_to_per_block_float_reference(user_ids):
    # a neural, a linear and a shared ranking; users 0-19 have only seed
    # positives, so they are skipped
    rng = np.random.Generator(np.random.PCG64(5))
    n, m, Ns, seeds = 600, 40, (5, 10), np.array([4, 9, 30])
    rows = [np.sort(rng.choice(m, size=rng.integers(1, 8), replace=False)) for _ in range(n)]
    rows[:20] = [seeds[:rng.integers(1, 4)] for _ in range(20)]
    matrix = matrix_from_rows(rows, m)
    theta = model.init_decoder(len(seeds), 16, m, rng)
    theta.b2[:] = rng.standard_normal(m).astype(np.float32)
    x = rng.standard_normal((len(seeds), m))
    popular = model._rank_candidates(matrix.item_counts(), seeds, max(Ns))
    for rank in (lambda z: model.recommend(theta, seeds, z, max(Ns)),
                 lambda z: model._rank_candidates(z @ x, seeds, max(Ns)),
                 lambda z: popular):
        inputs = {"got": [], "want": []}

        def recorded(key):
            return lambda z: inputs[key].append(z) or rank(z)

        got = evaluate.score_users(recorded("got"), matrix, user_ids, seeds, Ns)
        want = _per_block_float_score_users(recorded("want"), matrix, user_ids, seeds, Ns)
        assert got["users"] == want["users"] and got["skipped"] == want["skipped"]
        assert want["skipped"] >= 20 if len(user_ids) > 20 else want["users"] == list(user_ids)
        for metric in evaluate.METRICS:
            for N in Ns:
                assert got[metric][N].dtype == want[metric][N].dtype
                assert got[metric][N].tobytes() == want[metric][N].tobytes(), (metric, N)
        # the predictor saw the same feedback blocks: values, dtype and layout
        assert len(inputs["got"]) == len(inputs["want"])
        for z_got, z_want in zip(inputs["got"], inputs["want"]):
            assert z_got.dtype == z_want.dtype and z_got.strides == z_want.strides
            assert np.array_equal(z_got, z_want)


def test_evaluate_method_rejects_seed_leak():
    matrix = _tiny_matrix()
    split = data.SplitSpec(np.array([], dtype=int), np.array([], dtype=int), np.arange(4))
    for ranking, problem in (([2, 0], "seed item leaked"), ([0, 0], "duplicate item")):
        with pytest.raises(ValueError, match=problem):
            evaluate.evaluate_method(lambda z: ranking, matrix, split, np.array([2]), Ns=(2,))


def test_evaluate_method_all_skipped():
    rows = [np.array([0])]
    matrix = matrix_from_rows(rows, 3)
    split = data.SplitSpec(np.array([], dtype=int), np.array([], dtype=int), np.array([0]))
    with pytest.raises(ValueError, match="degenerate"):
        evaluate.evaluate_method(lambda z: [1, 2], matrix, split, np.array([0]), Ns=(1,))


def test_paired_t_test_identical_and_dominant():
    a = np.array([0.5, 0.6, 0.7, 0.8])
    t, p = evaluate.paired_t_test(a, a)
    assert t == 0.0 and p == 1.0
    jitter = np.array([1.0001, 0.9999, 1.0002, 0.9998])
    t, p = evaluate.paired_t_test(a + jitter, a)
    assert p <= 0.005


def test_paired_t_test_zero_variance():
    a = np.array([1.0, 1.0, 1.0])
    t, p = evaluate.paired_t_test(a + 0.5, a)
    assert p == 0.0
    with pytest.raises(ValueError):
        evaluate.paired_t_test(np.array([1.0]), np.array([2.0]))


def test_paired_t_test_reference_instance():
    # frozen oracle: scipy.stats.ttest_rel on this fixed 10-pair instance
    a = [0.774, 0.439, 0.859, 0.697, 0.094, 0.976, 0.761, 0.786, 0.128, 0.45]
    b = [0.371, 0.927, 0.644, 0.823, 0.443, 0.227, 0.555, 0.064, 0.828, 0.632]
    t, p = evaluate.paired_t_test(a, b)
    assert t == pytest.approx(0.2870359534, abs=1e-6)
    assert p == pytest.approx(0.7805836227, abs=1e-6)


def _fake_run(values_by_metric, Ns=(10, 20)):
    return {
        "users": list(range(len(next(iter(values_by_metric.values()))))),
        "P": {N: np.array(values_by_metric["P"]) for N in Ns},
        "NDCG": {N: np.array(values_by_metric["NDCG"]) for N in Ns},
        "skipped": 0,
    }


def test_aggregate_runs_singleton_and_identical():
    run = _fake_run({"P": [0.5, 0.7], "NDCG": [0.6, 0.8]})
    rep = evaluate.aggregate_runs({"A": [run]})
    cell = rep.cells[("A", "P", 10)]
    assert cell["mean"] == pytest.approx(0.6) and cell["std"] == 0.0
    rep5 = evaluate.aggregate_runs({"A": [run] * 5})
    assert rep5.cells[("A", "NDCG", 20)]["std"] == 0.0


def test_aggregate_runs_pairings_and_json_roundtrip(tmp_path):
    r_a = _fake_run({"P": [0.9, 0.8, 0.7], "NDCG": [0.9, 0.8, 0.7]})
    r_b = _fake_run({"P": [0.5, 0.4, 0.6], "NDCG": [0.5, 0.4, 0.6]})
    rep = evaluate.aggregate_runs({"A": [r_a, r_a], "B": [r_b, r_b]},
                                  pairings=[("A", "B")])
    test = rep.tests[("A", "B", "P", 10)]
    assert len(test["per_run"]) == 2
    assert test["pooled"][1] < 0.05
    loaded = evaluate.EvalReport.from_json(rep.to_json())
    assert loaded.cells[("A", "P", 10)]["mean"] == rep.cells[("A", "P", 10)]["mean"]
    assert loaded.tests[("A", "B", "P", 10)]["pooled"] == list(test["pooled"])
    path = tmp_path / "report.tsv"
    evaluate.write_report_table(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["method", "metric", "N", "mean", "std", "p_vs_best"]
    assert len(lines) == 1 + 2 * 2 * 2  # methods x metrics x Ns



def test_report_of_constant_differences_is_strict_json():
    # B scores 0.25 below A for every user: the paired t is +inf, with p = 0
    r_a = _fake_run({"P": [1.0, 0.75, 0.25], "NDCG": [1.0, 0.75, 0.25]})
    r_b = _fake_run({"P": [0.75, 0.5, 0.0], "NDCG": [0.75, 0.5, 0.0]})
    rep = evaluate.aggregate_runs({"A": [r_a], "B": [r_b]}, pairings=[("A", "B")])
    assert rep.tests[("A", "B", "P", 10)]["pooled"] == [math.inf, 0.0]

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    text = rep.to_json()
    raw = json.loads(text, parse_constant=reject)
    assert raw["tests"]["A|B|P|10"] == {"per_run": [[None, 0.0]], "pooled": [None, 0.0]}
    loaded = evaluate.EvalReport.from_json(text)
    assert loaded.tests[("A", "B", "NDCG", 20)]["pooled"] == [None, 0.0]
    assert loaded.to_json() == text


def test_aggregate_runs_pairs_scores_by_user():
    # score_users skips a user whose positives all lie in the method's seeds:
    # in run 0 each method skips a different user (equal lengths, other
    # users), in run 1 only B skips two
    def run(users, scores):
        return {"users": users, "P": {10: np.array(scores)}, "NDCG": {10: np.array(scores)},
                "skipped": 5 - len(users)}

    runs_a = [run([0, 1, 2, 4], [0.9, 0.1, 0.7, 0.6]),
              run([0, 1, 2, 3, 4], [0.5, 0.8, 0.4, 0.9, 0.7])]
    runs_b = [run([0, 2, 3, 4], [0.2, 0.3, 0.95, 0.4]), run([1, 3, 4], [0.1, 0.3, 0.6])]
    rep = evaluate.aggregate_runs({"A": runs_a, "B": runs_b}, pairings=[("A", "B")])
    common = [([0.9, 0.7, 0.6], [0.2, 0.3, 0.4]), ([0.8, 0.9, 0.7], [0.1, 0.3, 0.6])]
    test = rep.tests[("A", "B", "P", 10)]
    assert test["per_run"] == [list(evaluate.paired_t_test(a, b)) for a, b in common]
    assert test["pooled"] == list(evaluate.paired_t_test(common[0][0] + common[1][0],
                                                         common[0][1] + common[1][1]))

def _corrupt_report(raw, fault):
    cells, tests = raw["cells"], raw["tests"]
    if fault == "not_an_object":
        return []
    if fault.startswith("no_"):
        del raw[fault[3:]]
    elif fault == "nan_mean":
        cells["A|P|10"]["mean"] = math.nan
    elif fault == "infinite_std":
        cells["A|P|10"]["std"] = math.inf
    elif fault == "mean_above_one":
        cells["B|NDCG|20"]["mean"] = 1.5
    elif fault == "negative_run":
        cells["B|P|20"]["runs"][0] = -0.1
    elif fault == "string_mean":
        cells["A|P|10"]["mean"] = "0.5"
    elif fault == "cell_without_mean":
        del cells["A|P|10"]["mean"]
    elif fault == "runs_count":
        raw["run_seeds"] = raw["run_seeds"][:1]
    elif fault == "cell_missing":
        del cells["B|NDCG|20"]
    elif fault == "cell_unknown_method":
        cells["C|P|10"] = cells["A|P|10"]
    elif fault == "method_without_cells":
        raw["methods"].append("C")
    elif fault == "N_without_cells":
        raw["Ns"].append(50)
    elif fault == "duplicate_method":
        raw["methods"].append("A")
    elif fault == "string_Ns":
        raw["Ns"] = ["10", "20"]
    elif fault == "malformed_key":
        cells["A|P|ten"] = cells.pop("A|P|10")
    elif fault == "test_unknown_method":
        tests["A|Z|P|10"] = tests["A|B|P|10"]
    elif fault == "test_p_above_one":
        tests["A|B|P|10"]["pooled"][1] = 2.0
    elif fault == "test_no_pooled":
        del tests["A|B|NDCG|20"]["pooled"]
    return raw


REPORT_FAULTS = ["not_an_object", "no_methods", "no_Ns", "no_run_seeds", "no_cells",
                 "nan_mean", "infinite_std", "mean_above_one", "negative_run", "string_mean",
                 "cell_without_mean", "runs_count", "cell_missing", "cell_unknown_method",
                 "method_without_cells", "N_without_cells", "duplicate_method", "string_Ns",
                 "malformed_key", "test_unknown_method", "test_p_above_one", "test_no_pooled"]


@pytest.mark.parametrize("fault", REPORT_FAULTS)
def test_from_json_rejects_bad_schema(fault):
    r_a = _fake_run({"P": [0.9, 0.8, 0.7], "NDCG": [0.9, 0.8, 0.7]})
    r_b = _fake_run({"P": [0.5, 0.4, 0.6], "NDCG": [0.5, 0.4, 0.6]})
    rep = evaluate.aggregate_runs({"A": [r_a, r_a], "B": [r_b, r_b]}, pairings=[("A", "B")])
    raw = json.loads(rep.to_json())
    evaluate.EvalReport.from_json(json.dumps(raw))  # the intact report loads
    with pytest.raises(data.DataError, match="^eval report: "):
        evaluate.EvalReport.from_json(json.dumps(_corrupt_report(raw, fault)))


def test_report_table_p_is_against_the_best_baseline(tmp_path):
    rep = evaluate.EvalReport(methods=["DRE", "STRONG", "WEAK"], Ns=[10], run_seeds=[0])
    for metric in ("P", "NDCG"):
        for meth, mean in (("DRE", 0.5), ("STRONG", 0.45), ("WEAK", 0.1)):
            rep.cells[(meth, metric, 10)] = {"mean": mean, "std": 0.0, "runs": [mean]}
        for rival, p in (("STRONG", 0.128), ("WEAK", 0.0009)):  # WEAK is tested last
            rep.tests[("DRE", rival, metric, 10)] = {"per_run": [[1.0, p]], "pooled": [1.0, p]}
    path = tmp_path / "report.tsv"
    evaluate.write_report_table(rep, path)
    p_column = {tuple(line.split("\t")[:3]): line.split("\t")[5]
                for line in path.read_text().splitlines()[1:]}
    assert p_column[("DRE", "P", "10")] == p_column[("DRE", "NDCG", "10")] == "0.128"
    assert p_column[("STRONG", "P", "10")] == p_column[("WEAK", "NDCG", "10")] == ""
    assert evaluate.best_baseline(rep, "DRE", "P", 10) == "STRONG"
    assert evaluate.best_baseline(rep, "STRONG", "P", 10) == "DRE"


def test_aggregate_runs_inconsistent():
    run = _fake_run({"P": [0.5], "NDCG": [0.5]})
    with pytest.raises(ValueError):
        evaluate.aggregate_runs({"A": [run], "B": [run, run]})
