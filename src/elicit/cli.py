"""Command-line surface: dataset preparation, training, evaluation,
hyperparameter sweeps, one-shot elicitation and report rendering."""

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import baselines, data, evaluate, model

METHODS = ("MOSTPOP", "RAN++", "POP++", "RBMF", "RBMF++", "DRE")
SNAPSHOT = "matrix.snapshot"
USERS_MAP = "users.map"
ITEMS_MAP = "items.map"
MAX_GRID_CELLS = 256


def parse_ns(text):
    """The ranking cutoffs of an Ns value, or None unless it holds
    comma-separated distinct ints of at least 1."""
    try:
        Ns = tuple(int(t) for t in text.split(","))
    except ValueError:
        return None
    return Ns if min(Ns) >= 1 and len(set(Ns)) == len(Ns) else None


AT_LEAST_0, AT_LEAST_1 = (lambda v: v >= 0, "at least 0"), (lambda v: v >= 1, "at least 1")
FRACTION = (lambda v: 0 < v < 1, "in (0, 1)")
POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and positive")

# Every config key's rule: its default, whose type is the key's type, and its
# range as a test of a typed value and the phrase that check_config's error
# quotes, or None for any value of the type.
CONFIG_RULES = {
    "dataset": ("", None),  # a path, named by the error of opening it
    # load_interactions checks it: it is its byte parser's precondition
    "delimiter": ("::", None),
    "threshold": (3.5, (math.isfinite, "a finite number")),
    "min_count": (5, AT_LEAST_0),  # 0 and 1 both keep every user
    "test_frac": (0.2, FRACTION),
    "val_frac": (0.1, FRACTION),
    "split_seed": (0, AT_LEAST_0),
    "k": (50, AT_LEAST_1),
    "d": (300, AT_LEAST_1),
    "lr": (0.005, POSITIVE),
    "epochs": (400, AT_LEAST_1),
    "batch_size": (256, AT_LEAST_1),
    "t0": (10.0, POSITIVE),
    "te": (0.1, POSITIVE),
    "retrain_epochs": (100, AT_LEAST_0),
    "seed": (0, AT_LEAST_0),
    "val_every": (20, AT_LEAST_1),
    "runs": (5, AT_LEAST_1),
    "Ns": ("10,20,50,100", (parse_ns, "comma-separated distinct int values of at least 1")),
    "out": (".", (bool, "a non-empty path")),
}
CONFIG_DEFAULTS = {key: default for key, (default, _) in CONFIG_RULES.items()}


def config_value(key, text, where=""):
    """text as the type of key's default; text that does not parse is a
    ValueError naming key, after the prefix `where`."""
    kind = type(CONFIG_DEFAULTS[key])
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}{key} must be {kind.__name__}, got {text!r}") from None


def check_config(cfg):
    """cfg, once each value lies in its key's range (CONFIG_RULES) and t0 is
    at least te; else a ValueError naming the first key at fault."""
    for key, (_, rule) in CONFIG_RULES.items():
        if rule and not rule[0](cfg[key]):
            raise ValueError(f"{key} must be {rule[1]}, got {cfg[key]!r}")
    if cfg["t0"] < cfg["te"]:
        raise ValueError(f"need t0 >= te, got t0={cfg['t0']!r} te={cfg['te']!r}")
    return cfg


def load_config(path, overrides):
    """Flat key=value config file, overridden by CLI flags, and then checked
    (check_config). Holds only the keys of CONFIG_DEFAULTS: other overrides
    (the subcommand, its function, --data-dir and so on) are not config."""
    cfg, seen = dict(CONFIG_DEFAULTS), set()
    for lineno, line in enumerate(data.read_lines(path) if path else [], start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in cfg:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is set more than once")
        seen.add(key)
        # spaces around a value are dropped, but a value of only
        # whitespace (a tab delimiter) is kept as written
        cfg[key] = config_value(key, value.strip() or value, f"{path}:{lineno}: ")
    for key, value in overrides.items():
        if key in cfg and value is not None:
            cfg[key] = value
    return check_config(cfg)


def stream_seed(master_seed, method, run):
    """Per-(method, run) RNG stream derived by SHA-256 of 'master:method:run',
    truncated to 63 bits. Documented so runs are reproducible independently."""
    import hashlib  # here: it maps OpenSSL, which prepare never needs
    digest = hashlib.sha256(f"{master_seed}:{method}:{run}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def train_config(cfg, seed=None):
    values = {f.name: cfg[f.name] for f in dataclasses.fields(model.TrainConfig)}
    return model.TrainConfig(**dict(values, seed=cfg["seed"] if seed is None else seed))


def _load_dataset(data_dir):
    return data.load_snapshot(os.path.join(data_dir, SNAPSHOT))


def cmd_prepare(args):
    cfg = load_config(args.config, vars(args))
    # not in CONFIG_RULES: train, eval and grid read the same empty default
    if not cfg["dataset"]:
        raise ValueError("dataset must be a non-empty path, got ''")
    records = data.load_interactions(cfg["dataset"], cfg["delimiter"], cfg["threshold"])
    records = data.filter_min_ratings(records, cfg["min_count"])
    matrix = data.build_matrix(records)
    os.makedirs(cfg["out"], exist_ok=True)
    data.save_snapshot(matrix, os.path.join(cfg["out"], SNAPSHOT))
    data.save_maps(matrix, os.path.join(cfg["out"], USERS_MAP),
                   os.path.join(cfg["out"], ITEMS_MAP))
    print(f"n={matrix.n} m={matrix.m} nnz={matrix.nnz} "
          f"sparsity={100.0 * matrix.sparsity:.2f}%")
    return 0


def _train_once(matrix, split, tcfg):
    phi, theta, history = model.train(matrix, split, tcfg)
    seeds = model.extract_seeds(phi)
    theta = model.retrain_decoder(matrix, split, seeds, theta, tcfg.retrain_epochs,
                                  lr=tcfg.lr, batch_size=tcfg.batch_size, seed=tcfg.seed)
    return phi, theta, seeds, history


def cmd_train(args):
    cfg = load_config(args.config, vars(args))
    matrix = _load_dataset(args.data_dir)
    split = data.split_users(matrix, cfg["test_frac"], cfg["val_frac"], cfg["split_seed"])
    tcfg = train_config(cfg)
    os.makedirs(cfg["out"], exist_ok=True)
    phi, theta, seeds, history = _train_once(matrix, split, tcfg)
    with open(os.path.join(cfg["out"], "history.tsv"), "w", encoding="utf-8") as fh:
        fh.write("epoch\ttau\tloss\tval_ndcg20\n")
        for row in history:
            val = "" if row["val_ndcg"] is None else f"{row['val_ndcg']:.6f}"
            fh.write(f"{row['epoch']}\t{row['tau']:.6g}\t{row['loss']:.6f}\t{val}\n")
    checkpoint = os.path.join(cfg["out"], "checkpoint.dre")
    model.save_checkpoint(checkpoint, phi, theta, seeds)
    manifest = {key: cfg[key] for key in cfg if key not in ("out", "dataset")}
    manifest["data_fingerprint"] = data.matrix_fingerprint(matrix)
    with open(checkpoint + ".manifest", "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={manifest[key]}\n" for key in sorted(manifest))
    baselines.save_seeds(seeds, os.path.join(cfg["out"], "seeds.txt"))
    print(f"trained k={tcfg.k} seeds -> {os.path.join(cfg['out'], 'seeds.txt')}")
    return 0


def load_eval_checkpoint(path, matrix, cfg):
    """(theta, seeds) of a DRE checkpoint, admitted for eval on `matrix` with
    cfg's user split. Raises DataError when its manifest (path + '.manifest',
    which train writes) names other data or another split, or when its item
    count is not the data's, and OSError when the manifest is missing."""
    manifest = dict(line.partition("=")[::2]
                    for line in data.read_lines(path + ".manifest", universal=False))
    # compared as train wrote them, so a value that does not parse differs
    want = {key: str(cfg[key]) for key in ("test_frac", "val_frac", "split_seed")}
    want["data_fingerprint"] = data.matrix_fingerprint(matrix)
    for key, value in want.items():
        if manifest.get(key) != value:
            raise data.DataError(f"{path}: trained on other data or another split "
                                 f"({key}={manifest.get(key)!r}, here {value!r})")
    theta, seeds = model.load_checkpoint(path)[1:]
    if theta.w2.shape[1] != matrix.m:
        raise data.DataError(f"{path}: checkpoint has {theta.w2.shape[1]} items, "
                             f"the data has {matrix.m}")
    return theta, seeds


def eval_run(matrix, split, cfg, methods, Ns, run, checkpoint, loaded, external_seeds):
    """{method: evaluate_method table} of one seeded run of each of `methods`
    on the fixed test split. A run needs nothing from another: each
    stochastic method draws from its own stream_seed(cfg['seed'], method, run).
    DRE is trained, or read from `checkpoint`, whose seeds `loaded` were
    admitted by load_eval_checkpoint. Each decoder is dropped once it is
    scored, and DRE is scored first, so no decoder is held while another
    one trains."""
    k, n_max, master = cfg["k"], max(Ns), cfg["seed"]
    train_counts = matrix.item_counts(split.train_users)
    tables = {}

    def score(meth, seeds, predictor):
        tables[meth] = evaluate.evaluate_method(predictor, matrix, split, seeds, Ns)

    def plusplus(meth, seeds):  # a fresh decoder trained on the method's own stream
        theta = baselines.plusplus_decoder(
            matrix, split, seeds, train_config(cfg, seed=stream_seed(master, meth, run)))
        score(meth, seeds, lambda z: model.recommend(theta, seeds, z, n_max))

    # MOSTPOP ranks the items other than DRE's seeds when DRE runs, else all
    dre_seeds = np.array([], dtype=np.int64)
    if "DRE" in methods:
        if checkpoint is None:
            theta, dre_seeds = _train_once(
                matrix, split, train_config(cfg, seed=stream_seed(master, "DRE", run)))[1:3]
        else:
            theta, dre_seeds = model.load_checkpoint(checkpoint)[1:]
            if not (np.array_equal(dre_seeds, loaded) and theta.w2.shape[1] == matrix.m):
                raise data.DataError(f"{checkpoint}: its seeds changed during eval, "
                                     "or its item count")
        score("DRE", dre_seeds, lambda z: model.recommend(theta, dre_seeds, z, n_max))
        del theta
    if "MOSTPOP" in methods:
        ranking = model._rank_candidates(train_counts[None], dre_seeds, n_max)
        score("MOSTPOP", dre_seeds, lambda z: np.broadcast_to(ranking, (len(z), n_max)))
    if "RAN++" in methods:
        rng = np.random.Generator(np.random.PCG64(stream_seed(master, "RAN++", run)))
        plusplus("RAN++", baselines.select_random(matrix.m, k, rng))
    if "POP++" in methods:
        plusplus("POP++", baselines.select_popular(train_counts, k))
    if "RBMF" in methods or "RBMF++" in methods:
        # one operand of the training rows serves the selection and the
        # linear decoder, and is dropped before any scoring, so none is held
        # while a decoder trains
        train_rows = matrix.row_blocks(split.train_users)
        rbmf_seeds = baselines.rbmf_select(train_rows, k, seed=stream_seed(master, "RBMF", run))
        x = baselines.rbmf_decoder(train_rows, rbmf_seeds) if "RBMF" in methods else None
        del train_rows
        if x is not None:
            score("RBMF", rbmf_seeds,
                  lambda z: model._rank_candidates(z @ x, rbmf_seeds, n_max))
            del x
        if "RBMF++" in methods:
            plusplus("RBMF++", rbmf_seeds)
    for name, seeds in external_seeds.items():
        plusplus(name, seeds)
    return tables


def run_eval(matrix, split, cfg, methods, runs, Ns, checkpoint=None,
             external_seeds=None):
    """Evaluate each method over `runs` seeded repetitions (eval_run) on the
    fixed test split; stochastic methods re-select seeds and re-train per
    run. cfg, runs and Ns are a checked config's (check_config); the methods,
    the checkpoint, the test-user count that DRE's paired t-tests need, k
    and the largest N are checked here before any method runs."""
    methods = [meth.upper() for meth in methods]
    twice = sorted({meth for meth in methods if methods.count(meth) > 1})
    if twice:
        raise ValueError(f"methods named more than once: {','.join(twice)}")
    external_seeds = external_seeds or {}
    for meth in methods:
        if meth not in METHODS and meth not in external_seeds:
            raise ValueError(f"unknown method {meth!r}")
    if checkpoint and "DRE" not in methods:
        raise ValueError(f"--checkpoint {checkpoint} is given, but DRE is not one of --methods")
    pairings = [("DRE", meth) for meth in methods if meth != "DRE"] if "DRE" in methods else []
    if pairings and len(split.test_users) < 2:
        raise ValueError(f"the paired t-tests of DRE need at least 2 test users, but "
                         f"test_frac={cfg['test_frac']} gives {len(split.test_users)}")
    # the seeds of a given DRE checkpoint, admitted once; each run reads its
    # decoder again
    loaded = load_eval_checkpoint(checkpoint, matrix, cfg)[1] if checkpoint else None
    # each method ranks the items other than its seeds (MOSTPOP: other than
    # DRE's), so the largest N must fit the smallest candidate count
    k = cfg["k"]
    dre_k = len(loaded) if checkpoint else k
    n_seeds = {name: len(seeds) for name, seeds in external_seeds.items()}
    n_seeds.update(DRE=dre_k, MOSTPOP=dre_k if "DRE" in methods else 0)
    most = max(n_seeds.get(meth, k) for meth in methods)
    if most >= matrix.m:
        raise ValueError(f"k={most} must be smaller than the item count {matrix.m}")
    # RBMF's SVD of the training rows has at most as many factors as rows
    if {"RBMF", "RBMF++"} & set(methods) and k > len(split.train_users):
        raise ValueError(f"k={k} must be at most the training user count {len(split.train_users)}")
    if max(Ns) > matrix.m - most:
        raise ValueError(f"N={max(Ns)} is not within the candidate count {matrix.m - most}")

    tables = [eval_run(matrix, split, cfg, methods, Ns, run, checkpoint, loaded,
                       external_seeds) for run in range(runs)]
    return evaluate.aggregate_runs(
        {meth: [run_tables[meth] for run_tables in tables] for meth in methods}, pairings,
        run_seeds=[stream_seed(cfg["seed"], "DRE", run) for run in range(runs)])


def cmd_eval(args):
    cfg = load_config(args.config, vars(args))
    matrix = _load_dataset(args.data_dir)
    split = data.split_users(matrix, cfg["test_frac"], cfg["val_frac"], cfg["split_seed"])
    methods = [meth.strip() for meth in args.methods.split(",")]
    external = {}
    for spec in args.external_seeds or []:
        name, _, path = spec.partition("=")
        if not (name and path):
            raise ValueError(f"--external-seeds must be NAME=PATH, got {spec!r}")
        if "|" in name:  # the report's keys join their fields with '|'
            raise ValueError(f"--external-seeds {name}: a name may not hold '|'")
        if name.upper() in METHODS:
            raise ValueError(f"--external-seeds {name} is the name of a built-in method")
        if name.upper() not in (meth.upper() for meth in methods):
            raise ValueError(f"--external-seeds {name} is not one of --methods")
        if name.upper() in external:
            raise ValueError(f"--external-seeds {name} is given more than once")
        external[name.upper()] = baselines.load_seeds(path, matrix.m)
    report = run_eval(matrix, split, cfg, methods, cfg["runs"], parse_ns(cfg["Ns"]),
                      checkpoint=args.checkpoint, external_seeds=external)
    os.makedirs(cfg["out"], exist_ok=True)
    json_path = os.path.join(cfg["out"], "eval_report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    evaluate.write_report_table(report, os.path.join(cfg["out"], "eval_report.tsv"))
    print(f"wrote {json_path}")
    return 0


GRID_KEYS = ("t0", "te", "lr", "d", "epochs", "k")


def parse_grid(spec):
    """Grid spec like 't0=1,10,20,50 te=0.5,0.1,0.01,t0'; the literal value
    't0' inside the te list means a constant temperature te=t0."""
    grid = {}
    for part in spec.split():
        key, _, values = part.partition("=")
        if key not in GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r}")
        if key in grid:
            raise ValueError(f"grid key {key!r} is given more than once")
        grid[key] = ["t0" if key == "te" and tok.lower() == "t0"
                     else config_value(key, tok, "grid key ") for tok in values.split(",")]
    if not grid:
        raise ValueError("empty grid spec")
    return grid


def run_grid(matrix, split, cfg, grid):
    """Cartesian sweep of at most MAX_GRID_CELLS cells; each cell runs the
    full training pipeline and is scored by NDCG@20 on the validation users
    with hard seeds."""
    keys = sorted(grid)
    cells = list(itertools.product(*(grid[key] for key in keys)))
    if len(cells) > MAX_GRID_CELLS:
        print(f"warning: grid has {len(cells)} cells, capping at {MAX_GRID_CELLS}",
              file=sys.stderr)
        cells = cells[:MAX_GRID_CELLS]
    # every cell's config is built, and so checked, before the first one trains
    tcfgs = []
    for values in cells:
        cell_cfg = dict(cfg, **dict(zip(keys, values)))
        if cell_cfg["te"] == "t0":
            cell_cfg["te"] = cell_cfg["t0"]
        tcfgs.append(train_config(check_config(cell_cfg)))
        if cell_cfg["k"] >= matrix.m:
            raise ValueError(f"k={cell_cfg['k']} must be smaller than the item count {matrix.m}")
    rows = []
    for values, tcfg in zip(cells, tcfgs):
        phi, theta, seeds, _ = _train_once(matrix, split, tcfg)
        score = model._validation_ndcg(theta, seeds, matrix, split.val_users, model.Workspace())
        rows.append({"params": dict(zip(keys, values)), "val_ndcg20": score})
    best = max(rows, key=lambda r: r["val_ndcg20"])
    return rows, best


def _pivot_t0_te(rows):
    """Table 3-style layout: te down the side, t0 across the top."""
    scores = {}  # (te, t0) -> the first row's score, te in the rows' order
    for r in rows:
        scores.setdefault((r["params"]["te"], r["params"]["t0"]), r["val_ndcg20"])
    t0s = sorted({t0 for _, t0 in scores})
    lines = ["te\\t0\t" + "\t".join(str(t) for t in t0s)]
    for te in dict.fromkeys(te for te, _ in scores):
        cells = [f"{scores[te, t0]:.4f}" if (te, t0) in scores else "" for t0 in t0s]
        lines.append(f"{te}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def cmd_grid(args):
    cfg = load_config(args.config, vars(args))
    matrix = _load_dataset(args.data_dir)
    split = data.split_users(matrix, cfg["test_frac"], cfg["val_frac"], cfg["split_seed"])
    grid = parse_grid(args.grid)
    rows, best = run_grid(matrix, split, cfg, grid)
    os.makedirs(cfg["out"], exist_ok=True)
    keys = sorted(grid)
    with open(os.path.join(cfg["out"], "sweep.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\t".join(keys) + "\tval_ndcg20\n")
        for r in rows:
            fh.write("\t".join(str(r["params"][key]) for key in keys)
                     + f"\t{r['val_ndcg20']:.6f}\n")
    if set(keys) == {"t0", "te"}:
        with open(os.path.join(cfg["out"], "sweep_t0_te.tsv"), "w", encoding="utf-8") as fh:
            fh.write(_pivot_t0_te(rows))
    print("best: " + " ".join(f"{key}={best['params'][key]}" for key in keys)
          + f" val_ndcg20={best['val_ndcg20']:.4f}")
    return 0


def cmd_recommend(args):
    phi, theta, seeds = model.load_checkpoint(args.checkpoint)
    k, m = len(seeds), phi.shape[1]
    if not 1 <= args.top_n <= m - k:
        raise ValueError(f"--top-n must be within 1..{m - k}, the candidate count, "
                         f"got {args.top_n}")
    inverse = data.load_item_map(args.items_map, m)
    if args.feedback:
        # the answers the prompt takes, separated by whitespace
        answers = []
        for lineno, line in enumerate(data.read_lines(args.feedback), start=1):
            for ans in line.split():
                if ans not in ("0", "1"):
                    raise data.DataError(f"{args.feedback}:{lineno}: expected answers 0 or 1, "
                                         f"got {ans!r}")
                answers.append(float(ans))
        if len(answers) != k:
            raise data.DataError(f"{args.feedback}: need exactly {k} answers, one per seed, "
                                 f"got {len(answers)}")
        z = np.array(answers)
    else:
        z = np.zeros(k)
        for i, s in enumerate(seeds):
            while True:
                try:
                    ans = input(f"Do you like {inverse[int(s)]}? [0/1] ").strip()
                except EOFError:
                    raise data.DataError(f"input ended after {i} of {k} answers") from None
                if ans in ("0", "1"):
                    z[i] = float(ans)
                    break
                print("please answer 0 or 1")
    for item in model.recommend(theta, seeds, z[None], args.top_n)[0]:
        print(inverse[int(item)])
    return 0


def significance_stars(p):
    """Boundary-inclusive star annotation for p-values."""
    if p <= 0.005:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return ""


def render_report(report):
    """Comparison table: per metric x N, every method's mean, the improvement
    of DRE, the end-to-end model, over the best baseline, and significance
    stars from the pooled paired t-test against that baseline."""
    if "DRE" not in report.methods:
        raise ValueError("report has no 'DRE' column")
    lines = ["\t".join(["metric", "N"] + report.methods + ["best_baseline", "improv", "sig"])]
    for metric in evaluate.METRICS:
        for N in report.Ns:
            means = {meth: report.cells[(meth, metric, N)]["mean"] for meth in report.methods}
            best = evaluate.best_baseline(report, "DRE", metric, N)
            cells = [f"{means[meth]:.4f}" for meth in report.methods]
            if best is None or means[best] == 0.0:
                improv, stars = "", ""
            else:
                pct = 100.0 * (means["DRE"] - means[best]) / means[best]
                improv = f"{pct:.2f}%"
                test = report.tests.get(("DRE", best, metric, N))
                stars = significance_stars(test["pooled"][1]) if test else ""
            lines.append("\t".join([metric, str(N)] + cells + [best or "", improv, stars]))
    return "\n".join(lines) + "\n"


def cmd_report(args):
    text = "\n".join(data.read_lines(args.dump))
    try:
        report = evaluate.EvalReport.from_json(text)
        if len(report.methods) < 2:
            raise data.DataError("need at least 2 methods to compare")
        # a method name may hold a lone surrogate that stdout cannot encode
        sys.stdout.write(render_report(report))
    except json.JSONDecodeError as exc:
        raise data.DataError(f"{args.dump}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise data.DataError(f"{args.dump}: {exc}") from None
    return 0


def config_flags(p, *keys, **helps):
    """Add to p the flag --key, lower-cased with '-' for '_', of each config
    key, typed as its CONFIG_DEFAULTS value; `helps` holds help texts by key."""
    for key in keys:
        p.add_argument("--" + key.lower().replace("_", "-"), dest=key,
                       type=type(CONFIG_DEFAULTS[key]), help=helps.get(key))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elicit", allow_abbrev=False,
        description="Seed-itemset rating elicitation: training, baselines and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):  # flags only as spelled in full: --d is not --data-dir
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p, data_dir=True):
        p.add_argument("--config", help="flat key=value config file")
        config_flags(p, "out", out="output directory")
        # the commands that read a data dir are the ones that draw random numbers
        # and split the users
        if data_dir:
            p.add_argument("--data-dir", required=True,
                           help="directory holding matrix.snapshot + maps")
            config_flags(p, "seed", "split_seed", seed="master RNG seed",
                         split_seed="seed of the train/validation/test user split")

    p = command("prepare", help="ingest a raw interaction log")
    config_flags(p, "dataset", "delimiter", "threshold", "min_count",
                 dataset="raw interaction file", delimiter="field delimiter (default '::')",
                 threshold="binarization threshold")
    common(p, data_dir=False)
    p.set_defaults(func=cmd_prepare)

    p = command("train", help="end-to-end training + decoder retraining")
    config_flags(p, "k", "d", "lr", "epochs", "batch_size", "t0", "te", "retrain_epochs",
                 "val_every")
    common(p)
    p.set_defaults(func=cmd_train)

    p = command("eval", help="multi-run evaluation of selected methods")
    p.add_argument("--methods", default=",".join(METHODS))
    config_flags(p, "runs", "k", "epochs", "Ns", Ns="comma-separated ranking cutoffs")
    p.add_argument("--checkpoint", help="reuse a trained DRE checkpoint")
    p.add_argument("--external-seeds", action="append", metavar="NAME=PATH",
                   help="evaluate an external seed list with the neural decoder")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = command("grid", help="hyperparameter sweep on validation NDCG@20")
    p.add_argument("--grid", required=True, help="e.g. 't0=1,10 te=0.5,0.1,t0'")
    config_flags(p, "k", "epochs")
    common(p)
    p.set_defaults(func=cmd_grid)

    p = command("recommend", help="one-shot elicitation for a new user")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--items-map", required=True)
    p.add_argument("--feedback", help="file with k space/newline-separated 0/1 values")
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_recommend)

    p = command("report", help="render a comparison table from an eval dump")
    p.add_argument("--dump", required=True, help="eval_report.json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
