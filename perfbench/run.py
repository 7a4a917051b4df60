"""Benchmark of the `elicit` CLI on a generated corpus shaped like MovieLens-1M.

    python3 perfbench/run.py --workload prepare|train|eval --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke ...       # same, on a corpus of a few thousand lines

Run it from the root of a checkout. The program runs from `src/` through
PYTHONPATH; nothing is installed and no thread variable is set. Each
workload is a closed loop with one caller: one CLI process runs to
completion before the next starts.

`--trace 0` times whole CLI processes and prints the end-to-end metrics.
`--trace 1` runs each operation once untraced and once under
`perfbench/tracer.py`, and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report and the environment.
"""

import argparse
import ctypes
import glob
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import corpus
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER_PY = os.path.join(HERE, "tracer.py")
WORKLOADS = ("prepare", "train", "eval")
METHODS = ("DRE", "MOSTPOP", "POP++", "RAN++", "RBMF", "RBMF++")
MIN_OPS = 2  # determinism checks compare repetitions within a run
CKPT_EPOCHS = 1  # DRE checkpoint made during `eval` set-up
EVAL_RUNS = 2
EVAL_EPOCHS = 1  # decoder epochs of the ++ methods
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Profile:
    shape: corpus.Shape
    setup_reps: int
    startup_reps: int
    k: int
    train_epochs: int      # measured `train`
    retrain_epochs: int
    val_every: int


FULL = Profile(shape=corpus.ML1M, setup_reps=2, startup_reps=3, k=50, train_epochs=6,
               retrain_epochs=3, val_every=3)
SMOKE = Profile(shape=corpus.TINY, setup_reps=1, startup_reps=1, k=10, train_epochs=2,
                retrain_epochs=1, val_every=1)

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("throughput", "1/s"), ("quality", "ratio"),
)
THROUGHPUT_NAME = {"prepare": "ingest_lines_per_s", "train": "train_rows_per_s",
                   "eval": "scored_users_per_s"}
QUALITY_NAME = {"prepare": "ingest_recall", "train": "ndcg20", "eval": "ndcg20"}

PER_LAYER = (  # name, unit
    ("cli.startup_s", "s"), ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("data.load_interactions_s", "s"), ("data.binarize_s", "s"),
    ("data.filter_min_ratings_s", "s"), ("data.build_matrix_s", "s"),
    ("data.save_snapshot_s", "s"), ("data.save_maps_s", "s"),
    ("data.load_snapshot_s", "s"), ("data.dense_s", "s"), ("data.dense_calls", "count"),
    ("data.self_s", "s"),
    ("linalg.gumbel_noise_ms_p50", "ms"), ("linalg.gumbel_noise_calls", "count"),
    ("linalg.softmax_rows_ms_p50", "ms"), ("linalg.softmax_rows_calls", "count"),
    ("linalg.truncated_svd_s", "s"), ("linalg.maxvol_s", "s"),
    ("linalg.maxvol_swaps", "count"), ("linalg.ridge_solve_s", "s"), ("linalg.self_s", "s"),
    ("model.fwd_bwd_ms_p50", "ms"), ("model.fwd_bwd_ms_p90", "ms"),
    ("model.fwd_bwd_calls", "count"), ("model.adam_step_ms_p50", "ms"),
    ("model.adam_step_calls", "count"), ("model.retrain_decoder_self_s", "s"),
    ("model.validation_ndcg_s", "s"), ("model.extract_seeds_ms_p50", "ms"),
    ("model.extract_seeds_calls", "count"), ("model.train_self_s", "s"),
    ("model.recommend_us_p50", "us"), ("model.recommend_us_p99", "us"),
    ("model.recommend_calls", "count"), ("model.rank_candidates_us_p50", "us"),
    ("model.rank_candidates_calls", "count"), ("model.self_s", "s"),
    ("baselines.rbmf_select_s", "s"), ("baselines.rbmf_select_calls", "count"),
    ("baselines.rbmf_select_distinct", "count"), ("baselines.plusplus_decoder_s", "s"),
    ("baselines.self_s", "s"),
    ("evaluate.evaluate_method_self_s", "s"), ("evaluate.users_scored", "count"),
    ("evaluate.aggregate_runs_s", "s"), ("evaluate.self_s", "s"),
) + tuple((f"{layer}.share_pct", "%") for layer in tracer.LAYERS) + (
    ("startup.share_pct", "%"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

# Functions each workload must call in a traced run. The metrics named after
# them would otherwise read 0 with no sign that a function was renamed.
CALLED = {
    "prepare": ("cli.main", "data.load_interactions", "data.binarize",
                "data.filter_min_ratings", "data.build_matrix", "data.save_snapshot",
                "data.save_maps"),
    "train": ("cli.main", "data.load_snapshot", "data.RatingMatrix.dense",
              "linalg.gumbel_noise", "linalg.softmax_rows", "model._forward_backward",
              "model.adam_step", "model.retrain_decoder", "model._validation_ndcg",
              "model.extract_seeds", "model.train"),
    "eval": ("cli.main", "data.load_snapshot", "data.RatingMatrix.dense",
             "linalg.truncated_svd", "linalg.maxvol", "linalg.ridge_solve", "model.adam_step",
             "model.retrain_decoder", "model.recommend", "model._rank_candidates",
             "baselines.rbmf_select", "baselines.plusplus_decoder",
             "evaluate.evaluate_method", "evaluate.aggregate_runs"),
}


class BenchError(Exception):
    """Set-up failed, so nothing can be measured."""


# ---------------------------------------------------------------- processes

class _TreePeaks(threading.Thread):
    """Samples the peak RSS (VmHWM) of `pid` and of every descendant until
    stopped, so that a worker pool inside the program is charged. VmHWM is
    a high-water mark, so a sample misses only growth in the last period
    before a process exits. (wait4's ru_maxrss cannot be used: after exec
    it still holds the RSS of the benchmark process that spawned the child.)"""

    def __init__(self, pid, period=0.1):
        super().__init__(daemon=True)
        self.pid, self.period = pid, period
        self.peaks_kb = {}
        self._stop_event = threading.Event()

    @staticmethod
    def _children(pid):
        out = []
        for path in glob.glob(f"/proc/{pid}/task/*/children"):
            try:
                with open(path, encoding="ascii") as fh:
                    out.extend(int(tok) for tok in fh.read().split())
            except OSError:
                pass
        return out

    def _sample(self):
        todo = [self.pid]
        while todo:
            pid = todo.pop()
            todo.extend(self._children(pid))
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    hwm = next((int(line.split()[1]) for line in fh
                                if line.startswith("VmHWM:")), 0)
            except OSError:
                continue
            self.peaks_kb[pid] = max(self.peaks_kb.get(pid, 0), hwm)

    def run(self):
        self._sample()
        while not self._stop_event.wait(self.period):
            self._sample()

    def stop(self):
        self._stop_event.set()
        self.join()
        return sum(self.peaks_kb.values())


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int
    log: str


def run_process(cmd, log_path):
    """Run cmd to completion; wall time from spawn to exit, and the peak
    RSS of its process tree, summed over processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ELICIT_ML1M", None)
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        sampler = _TreePeaks(proc.pid)
        sampler.start()
        try:
            proc.wait()
            wall = time.perf_counter() - start
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            peak_kb = sampler.stop()
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return Proc(wall, peak_kb / 1024.0, proc.returncode, text)


def run_cli(args, out_dir, spans=None):
    os.makedirs(out_dir, exist_ok=True)
    args = [str(a) for a in args]
    if spans is None:
        cmd = [sys.executable, "-m", "elicit.cli", *args]
    else:
        run_id = "/".join(out_dir.split(os.sep)[-2:])  # <workload-seed-...>/<traced op>
        cmd = [sys.executable, TRACER_PY, spans, run_id, "--", *args]
    return run_process(cmd, os.path.join(out_dir, "cli.log"))


# ---------------------------------------------------------------- workloads

def split_sizes(n):
    """(n_train, n_test) as `elicit.data.split_users` draws them; 0.2 and 0.1
    are the test and validation fractions of `cli.CONFIG_DEFAULTS`."""
    n_test = int(round(0.2 * n))
    rest = n - n_test
    return rest - int(round(0.1 * rest)), n_test


@dataclass
class Setup:
    dir: str
    corpus_path: str
    expected: corpus.Expected
    prep_dir: str = ""
    checkpoint: str = ""


def setup(workload, seed, profile, work):
    """Generate the corpus; for train/eval also prepare it; for eval also
    train the DRE checkpoint that eval reuses."""
    os.makedirs(work, exist_ok=True)
    text, expected = corpus.generate(profile.shape, seed)
    path = os.path.join(work, "ratings.dat")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    s = Setup(work, path, expected)
    if workload in ("train", "eval"):
        s.prep_dir = os.path.join(work, "prepared")
        _require(run_cli(["prepare", "--dataset", path, "--out", s.prep_dir], s.prep_dir),
                 check_prepare(s.prep_dir, expected, None, full=False)[0], "prepare")
    if workload == "eval":
        ck = os.path.join(work, "checkpoint")
        _require(run_cli(["train", "--data-dir", s.prep_dir, "--out", ck, "--k", profile.k,
                          "--epochs", CKPT_EPOCHS, "--retrain-epochs", 1,
                          "--val-every", CKPT_EPOCHS], ck), [], "checkpoint")
        s.checkpoint = os.path.join(ck, "checkpoint.dre")
    return s


def _require(proc, problems, what):
    if proc.code != 0 or problems:
        raise BenchError(f"set-up step {what} failed (exit {proc.code}): "
                         f"{'; '.join(problems) or proc.log.strip()[-500:]}")


def op_args(workload, s, profile, out):
    if workload == "prepare":
        return ["prepare", "--dataset", s.corpus_path, "--out", out]
    if workload == "train":
        return ["train", "--data-dir", s.prep_dir, "--out", out, "--k", profile.k,
                "--epochs", profile.train_epochs, "--retrain-epochs", profile.retrain_epochs,
                "--val-every", profile.val_every]
    return ["eval", "--data-dir", s.prep_dir, "--out", out, "--checkpoint", s.checkpoint,
            "--k", profile.k, "--runs", EVAL_RUNS, "--epochs", EVAL_EPOCHS]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _same_files(out, ref, names):
    if ref is None:
        return []
    return [f"{name} differs from the first repetition" for name in names
            if _read(os.path.join(out, name)) != _read(os.path.join(ref, name))]


def check_prepare(out, expected, ref, full=True):
    """n/m/nnz equal the generator's; with full, every (user, item) pair too;
    files byte-identical to the first repetition. -> (problems, quality, work)"""
    problems = []
    with open(os.path.join(out, "matrix.snapshot"), encoding="utf-8") as fh:
        header = fh.readline().split()
        rows = fh.read().splitlines()
    got = dict(kv.split("=") for kv in header[2:])
    want = {"n": expected.n, "m": expected.m, "nnz": expected.nnz}
    if {key: int(got.get(key, -1)) for key in want} != want:
        problems.append(f"snapshot header {got} != expected {want}")
    elif full:
        users = _token_array(os.path.join(out, "users.map"), expected.n)
        items = _token_array(os.path.join(out, "items.map"), expected.m)
        pairs = []
        for line in rows:
            u, _, its = line.partition(":")
            idx = np.array(its.split(), dtype=np.int64)
            pairs.append(users[int(u)] * (expected.max_item + 1) + items[idx])
        if not np.array_equal(np.sort(np.concatenate(pairs)), expected.pairs):
            problems.append("snapshot (user, item) pairs differ from the generated positives")
    problems += _same_files(out, ref, ("matrix.snapshot", "users.map", "items.map"))
    nnz = int(got.get("nnz", 0))
    return problems, nnz / expected.nnz, expected.lines


def _token_array(path, size):
    out = np.full(size, -1, dtype=np.int64)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token, _, idx = line.rstrip("\n").rpartition("\t")
            out[int(idx)] = int(token)
    return out


def check_train(out, expected, ref, profile):
    """Checkpoint layout matches its header, seeds are distinct and < m,
    files byte-identical to the first repetition; quality is the best
    validation NDCG@20 in history.tsv."""
    problems = []
    raw = _read(os.path.join(out, "checkpoint.dre"))
    k, m, d = (int(v) for v in np.frombuffer(raw, dtype="<u4", count=3, offset=4))
    floats = k * m + k * d + d + d * m + m
    if raw[:4] != b"DRE1" or m != expected.m or len(raw) != 16 + 4 * (floats + k):
        problems.append(f"checkpoint header/size wrong (k={k} m={m} d={d} bytes={len(raw)})")
    else:
        seeds = np.frombuffer(raw, dtype="<u4", count=k, offset=16 + 4 * floats)
        if len(np.unique(seeds)) != k or seeds.max() >= m:
            problems.append(f"checkpoint seeds not distinct and < m: {seeds.tolist()}")
    with open(os.path.join(out, "history.tsv"), encoding="utf-8") as fh:
        vals = [float(row.split("\t")[3]) for row in fh.read().splitlines()[1:]
                if row.split("\t")[3]]
    best = max(vals, default=math.nan)
    if not 0.0 < best <= 1.0:
        problems.append(f"best validation NDCG@20 {best} outside (0, 1]")
    problems += _same_files(out, ref, ("checkpoint.dre", "seeds.txt", "history.tsv"))
    n_train, _ = split_sizes(expected.n)
    return problems, best, (profile.train_epochs + profile.retrain_epochs) * n_train


def check_eval(out, expected, ref):
    """Every cell finite and in [0, 1], no method skips every test user,
    report identical to the first repetition; quality is DRE's NDCG@20."""
    problems = []
    with open(os.path.join(out, "eval_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if tuple(report["methods"]) != METHODS:
        problems.append(f"methods {report['methods']} != {list(METHODS)}")
    values = [v for cell in report["cells"].values()
              for v in (cell["mean"], cell["std"], *cell["runs"])]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        problems.append("an eval cell is not a finite value in [0, 1]")
    _, n_test = split_sizes(expected.n)
    skipped = [s for runs in report["skipped"].values() for s in runs]
    if len(skipped) != len(METHODS) * EVAL_RUNS or max(skipped) >= n_test:
        problems.append(f"skipped counts {report['skipped']} cover every test user")
    problems += _same_files(out, ref, ("eval_report.json", "eval_report.tsv"))
    quality = report["cells"].get("DRE|NDCG|20", {}).get("mean", math.nan)
    return problems, quality, sum(n_test - s for s in skipped)


def check(workload, out, s, ref, profile):
    if workload == "prepare":
        return check_prepare(out, s.expected, ref, full=ref is None)
    if workload == "train":
        return check_train(out, s.expected, ref, profile)
    return check_eval(out, s.expected, ref)


# ---------------------------------------------------------------- measuring

@dataclass
class Outcome:
    proc: Proc
    problems: list
    quality: float = math.nan
    work: float = math.nan


def measure_op(workload, s, profile, out, ref, spans=None):
    proc = run_cli(op_args(workload, s, profile, out), out, spans)
    if proc.code != 0:
        return Outcome(proc, [f"exit {proc.code}: {proc.log.strip()[-500:]}"])
    try:
        return Outcome(proc, *check(workload, out, s, ref, profile))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(proc, [f"unreadable output: {exc!r}"])


def measure_untraced(workload, seed, seconds, profile, work):
    setup_times, s = [], None
    for rep in range(profile.setup_reps):
        if s is not None:
            shutil.rmtree(s.dir)
        start = time.perf_counter()
        s = setup(workload, seed, profile, os.path.join(work, f"setup{rep}"))
        setup_times.append(time.perf_counter() - start)
    ops, start = [], time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        out = os.path.join(work, f"op{len(ops)}")
        ops.append(measure_op(workload, s, profile, out, os.path.join(work, "op0") if ops else None))
    good = [o for o in ops if not o.problems] or ops
    wall = statistics.median(o.proc.wall_s for o in good)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(o.proc.rss_mb for o in good),
        "throughput": good[0].work / wall,
        "quality": good[0].quality,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: {_fmt_list(setup_times)}",
        "wall_s": f"median of {len(good)} runs: {_fmt_list(o.proc.wall_s for o in good)}",
        "peak_rss_mb": "median over runs; process tree, summed over processes",
        "throughput": f"{THROUGHPUT_NAME[workload]} = {good[0].work:g} / wall_s",
        "quality": QUALITY_NAME[workload],
    }
    return ops, metrics, notes


def measure_traced(workload, seed, seconds, profile, work):
    s = setup(workload, seed, profile, os.path.join(work, "setup"))
    startup = [run_process([sys.executable, "-c", "import elicit.cli"],
                           os.path.join(work, f"startup{i}.log")).wall_s
               for i in range(profile.startup_reps)]
    ops, per_pair, start = [], [], time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        i = len(ops) // 2
        plain = measure_op(workload, s, profile, os.path.join(work, f"op{i}"),
                           os.path.join(work, "op0") if i else None)
        spans = os.path.join(work, f"spans{i}.npz")
        traced = measure_op(workload, s, profile, os.path.join(work, f"traced{i}"),
                            os.path.join(work, "op0"), spans=spans)
        ops += [plain, traced]
        if not traced.problems:
            recorded = tracer.load_spans(spans)
            traced.problems = trace_problems(workload, recorded)
        if not traced.problems:
            per_pair.append(layer_metrics(recorded, traced.proc.wall_s, plain.proc.wall_s,
                                          statistics.median(startup)))
    metrics = {name: statistics.median(p[name][0] for p in per_pair) if per_pair else math.nan
               for name, _ in PER_LAYER}
    notes = per_pair[len(per_pair) // 2] if per_pair else {}
    return ops, metrics, {name: note for name, (_, note) in notes.items()}


def trace_problems(workload, spans):
    """Functions of CALLED[workload] that never ran, and failed count hooks:
    either would leave a per-layer metric at 0 without an error."""
    names, counts = spans[0], spans[4]["counts"]
    problems = [f"traced run never called {fn}" for fn in CALLED[workload]
                if not (names == fn).any()]
    problems += [f"count hook of {fn} failed on {n} calls"
                 for fn, n in spans[4]["hook_errors"].items()]
    if workload == "eval" and counts["evaluate.users_scored"] == 0:
        problems.append("evaluate.users_scored is 0")
    return problems


def layer_metrics(spans, traced_wall, plain_wall, startup):
    """{metric: (value, base)} from one traced run."""
    names, start, end, parent, meta = spans
    dur = end - start
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[parent >= 0], dur[parent >= 0])
    self_t = dur - covered
    layer = np.array([n.partition(".")[0] for n in names], dtype=str)
    counts = meta["counts"]

    def total(name):
        return float(dur[names == name].sum())

    def own(name):
        return float(self_t[names == name].sum())

    def calls(name):
        return int((names == name).sum())

    def pct(name, q, scale):
        d = dur[names == name]
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    main = total("cli.main")
    out = {"cli.startup_s": (startup, "python -c 'import elicit.cli', median"),
           "cli.main_s": (main, "cli.main duration in the traced run")}
    for lay in tracer.LAYERS:
        out[f"{lay}.self_s"] = (float(self_t[layer == lay].sum()), "spans minus child spans")
        out[f"{lay}.share_pct"] = (100.0 * out[f"{lay}.self_s"][0] / traced_wall,
                                   f"of trace.wall_s = {traced_wall:.3f} s")
    out["startup.share_pct"] = (100.0 * (traced_wall - main) / traced_wall,
                                "interpreter, imports and span dump, of trace.wall_s")
    for metric, fn in (("load_interactions", "data.load_interactions"),
                       ("binarize", "data.binarize"),
                       ("filter_min_ratings", "data.filter_min_ratings"),
                       ("build_matrix", "data.build_matrix"),
                       ("save_snapshot", "data.save_snapshot"), ("save_maps", "data.save_maps"),
                       ("load_snapshot", "data.load_snapshot"),
                       ("dense", "data.RatingMatrix.dense")):
        out[f"data.{metric}_s"] = (total(fn), f"{calls(fn)} calls")
    out["data.dense_calls"] = (calls("data.RatingMatrix.dense"), "calls")
    for metric, fn, scale, qs in (
            ("linalg.gumbel_noise_ms", "linalg.gumbel_noise", 1e3, (50,)),
            ("linalg.softmax_rows_ms", "linalg.softmax_rows", 1e3, (50,)),
            ("model.fwd_bwd_ms", "model._forward_backward", 1e3, (50, 90)),
            ("model.adam_step_ms", "model.adam_step", 1e3, (50,)),
            ("model.extract_seeds_ms", "model.extract_seeds", 1e3, (50,)),
            ("model.recommend_us", "model.recommend", 1e6, (50, 99)),
            ("model.rank_candidates_us", "model._rank_candidates", 1e6, (50,))):
        for q in qs:
            out[f"{metric}_p{q}"] = (pct(fn, q, scale), f"p{q} over {calls(fn)} calls")
        out[f"{metric.rpartition('_')[0]}_calls"] = (calls(fn), "calls")
    for metric, fn in (("linalg.truncated_svd_s", "linalg.truncated_svd"),
                       ("linalg.maxvol_s", "linalg.maxvol"),
                       ("linalg.ridge_solve_s", "linalg.ridge_solve"),
                       ("model.validation_ndcg_s", "model._validation_ndcg"),
                       ("baselines.rbmf_select_s", "baselines.rbmf_select"),
                       ("baselines.plusplus_decoder_s", "baselines.plusplus_decoder"),
                       ("evaluate.aggregate_runs_s", "evaluate.aggregate_runs")):
        out[metric] = (total(fn), f"{calls(fn)} calls")
    out["linalg.maxvol_swaps"] = (counts["linalg.maxvol_swaps"],
                                  f"over {calls('linalg.maxvol')} maxvol calls")
    for metric, fn in (("model.retrain_decoder_self_s", "model.retrain_decoder"),
                       ("model.train_self_s", "model.train"),
                       ("evaluate.evaluate_method_self_s", "evaluate.evaluate_method")):
        out[metric] = (own(fn), f"self time of {calls(fn)} calls")
    rbmf_calls = calls("baselines.rbmf_select")
    out["baselines.rbmf_select_calls"] = (rbmf_calls, "calls")
    out["baselines.rbmf_select_distinct"] = (
        counts["baselines.rbmf_select_distinct"],
        f"distinct selections; useful ratio base = {rbmf_calls} calls")
    out["evaluate.users_scored"] = (counts["evaluate.users_scored"],
                                    f"over {calls('evaluate.evaluate_method')} evaluate calls")
    out["trace.wall_s"] = (traced_wall, "traced CLI process, spawn to exit")
    out["trace.untraced_wall_s"] = (plain_wall, "untraced CLI process of the same pair")
    out["trace.overhead_ratio"] = (traced_wall / plain_wall,
                                   f"trace.wall_s / trace.untraced_wall_s; overhead "
                                   f"{traced_wall - plain_wall:+.3f} s")
    out["trace.spans"] = (len(names), "spans of the traced run")
    return out


# ---------------------------------------------------------------- reporting

def _fmt_list(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def _git_commit():
    try:
        head = _read(os.path.join(ROOT, ".git", "HEAD")).decode().strip()
        if head.startswith("ref: "):
            head = _read(os.path.join(ROOT, ".git", head[5:])).decode().strip()
        return head
    except OSError:
        return None  # a plain checkout without .git


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, seconds per run")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below
    if not os.path.isfile(os.path.join(SRC, "elicit", "cli.py")):
        sys.exit(f"run.py: no elicit package under {SRC}; run from the root of a checkout")

    profile = SMOKE if args.smoke else FULL
    work = os.path.join(ROOT, ".perfbench-work",
                        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        measure = measure_traced if args.trace else measure_untraced
        ops, metrics, notes = measure(args.workload, args.seed, args.seconds, profile, work)
    except BenchError as exc:
        sys.exit(f"run.py: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    units = dict(PER_LAYER if args.trace else END_TO_END)
    failed = [o for o in ops if o.problems]
    for name, unit in units.items():
        print(f"{args.workload:8s} {name:34s} {metrics[name]:14.6g} {unit:6s} {notes.get(name, '')}")
    if not args.trace:
        print(f"{args.workload:8s} {THROUGHPUT_NAME[args.workload]:34s} "
              f"{metrics['throughput']:14.6g} 1/s")
        print(f"{args.workload:8s} {QUALITY_NAME[args.workload]:34s} {metrics['quality']:14.6g}")
    print(f"{args.workload:8s} {'failed_frac':34s} {len(failed) / len(ops):14.6g} "
          f"{'':6s} {len(failed)}/{len(ops)} operations")
    for o in failed:
        print(f"failure: {'; '.join(o.problems)}", file=sys.stderr)
    print(json.dumps({"env": environment()}))
    finite = all(math.isfinite(metrics[name]) for name in units)
    print(json.dumps({
        "correct": not failed and finite,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]) if finite else 0.0, "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
