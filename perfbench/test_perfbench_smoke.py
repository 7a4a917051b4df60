"""Smoke test of the benchmark harness: every workload, untraced and traced,
on the tiny corpus, so the harness cannot rot unnoticed."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import corpus
import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["prepare", "train", "eval"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--smoke", "--workload", workload, "--seed", "5",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = _bench()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "prepare", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


def test_corpus_is_seeded_and_expected_shape_matches_log():
    text, expected = corpus.generate(corpus.TINY, 7)
    again, _ = corpus.generate(corpus.TINY, 7)
    other, _ = corpus.generate(corpus.TINY, 8)
    assert text == again and text != other
    fields = np.array([line.split("::") for line in text.splitlines()], dtype=np.int64)
    assert len(fields) == expected.lines == corpus.TINY.lines
    users, items, stars = fields[:, 0], fields[:, 1], fields[:, 2]
    per_user = np.bincount(users)[1:]
    assert per_user.min() >= corpus.TINY.min_activity
    assert len(set(zip(users.tolist(), items.tolist()))) == len(users)  # no duplicate pairs
    assert stars.min() >= 1 and stars.max() <= 5
    assert expected.nnz == len(expected.pairs) <= int((stars > corpus.THRESHOLD).sum())


def test_traced_run_fails_on_missing_calls_and_failed_count_hooks(tmp_path):
    t = tracer.Tracer("check")
    t._wrap(lambda: object(), "linalg.maxvol")()  # no .swaps: the hook raises
    t._wrap(lambda: {"users": [0, 1]}, "evaluate.evaluate_method")()
    t.dump(tmp_path / "spans.npz")
    problems = run.trace_problems("eval", tracer.load_spans(tmp_path / "spans.npz"))
    assert "count hook of linalg.maxvol failed on 1 calls" in problems
    assert "traced run never called baselines.rbmf_select" in problems
    assert not any("evaluate.evaluate_method" in p or "users_scored" in p for p in problems)
