import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import elicit
from elicit import baselines, cli, data, evaluate, model
from conftest import (corrupt_checkpoint, make_cluster_matrix, matrix_from_rows, mutate,
                      write_raw_file, write_small_checkpoint)


@pytest.fixture(scope="module")
def raw_dataset(tmp_path_factory):
    """Small clustered explicit-feedback log: 60 users, 18 items."""
    root = tmp_path_factory.mktemp("raw")
    path = root / "ratings.dat"
    rng = np.random.Generator(np.random.PCG64(0))
    records = []
    for u in range(60):
        block = (u % 3) * 6
        items = rng.permutation(6)[:5] + block
        for i in items:
            records.append((f"u{u}", f"i{i}", "5", "100"))
        # a below-threshold rating that must be dropped
        records.append((f"u{u}", f"i{(block + 7) % 18}", "2", "101"))
    write_raw_file(path, records)
    return str(path)


FAST_FLAGS = ["--k", "3", "--epochs", "12"]
EVAL_FLAGS = FAST_FLAGS + ["--ns", "5,10"]
FAST_TRAIN = FAST_FLAGS + ["--d", "8", "--t0", "5.0", "--te", "0.1",
                           "--retrain-epochs", "4", "--val-every", "6",
                           "--batch-size", "32"]


@pytest.fixture(scope="module")
def prepared(raw_dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("prepared"))
    rc = cli.main(["prepare", "--dataset", raw_dataset, "--min-count", "3",
                   "--out", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    """The directory of a train run on `prepared`."""
    out = tmp_path_factory.mktemp("trained")
    assert cli.main(["train", "--data-dir", prepared, "--out", str(out), "--seed", "3"]
                    + FAST_TRAIN) == 0
    return out


def test_prepare_outputs(prepared, capsys):
    assert os.path.exists(os.path.join(prepared, "matrix.snapshot"))
    matrix = cli._load_dataset(prepared)
    assert matrix.n == 60 and matrix.m == 18


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_prepare_non_finite_threshold_is_one_line_error(tmp_path, capsys, threshold):
    # not the minimum-rating filter's error, as no rating is above nan or
    # inf; and found before the log is read: there is none
    out = tmp_path / "prepared"
    err = _one_line_error(capsys, ["prepare", "--dataset", str(tmp_path / "missing.dat"),
                                   f"--threshold={threshold}", "--out", str(out)])
    assert err == f"error: threshold must be a finite number, got {threshold}\n"
    assert not out.exists()


def test_check_config_rejects_t0_below_te_and_k_below_1():
    cfg = dict(cli.CONFIG_DEFAULTS)
    assert cli.check_config(cfg) is cfg
    with pytest.raises(ValueError, match=r"^need t0 >= te, got t0=0\.1 te=1\.0$"):
        cli.check_config(dict(cfg, t0=0.1, te=1.0))
    with pytest.raises(ValueError, match=r"^k must be at least 1, got 0$"):
        cli.check_config(dict(cfg, k=0))
    # t0 = te, a constant temperature, is admitted
    cli.check_config(dict(cfg, t0=2.0, te=2.0))


def test_every_config_key_has_a_rule_whose_default_passes_it():
    assert list(cli.CONFIG_RULES) == list(cli.CONFIG_DEFAULTS)
    for key, (default, rule) in cli.CONFIG_RULES.items():
        assert cli.CONFIG_DEFAULTS[key] is default, key
        assert rule is None or rule[0](default), key


@pytest.mark.parametrize("flags, config, message", [
    (["--min-count", "-3", "--out={out}"], "", "min_count must be at least 0, got -3"),
    ([], "min_count=-1\nout={out}\n", "min_count must be at least 0, got -1"),
    # not the error of making the directory '', which names no key
    (["--out="], "", "out must be a non-empty path, got ''"),
    ([], "out=\n", "out must be a non-empty path, got ''"),
], ids=["min_count_flag", "min_count_config", "out_flag", "out_config"])
def test_prepare_config_value_out_of_range_is_one_line_error(tmp_path, capsys, flags, config,
                                                             message):
    # found before the log is read: there is none
    out, cfg = tmp_path / "prepared", tmp_path / "prepare.cfg"
    cfg.write_text(config.format(out=out))
    err = _one_line_error(capsys, ["prepare", "--dataset", str(tmp_path / "missing.dat"),
                                   "--config", str(cfg)] + [f.format(out=out) for f in flags])
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [([], ""), (["--dataset="], ""), ([], "dataset=\n")],
                         ids=["no_flag", "empty_flag", "empty_config"])
def test_prepare_without_dataset_is_one_line_error_naming_it(tmp_path, capsys, flags, config):
    # not the error of opening '', which names neither the flag nor the key
    out, cfg = tmp_path / "prepared", tmp_path / "prepare.cfg"
    cfg.write_text(config)
    err = _one_line_error(capsys, ["prepare", "--out", str(out), "--config", str(cfg)] + flags)
    assert err == "error: dataset must be a non-empty path, got ''\n"
    assert not out.exists()


def test_prepare_min_count_0_and_1_keep_every_user(raw_dataset, tmp_path):
    snapshots = []
    for min_count in ("0", "1"):
        out = tmp_path / min_count
        assert cli.main(["prepare", "--dataset", raw_dataset, "--min-count", min_count,
                         "--out", str(out)]) == 0
        snapshots.append((out / "matrix.snapshot").read_bytes())
    assert snapshots[0] == snapshots[1]
    assert cli._load_dataset(str(tmp_path / "0")).n == 60


def test_prepare_deterministic(raw_dataset, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert cli.main(["prepare", "--dataset", raw_dataset,
                         "--min-count", "3", "--out", out]) == 0
    s1 = Path(out1, "matrix.snapshot").read_bytes()
    s2 = Path(out2, "matrix.snapshot").read_bytes()
    assert s1 == s2


def test_prepare_in_blocks_of_a_few_bytes_and_keys_writes_the_same_files(
        raw_dataset, prepared, tmp_path, monkeypatch):
    # `prepared` was written with the default block sizes
    monkeypatch.setattr(data, "READ_CHUNK_BYTES", 7)
    monkeypatch.setattr(data, "UNIQUE_BLOCK", 5)
    out = tmp_path / "out"
    assert cli.main(["prepare", "--dataset", raw_dataset, "--min-count", "3",
                     "--out", str(out)]) == 0
    for name in ("matrix.snapshot", "users.map", "items.map"):
        assert (out / name).read_bytes() == Path(prepared, name).read_bytes(), name


def test_prepare_missing_file(tmp_path):
    assert cli.main(["prepare", "--dataset", str(tmp_path / "nope.dat"),
                     "--out", str(tmp_path)]) == 1


def test_prepare_invalid_utf8_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "ratings.dat"
    # in a field the parser otherwise ignores
    path.write_bytes(b"u1::i1::5::1\nu2::i2::5::\xff\n")
    assert cli.main(["prepare", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "utf-8" in err
    assert "ratings.dat:2:" in err


def test_prepare_invalid_utf8_in_a_later_block_names_its_line(tmp_path, capsys, monkeypatch):
    # blocks of a few bytes: the bad byte sits blocks after the file's start,
    # and its line is counted from there, across a CRLF and a lone CR
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"u1::i1::5\r\nu2::i2::5\ru3::i3::4::1\n\nu4::\xc3\xbc::5\n"
                     b"u5::i5::5::\xc3(\nu6::i6::5\n")
    monkeypatch.setattr(data, "READ_CHUNK_BYTES", 5)
    assert cli.main(["prepare", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ratings.dat:6: invalid utf-8 byte 0xc3" in err


def test_train_artifacts(prepared, tmp_path):
    out = str(tmp_path / "run")
    rc = cli.main(["train", "--data-dir", prepared, "--out", out,
                   "--seed", "3"] + FAST_TRAIN)
    assert rc == 0
    seeds = Path(out, "seeds.txt").read_text().split()
    assert len(seeds) == 3 and len(set(seeds)) == 3
    history = Path(out, "history.tsv").read_text().splitlines()
    taus = [float(line.split("\t")[1]) for line in history[1:]]
    assert taus[0] == pytest.approx(5.0)
    assert taus[-1] == pytest.approx(0.1 * (5.0 / 0.1) ** (1 / 12), rel=1e-3)
    manifest = dict(line.split("=", 1) for line in
                    Path(out, "checkpoint.dre.manifest").read_text().splitlines())
    assert manifest["k"] == "3" and manifest["split_seed"] == "0"
    assert "data_fingerprint" in manifest


def test_train_byte_identical_checkpoints(prepared, tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert cli.main(["train", "--data-dir", prepared, "--out", out,
                         "--seed", "3"] + FAST_TRAIN) == 0
        blobs.append(Path(out, "checkpoint.dre").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_manifest_is_deterministic(prepared, tmp_path):
    # each run in its own interpreter, as two real runs are
    env = dict(os.environ, PYTHONPATH=str(Path(elicit.__file__).parent.parent))
    manifests = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "elicit.cli", "train", "--data-dir", prepared,
                        "--out", str(out), "--seed", "3"] + FAST_TRAIN,
                       env=env, capture_output=True, check=True)
        manifests.append((out / "checkpoint.dre.manifest").read_bytes())
    assert manifests[0] == manifests[1]
    keys = {line.partition("=")[0] for line in manifests[0].decode().splitlines()}
    assert keys == set(cli.CONFIG_DEFAULTS) - {"out", "dataset"} | {"data_fingerprint"}


def test_eval_and_report(prepared, tmp_path, capsys):
    out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--data-dir", prepared, "--out", out,
                   "--methods", "MOSTPOP,RAN++,DRE", "--runs", "2",
                   "--seed", "0"] + EVAL_FLAGS)
    assert rc == 0
    report = evaluate.EvalReport.from_json(
        Path(out, "eval_report.json").read_text())
    assert report.methods == ["DRE", "MOSTPOP", "RAN++"]
    assert ("DRE", "P", 10) in report.cells
    assert ("DRE", "MOSTPOP", "NDCG", 10) in report.tests
    # report rendering
    capsys.readouterr()
    rc = cli.main(["report", "--dump", os.path.join(out, "eval_report.json")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("metric\tN")
    assert len(lines) == 1 + 2 * 2  # metrics x Ns rows


def test_eval_reproducible(prepared, tmp_path):
    tables = []
    for name in ("e1", "e2"):
        out = str(tmp_path / name)
        assert cli.main(["eval", "--data-dir", prepared, "--out", out,
                         "--methods", "RAN++", "--runs", "1",
                         "--seed", "5"] + EVAL_FLAGS) == 0
        tables.append(Path(out, "eval_report.tsv").read_text())
    assert tables[0] == tables[1]


def test_eval_rbmf_selection_shared_per_run(prepared, tmp_path, monkeypatch):
    calls = []
    select = baselines.rbmf_select

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return select(*args, **kwargs)

    monkeypatch.setattr(baselines, "rbmf_select", counted)
    assert cli.main(["eval", "--data-dir", prepared, "--out", str(tmp_path),
                     "--methods", "RBMF,RBMF++", "--runs", "2",
                     "--seed", "0"] + EVAL_FLAGS) == 0
    assert calls == [cli.stream_seed(0, "RBMF", run) for run in range(2)]


def test_eval_unknown_method(prepared, tmp_path):
    assert cli.main(["eval", "--data-dir", prepared, "--out", str(tmp_path),
                     "--methods", "WAT", "--runs", "1"]) == 1


def test_eval_fingerprint_mismatch(prepared, raw_dataset, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--data-dir", prepared, "--out", out,
                     "--seed", "3"] + FAST_TRAIN) == 0
    other = str(tmp_path / "other")
    assert cli.main(["prepare", "--dataset", raw_dataset, "--min-count", "4",
                     "--threshold", "1.0", "--out", other]) == 0
    err = _one_line_error(capsys, [
        "eval", "--data-dir", other, "--out", str(tmp_path / "e"), "--methods", "DRE",
        "--runs", "1", "--checkpoint", os.path.join(out, "checkpoint.dre")] + EVAL_FLAGS)
    assert "fingerprint" in err


@pytest.mark.parametrize("train_flags, eval_config, edit, message", [
    (["--split-seed", "1"], "", None, "split_seed='1', here '0'"),
    ([], "test_frac=0.3\n", None, "test_frac='0.2', here '0.3'"),
    ([], "val_frac=0.15\n", None, "val_frac='0.1', here '0.15'"),
    ([], "", ("split_seed=0", "split_seed=zero"), "split_seed='zero', here '0'"),
    # train writes \n line ends only, so a \r stays in its line's value
    ([], "", ("\n", "\r\n"), "test_frac='0.2\\r', here '0.2'"),
    ([], "", ("\nsplit_seed=", "\rsplit_seed="), "split_seed=None, here '0'"),
    ([], "", ("\nk=3", "\nk=\udcff"), "manifest:7: invalid utf-8 byte 0xff"),
], ids=["split_seed", "test_frac", "val_frac", "unparsable", "crlf", "lone_cr", "invalid_utf8"])
def test_eval_checkpoint_of_other_split_is_one_line_error(prepared, tmp_path, capsys,
                                                          train_flags, eval_config, edit,
                                                          message):
    # DRE would otherwise be scored on users it was trained on
    out = tmp_path / "run"
    assert cli.main(["train", "--data-dir", prepared, "--out", str(out), "--seed", "3"]
                    + FAST_TRAIN + train_flags) == 0
    if edit:
        manifest = out / "checkpoint.dre.manifest"
        manifest.write_bytes(manifest.read_text().replace(*edit).encode("utf-8",
                                                                         "surrogateescape"))
    config = tmp_path / "eval.cfg"
    config.write_text(eval_config)
    checkpoint = str(out / "checkpoint.dre")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "e"), "--methods", "DRE",
        "--runs", "1", "--checkpoint", checkpoint, "--config", str(config)] + EVAL_FLAGS)
    assert checkpoint in err and message in err
    assert not (tmp_path / "e").exists()


def test_eval_split_seed_flag_admits_checkpoint_of_that_split(prepared, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--data-dir", prepared, "--out", str(out), "--seed", "3",
                     "--split-seed", "1"] + FAST_TRAIN) == 0
    config = tmp_path / "eval.cfg"
    config.write_text("split_seed=1\n")
    eval_args = ["eval", "--data-dir", prepared, "--methods", "DRE", "--runs", "1",
                 "--checkpoint", str(out / "checkpoint.dre")] + EVAL_FLAGS
    assert cli.main(eval_args + ["--out", str(tmp_path / "flag"), "--split-seed", "1"]) == 0
    assert cli.main(eval_args + ["--out", str(tmp_path / "cfg"), "--config", str(config)]) == 0
    assert ((tmp_path / "flag" / "eval_report.json").read_bytes()
            == (tmp_path / "cfg" / "eval_report.json").read_bytes())
    grid = cli.build_parser().parse_args(["grid", "--data-dir", prepared, "--grid", "t0=1",
                                          "--split-seed", "1"])
    assert grid.split_seed == 1


def test_eval_external_seeds(prepared, tmp_path):
    seeds_path = str(tmp_path / "ext.txt")
    Path(seeds_path).write_text("0\n6\n12\n")
    out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--data-dir", prepared, "--out", out,
                   "--methods", "EXT", "--runs", "1", "--seed", "1",
                   "--external-seeds", f"EXT={seeds_path}"] + EVAL_FLAGS)
    assert rc == 0
    report = evaluate.EvalReport.from_json(
        Path(out, "eval_report.json").read_text())
    assert report.methods == ["EXT"]


def test_eval_external_seeds_of_any_length(prepared, tmp_path):
    # a ++ decoder has one input per seed of its list, whatever --k says
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text("0\n6\n")
    out = tmp_path / "eval"
    assert cli.main(["eval", "--data-dir", prepared, "--out", str(out),
                     "--methods", "MOSTPOP,EXT", "--runs", "1",
                     "--external-seeds", f"EXT={seeds_path}"] + EVAL_FLAGS) == 0
    report = evaluate.EvalReport.from_json((out / "eval_report.json").read_text())
    assert report.methods == ["EXT", "MOSTPOP"]


def write_manifest(checkpoint, data_dir):
    """The keys of the manifest that eval checks, as train would write them
    next to a checkpoint for the data in data_dir and the default split."""
    manifest = {key: cli.CONFIG_DEFAULTS[key] for key in ("test_frac", "val_frac", "split_seed")}
    manifest["data_fingerprint"] = data.matrix_fingerprint(cli._load_dataset(data_dir))
    Path(checkpoint + ".manifest").write_text("".join(f"{k}={v}\n" for k, v in manifest.items()))


def _check_one_line_error(code, out, err):
    # how cli.main ends on bad input: exit 1, one `error:` line, no traceback
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _one_line_error(capsys, argv):
    capsys.readouterr()
    rc = cli.main(argv)
    captured = capsys.readouterr()
    _check_one_line_error(rc, captured.out, captured.err)
    return captured.err


@pytest.mark.parametrize("seeds", ["0\n6\n18\n", "0\n-1\n12\n", ""],
                         ids=["ge_m", "negative", "empty"])
def test_eval_external_seeds_out_of_range(prepared, tmp_path, capsys, seeds):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text(seeds)
    argv = ["eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
            "--methods", "EXT", "--runs", "1",
            "--external-seeds", f"EXT={seeds_path}"] + EVAL_FLAGS
    with pytest.raises(data.DataError, match=r"\[0, 18\)"):
        cli.cmd_eval(cli.build_parser().parse_args(argv))
    _one_line_error(capsys, argv)


def test_eval_external_seeds_may_not_reuse_a_built_in_name(prepared, tmp_path, capsys):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text("0\n1\n2\n")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "RAN++", "--runs", "1", "--external-seeds", f"ran++={seeds_path}"]
        + EVAL_FLAGS)
    assert "ran++" in err and "built-in" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("spec", ["EXT", "=x.txt", "EXT=", "="],
                         ids=["no_path", "no_name", "empty_path", "bare_equals"])
def test_eval_external_seeds_not_name_eq_path_is_one_line_error(prepared, tmp_path, capsys,
                                                                spec):
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "EXT", "--runs", "1", "--external-seeds", spec] + EVAL_FLAGS)
    assert err == f"error: --external-seeds must be NAME=PATH, got {spec!r}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("methods", ["MOSTPOP,mostpop", "MOSTPOP,RBMF,mostpop"])
def test_eval_method_named_twice_is_one_line_error(prepared, tmp_path, capsys, monkeypatch,
                                                   methods):
    # rejected before any method is scored (a repeated method would give its
    # cells twice as many run values as the report has run seeds)
    scored = []
    monkeypatch.setattr(evaluate, "evaluate_method", lambda *args: scored.append(args))
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", methods, "--runs", "2"] + EVAL_FLAGS)
    assert "MOSTPOP" in err and "more than once" in err
    assert scored == [] and not (tmp_path / "eval").exists()


def test_eval_external_seeds_name_given_twice_is_one_line_error(prepared, tmp_path, capsys):
    # the later file used to replace the earlier one silently
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("0\n1\n2\n")
    second.write_text("3\n4\n5\n")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"), "--methods", "MINE",
        "--runs", "1", "--external-seeds", f"mine={first}", "--external-seeds", f"MINE={second}"]
        + EVAL_FLAGS)
    assert "MINE" in err and "more than once" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("m, seeds", [(10, [2, 4, 8]), (25, [2, 4, 20])], ids=["fewer", "more"])
def test_eval_checkpoint_of_other_item_count_is_one_line_error(prepared, tmp_path, capsys,
                                                               m, seeds):
    # a manifest of this data, so only the shape tells that the checkpoint is not for it
    checkpoint = str(tmp_path / "checkpoint.dre")
    rng = np.random.Generator(np.random.PCG64(12))
    model.save_checkpoint(checkpoint, rng.standard_normal((3, m)).astype(np.float32),
                          model.init_decoder(3, 4, m, rng), np.array(seeds))
    write_manifest(checkpoint, prepared)
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "MOSTPOP,DRE", "--runs", "1", "--checkpoint", checkpoint,
        "--k", "3", "--ns", "5"])
    assert f"checkpoint has {m} items, the data has 18" in err
    assert not (tmp_path / "eval").exists()


def test_eval_checkpoint_without_its_manifest_is_one_line_error(prepared, tmp_path, capsys):
    # train writes the manifest; a checkpoint copied without it is not admitted
    out = tmp_path / "run"
    assert cli.main(["train", "--data-dir", prepared, "--out", str(out), "--seed", "3"]
                    + FAST_TRAIN) == 0
    checkpoint = tmp_path / "copy" / "checkpoint.dre"
    checkpoint.parent.mkdir()
    checkpoint.write_bytes((out / "checkpoint.dre").read_bytes())
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"), "--methods", "DRE",
        "--runs", "1", "--checkpoint", str(checkpoint)] + EVAL_FLAGS)
    assert f"{checkpoint}.manifest" in err
    assert not (tmp_path / "eval").exists()


def test_eval_holds_no_dre_decoder_while_another_decoder_trains(prepared, tmp_path,
                                                               monkeypatch):
    out = tmp_path / "train"
    assert cli.main(["train", "--data-dir", prepared, "--out", str(out), "--seed", "3"]
                    + FAST_TRAIN) == 0
    loaded, alive_at_fit = [], []  # weak references to each loaded decoder's w2
    load, retrain = model.load_checkpoint, model.retrain_decoder

    def recorded_load(path):
        phi, theta, seeds = load(path)
        loaded.append(weakref.ref(theta.w2))
        return phi, theta, seeds

    def recorded_retrain(*args, **kwargs):
        alive_at_fit.append(sum(ref() is not None for ref in loaded))
        return retrain(*args, **kwargs)

    monkeypatch.setattr(model, "load_checkpoint", recorded_load)
    monkeypatch.setattr(model, "retrain_decoder", recorded_retrain)
    assert cli.main(["eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(out / "checkpoint.dre"), "--runs", "2",
                     "--seed", "0"] + EVAL_FLAGS) == 0
    # RAN++, POP++ and RBMF++ fit a decoder in each of the 2 runs
    assert loaded and alive_at_fit == [0] * 6


def test_eval_checkpoint_is_admitted_once(prepared, tmp_path, monkeypatch):
    out = tmp_path / "train"
    assert cli.main(["train", "--data-dir", prepared, "--out", str(out), "--seed", "3"]
                    + FAST_TRAIN) == 0
    hashed, loaded = [], []
    fingerprint, load = data.matrix_fingerprint, model.load_checkpoint
    monkeypatch.setattr(data, "matrix_fingerprint",
                        lambda matrix: hashed.append(1) or fingerprint(matrix))
    monkeypatch.setattr(model, "load_checkpoint", lambda path: loaded.append(1) or load(path))
    assert cli.main(["eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
                     "--methods", "MOSTPOP,DRE", "--checkpoint", str(out / "checkpoint.dre"),
                     "--runs", "2", "--seed", "0"] + EVAL_FLAGS) == 0
    # the manifest is checked once; each run reads the decoder again
    assert len(hashed) == 1 and len(loaded) == 3


def test_eval_checkpoint_whose_seeds_change_is_one_line_error(prepared, tmp_path, capsys,
                                                              monkeypatch):
    checkpoint = str(tmp_path / "checkpoint.dre")
    rng = np.random.Generator(np.random.PCG64(12))
    phi, theta = rng.standard_normal((3, 18)).astype(np.float32), model.init_decoder(3, 4, 18, rng)
    model.save_checkpoint(checkpoint, phi, theta, np.array([2, 4, 8]))
    write_manifest(checkpoint, prepared)
    load = model.load_checkpoint

    def load_then_replace(path):
        # the file is replaced once eval has admitted it
        result = load(path)
        model.save_checkpoint(checkpoint, phi, theta, np.array([2, 4, 9]))
        return result

    monkeypatch.setattr(model, "load_checkpoint", load_then_replace)
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "MOSTPOP,DRE", "--runs", "1", "--checkpoint", checkpoint,
        "--k", "3", "--ns", "5"])
    assert "seeds changed" in err
    assert not (tmp_path / "eval").exists()


def test_eval_external_seeds_must_be_a_method(prepared, tmp_path, capsys):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text("0\n6\n12\n")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "MOSTPOP", "--runs", "1", "--external-seeds", f"X={seeds_path}"]
        + EVAL_FLAGS)
    assert "X" in err and "--methods" in err
    assert not (tmp_path / "eval").exists()


def test_eval_checkpoint_without_dre_is_one_line_error(prepared, tmp_path, capsys,
                                                       monkeypatch):
    # it used to be ignored, and a report without DRE was written
    def never(*args, **kwargs):
        raise AssertionError("a method ran before the checkpoint was checked")

    monkeypatch.setattr(evaluate, "evaluate_method", never)
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "MOSTPOP", "--runs", "1",
        "--checkpoint", str(tmp_path / "missing" / "checkpoint.dre")] + EVAL_FLAGS)
    assert "--checkpoint" in err and "DRE" in err and "--methods" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("with_checkpoint", [False, True], ids=["trained", "checkpoint"])
def test_eval_run_alone_reproduces_that_run_of_run_eval(prepared, tmp_path, monkeypatch,
                                                        with_checkpoint):
    # each (method, run) has its own stream (stream_seed), so a run needs no other
    matrix = cli._load_dataset(prepared)
    cfg = dict(cli.CONFIG_DEFAULTS, k=3, d=8, epochs=12, t0=5.0, retrain_epochs=4,
               val_every=6, batch_size=32)
    split = data.split_users(matrix, cfg["test_frac"], cfg["val_frac"], cfg["split_seed"])
    checkpoint = loaded = None
    if with_checkpoint:
        assert cli.main(["train", "--data-dir", prepared, "--out", str(tmp_path),
                         "--seed", "3"] + FAST_TRAIN) == 0
        checkpoint = str(tmp_path / "checkpoint.dre")
        loaded = cli.load_eval_checkpoint(checkpoint, matrix, cfg)[1]
    external = {"EXT": np.array([0, 6, 12])}
    methods, Ns = list(cli.METHODS) + ["EXT"], (5, 10)
    runs = []  # run_eval's per-run tables, as it hands them to aggregate_runs
    aggregate = evaluate.aggregate_runs
    monkeypatch.setattr(evaluate, "aggregate_runs",
                        lambda reports, *args, **kwargs: runs.append(reports)
                        or aggregate(reports, *args, **kwargs))
    cli.run_eval(matrix, split, cfg, methods, 2, Ns, checkpoint=checkpoint,
                 external_seeds=external)
    alone = cli.eval_run(matrix, split, cfg, methods, Ns, 1, checkpoint, loaded, external)
    assert sorted(alone) == sorted(methods)
    for meth in methods:
        want, got = runs[0][meth][1], alone[meth]
        assert got["skipped"] == want["skipped"], meth
        assert np.array_equal(got["users"], want["users"]), meth
        for N in Ns:
            assert np.array_equal(got["P"][N], want["P"][N]), meth
            assert np.array_equal(got["NDCG"][N], want["NDCG"][N]), meth
    # the two runs differ, so the run number reaches the methods
    assert any(not np.array_equal(runs[0][meth][0]["NDCG"][N], runs[0][meth][1]["NDCG"][N])
               for meth in methods for N in Ns)


NS_ERROR = "error: Ns must be comma-separated distinct int values of at least 1, got "


@pytest.mark.parametrize("flag, value, message", [
    ("--runs", "0", "runs must be at least 1, got 0"),
    ("--ns", "0", NS_ERROR + "'0'"),
    ("--ns", "5,-1", NS_ERROR + "'5,-1'"),
    ("--ns", "5,,10", NS_ERROR + "'5,,10'"),
    ("--config", "Ns=5,,10\n", NS_ERROR + "'5,,10'"),
    ("--ns", "5,5", NS_ERROR + "'5,5'"),
    ("--config", "Ns=10,5,10\n", NS_ERROR + "'10,5,10'"),
], ids=["runs_0", "ns_0", "ns_negative", "ns_empty", "config_ns_empty", "ns_repeat",
        "config_ns_repeat"])
def test_eval_range_is_one_line_error(prepared, tmp_path, capsys, monkeypatch,
                                      flag, value, message):
    def never(*args, **kwargs):
        raise AssertionError("a method ran before the ranges were checked")

    monkeypatch.setattr(evaluate, "evaluate_method", never)
    flags = EVAL_FLAGS + [flag, value]
    if flag == "--config":  # value is the config file's text, with no --ns to override it
        config = tmp_path / "eval.cfg"
        config.write_text(value)
        flags = FAST_FLAGS + [flag, str(config)]
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "MOSTPOP,RAN++", "--runs", "1"] + flags)
    assert message in err


@pytest.mark.parametrize("methods, ns, message", [
    ("MOSTPOP,RAN++", "5,16", "N=16 is not within the candidate count 15"),
    ("MOSTPOP", "19", "N=19 is not within the candidate count 18"),
], ids=["seeded", "mostpop_alone"])
def test_eval_n_above_candidates_is_one_line_error(prepared, tmp_path, capsys, monkeypatch,
                                                   methods, ns, message):
    def never(*args, **kwargs):
        raise AssertionError("a method ran before N was checked")

    monkeypatch.setattr(evaluate, "evaluate_method", never)
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", methods, "--runs", "1"] + EVAL_FLAGS + ["--ns", ns])
    assert message in err


@pytest.mark.parametrize("methods, k", [("RBMF", "40"), ("RAN++,MOSTPOP", "18")])
def test_eval_k_not_below_the_item_count_is_one_line_error(prepared, tmp_path, capsys,
                                                         monkeypatch, methods, k):
    def never(*args, **kwargs):
        raise AssertionError("a method ran before k was checked")

    monkeypatch.setattr(evaluate, "evaluate_method", never)
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", methods, "--runs", "1", "--k", k, "--ns", "5"])
    assert f"k={k} must be smaller than the item count 18" in err


def test_eval_of_dre_with_one_test_user_is_refused_before_any_method_runs(tmp_path, capsys,
                                                                         monkeypatch):
    # 12 users at test_frac 0.1: round(1.2) = 1 test user, too few for the
    # paired t-tests of DRE against each other method
    rng = np.random.Generator(np.random.PCG64(6))
    write_raw_file(tmp_path / "ratings.dat", [(u, i, 5, 1) for u in range(12)
                                              for i in rng.permutation(30)[:12]])
    prepared = str(tmp_path / "prepared")
    assert cli.main(["prepare", "--dataset", str(tmp_path / "ratings.dat"),
                     "--out", prepared]) == 0
    config = tmp_path / "eval.cfg"
    config.write_text("test_frac=0.1\n")

    def never(*args, **kwargs):
        raise AssertionError("a method ran before the test users were counted")

    monkeypatch.setattr(model, "train", never)
    monkeypatch.setattr(evaluate, "evaluate_method", never)
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"), "--config",
        str(config), "--methods", ",".join(cli.METHODS), "--runs", "1"] + EVAL_FLAGS)
    assert "test_frac=0.1 gives 1" in err and "at least 2 test users" in err


def test_eval_external_seeds_not_an_integer(prepared, tmp_path, capsys):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text("0\nabc\n12\n")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "EXT", "--runs", "1", "--external-seeds", f"EXT={seeds_path}"]
        + EVAL_FLAGS)
    assert f"{seeds_path}:2:" in err and "'abc'" in err


@pytest.mark.parametrize("line", ["+6", "06", "1_2", "\u0666", "", "6\n6"],
                         ids=["plus", "leading_zero", "underscore", "arabic_indic", "blank",
                              "repeated"])
def test_eval_external_seeds_not_as_save_seeds_writes_them(prepared, tmp_path, capsys, line):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text(f"0\n{line}\n12\n", encoding="utf-8")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "EXT", "--runs", "1", "--external-seeds", f"EXT={seeds_path}"]
        + EVAL_FLAGS)
    assert re.search(rf"{re.escape(str(seeds_path))}:[23]: ", err)
    assert not (tmp_path / "eval").exists()


def test_config_bad_value_is_one_line_error(prepared, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# comment\nk=abc\n")
    err = _one_line_error(capsys, ["train", "--data-dir", prepared, "--out",
                                   str(tmp_path / "run"), "--config", str(config)])
    assert f"{config}:2:" in err and "'abc'" in err


def test_config_key_set_twice_is_one_line_error(prepared, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k=3\n# comment\n k = 7\n")
    err = _one_line_error(capsys, ["train", "--data-dir", prepared, "--out",
                                   str(tmp_path / "run"), "--config", str(config)])
    assert err == f"error: {config}:3: config key 'k' is set more than once\n"


@pytest.mark.parametrize("command, flags, config, message", [
    ("train", ["--batch-size", "-5"], "", "batch_size must be at least 1, got -5"),
    ("train", ["--val-every", "0"], "", "val_every must be at least 1, got 0"),
    ("train", ["--retrain-epochs", "-2"], "", "retrain_epochs must be at least 0, got -2"),
    ("train", ["--lr", "-1"], "", "lr must be finite and positive, got -1.0"),
    ("train", ["--lr", "nan"], "", "lr must be finite and positive, got nan"),
    ("train", ["--lr", "inf"], "", "lr must be finite and positive, got inf"),
    ("grid", ["--grid", "t0=1,5"], "val_every=0\n", "val_every must be at least 1, got 0"),
    # only a later cell is bad: every cell is checked before the first trains
    ("grid", ["--grid", "lr=0.01,-1"], "", "lr must be finite and positive, got -1.0"),
    ("grid", ["--grid", "t0=5,1 te=2"], "", "error: need t0 >= te, got t0=1.0 te=2.0"),
    ("eval", ["--methods", "MOSTPOP", "--runs", "1", "--ns", "5"], "batch_size=0\n",
     "batch_size must be at least 1, got 0"),
    ("train", ["--t0", "inf", "--te", "inf"], "",
     "error: t0 must be finite and positive, got inf"),
    ("train", ["--seed", "-5"], "", "error: seed must be at least 0, got -5"),
    ("train", ["--split-seed", "-1"], "", "error: split_seed must be at least 0, got -1"),
    ("grid", ["--grid", "t0=1,5"], "seed=-5\n", "error: seed must be at least 0, got -5"),
    # eval's methods draw from streams hashed from the seed, which take any
    # integer, but the seed is checked as train checks it
    ("eval", ["--methods", "DRE,MOSTPOP", "--runs", "1", "--ns", "5"], "seed=-5\n",
     "error: seed must be at least 0, got -5"),
    ("train", [], "test_frac=nan\n", "error: test_frac must be in (0, 1), got nan"),
    ("eval", ["--methods", "MOSTPOP", "--runs", "1", "--ns", "5"], "val_frac=0\n",
     "error: val_frac must be in (0, 1), got 0.0"),
], ids=["batch_size", "val_every", "retrain_epochs", "lr_negative", "lr_nan", "lr_inf",
        "grid_val_every", "grid_second_cell_lr", "grid_second_cell_t0_below_te",
        "eval_batch_size", "t0_inf", "seed_negative", "split_seed_negative",
        "grid_seed_negative", "eval_seed_negative", "test_frac_nan", "eval_val_frac_0"])
def test_bad_training_hyperparameter_is_one_line_error(prepared, tmp_path, capsys, monkeypatch,
                                                       command, flags, config, message):
    def never(*args, **kwargs):
        raise AssertionError("a method ran before the hyperparameters were checked")

    monkeypatch.setattr(model, "train", never)
    monkeypatch.setattr(evaluate, "evaluate_method", never)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    err = _one_line_error(capsys, [command, "--data-dir", prepared, "--out",
                                   str(tmp_path / "run"), "--config", str(cfg)]
                          + FAST_FLAGS + flags)
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 37.3 GiB for an array with shape (3, 10000000000) and data type float32",
    "",
], ids=["numpy", "bare"])
def test_allocation_failure_is_one_line_error(prepared, tmp_path, capsys, monkeypatch, message):
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(model, "init_decoder", no_memory)
    err = _one_line_error(capsys, ["train", "--data-dir", prepared, "--out",
                                   str(tmp_path / "run"), "--d", "10000000000"] + FAST_FLAGS)
    assert err == f"error: {message or 'MemoryError'}\n"


def _flat_report(methods):
    """The eval_report.json text of `methods` over one run at N = 10, with
    every mean 0.5."""
    rep = evaluate.EvalReport(methods=methods, Ns=[10], run_seeds=[0])
    for meth in methods:
        for metric in ("P", "NDCG"):
            rep.cells[(meth, metric, 10)] = {"mean": 0.5, "std": 0.0, "runs": [0.5]}
    return rep.to_json()


def test_report_dump_without_dre_is_one_line_error(tmp_path, capsys):
    dump = tmp_path / "eval_report.json"
    dump.write_text(_flat_report(["BASE", "OTHER"]))
    err = _one_line_error(capsys, ["report", "--dump", str(dump)])
    assert err == f"error: {dump}: report has no 'DRE' column\n"


def test_report_dump_without_methods_is_one_line_error(tmp_path, capsys):
    dump = tmp_path / "eval_report.json"
    dump.write_text(json.dumps({"Ns": [10], "run_seeds": [0], "cells": {}}))
    err = _one_line_error(capsys, ["report", "--dump", str(dump)])
    assert err == f"error: {dump}: eval report: no 'methods' key\n"


@pytest.mark.parametrize("text, where, message", [
    ('{"methods": [', ":1:14", "Expecting value"),
    ('{\n"methods": ["DRE",\n]}', ":3:1", "Expecting value"),
    (_flat_report(["DRE"]), "", "need at least 2 methods to compare"),
], ids=["cut", "trailing_comma", "one_method"])
def test_report_dump_errors_name_the_file(tmp_path, capsys, text, where, message):
    # path:line:column for a JSON syntax error, path: for the rest
    dump = tmp_path / "eval_report.json"
    dump.write_text(text)
    err = _one_line_error(capsys, ["report", "--dump", str(dump)])
    assert err == f"error: {dump}{where}: {message}\n"


def test_training_matrix_is_densified_only_in_blocks(monkeypatch):
    # train, retrain and every eval method densify at most one minibatch or
    # one scoring block of rows at a time, never the training matrix: the
    # float minibatches are densified from positives, which are gathered per
    # block too, and the scored users' boolean rows by block
    matrix = make_cluster_matrix(n_per_cluster=150, seed=2)
    split = data.split_users(matrix, seed=0)
    batch = 64
    limit = max(batch, evaluate.BLOCK_ROWS)
    assert len(split.train_users) > limit >= max(len(split.val_users), len(split.test_users))
    requests = []
    dense, positives = data.RatingMatrix.dense, data.RatingMatrix.positives

    def recorded_dense(self, user_ids):
        requests.append(("dense", len(user_ids)))
        return dense(self, user_ids)

    def recorded_densify(positives, out):
        requests.append(("densify", len(out)))
        return data.densify(positives, out)

    def recorded_positives(self, user_ids):
        requests.append(("positives", len(user_ids)))
        return positives(self, user_ids)

    monkeypatch.setattr(data.RatingMatrix, "dense", recorded_dense)
    monkeypatch.setattr(data.RatingMatrix, "positives", recorded_positives)
    monkeypatch.setattr(model, "densify", recorded_densify)
    cfg = dict(cli.CONFIG_DEFAULTS, k=3, d=8, epochs=2, retrain_epochs=1,
               batch_size=batch, val_every=1)
    phi, theta, _ = model.train(matrix, split, cli.train_config(cfg))
    model.retrain_decoder(matrix, split, model.extract_seeds(phi), theta, 1,
                          lr=cfg["lr"], batch_size=batch, seed=cfg["seed"])
    cli.run_eval(matrix, split, cfg, cli.METHODS, runs=1, Ns=(5,))
    rows = [n for _, n in requests]
    assert {"dense", "densify", "positives"} <= {kind for kind, _ in requests}
    assert max(rows) <= limit, sorted(set(requests))


def test_train_corrupt_snapshot_is_one_line_error(prepared, tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name in ("matrix.snapshot", "users.map", "items.map"):
        (data_dir / name).write_bytes(Path(prepared, name).read_bytes())
    snapshot = data_dir / "matrix.snapshot"
    lines = snapshot.read_text().splitlines(keepends=True)
    lines[1] = "999:" + lines[1].partition(":")[2]
    snapshot.write_text("".join(lines))
    err = _one_line_error(capsys, ["train", "--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "run")] + FAST_TRAIN)
    assert "user id 999" in err


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].replace("n=60 ", "n=999999999999 ")] + lines[1:],
     "60 rows, the header says n=999999999999"),
    (lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],
     "matrix.snapshot:2: user id 1, expected 0 in user order"),
], ids=["header_n_beyond_rows", "row_out_of_user_order"])
def test_train_snapshot_not_as_prepare_writes_it_is_one_line_error(prepared, tmp_path, capsys,
                                                                 edit, message):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    lines = Path(prepared, "matrix.snapshot").read_text().splitlines(keepends=True)
    (data_dir / "matrix.snapshot").write_text("".join(edit(lines)))
    err = _one_line_error(capsys, ["train", "--data-dir", str(data_dir),
                                   "--out", str(tmp_path / "run")] + FAST_TRAIN)
    assert message in err


def test_phase_rss_tool_traces_prepare_train_and_eval(raw_dataset, prepared, tmp_path):
    tool = Path(__file__).parent.parent / "tools" / "phase_rss.py"
    env = dict(os.environ, PYTHONPATH=str(Path(elicit.__file__).parent.parent))
    commands = {
        "prepare": ["prepare", "--dataset", raw_dataset, "--min-count", "3",
                    "--out", str(tmp_path / "prepared")],
        "train": ["train", "--data-dir", prepared, "--out", str(tmp_path / "train"),
                  "--seed", "3"] + FAST_TRAIN,
        "eval": ["eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
                 "--runs", "1", "--seed", "0", "--checkpoint",
                 str(tmp_path / "train" / "checkpoint.dre")] + EVAL_FLAGS,
    }
    phases = {"prepare": {"data.load_interactions", "data.filter_min_ratings",
                          "data.build_matrix", "data.save_snapshot"},
              "train": {"data.load_snapshot", "model.train", "model._validation_ndcg",
                        "model.retrain_decoder"},
              "eval": {"data.load_snapshot", "model.retrain_decoder", "baselines.rbmf_select",
                       "baselines.rbmf_decoder", "evaluate.evaluate_method",
                       "evaluate.aggregate_runs"}}
    for name, argv in commands.items():
        proc = subprocess.run([sys.executable, str(tool), "--"] + argv, env=env,
                              capture_output=True, text=True, check=True)
        print(f"phase trace of the fixture {name}:\n{proc.stdout}")  # shown by pytest -s
        events = {}  # phase -> the events seen
        for line in proc.stdout.splitlines():
            fields = line.split()
            if fields[1:2] == ["s"]:
                assert fields[4] == "VmRSS" and fields[7] == "VmHWM"
                assert 0 < float(fields[5]) <= float(fields[8])
                events.setdefault(fields[3], set()).add(fields[2])
        assert events.pop("cli.main") == {"start", "end"}
        assert set(events) == phases[name]
        assert all(seen == {"enter", "exit"} for seen in events.values())


def test_criterion07_margin_tool_runs(capsys, monkeypatch):
    tool = Path(__file__).parent.parent / "tools" / "criterion07_margin.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds tests/ to it
    spec = importlib.util.spec_from_file_location("criterion07_margin", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"run 0: blocks [0-3]/3 DRE=\d\.\d{4} RAN\+\+=\d\.\d{4}", lines[0])
    assert re.fullmatch(r"coverage [01]/1, wins [01]/1, passing 5-run windows 0/0, \d+ s",
                        lines[1])


def test_output_digests_tool_prints_the_same_lines_twice(tmp_path):
    tool = Path(__file__).parent.parent / "tools" / "output_digests.py"
    env = dict(os.environ, PYTHONPATH=str(Path(elicit.__file__).parent.parent))
    runs = [subprocess.run([sys.executable, str(tool), str(tmp_path / out)], env=env,
                           capture_output=True, text=True, check=True).stdout.splitlines()
            for out in ("a", "b")]
    assert runs[0] == runs[1]
    paths = [line.split("  ")[1] for line in runs[0]]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in runs[0])
    assert paths == sorted(paths)
    assert {"ratings.dat", "prepared/matrix.snapshot", "train/checkpoint.dre",
            "train/checkpoint.dre.manifest", "train/seeds.txt", "train/history.tsv",
            "eval/eval_report.json", "eval/eval_report.tsv", "grid/sweep.tsv",
            "ratings-long.dat", "prepared-long/matrix.snapshot", "prepared-long/users.map",
            "prepared-long/items.map", "recommend.txt", "report.tsv",
            "eval-train/eval_report.json", "eval-train/eval_report.tsv",
            "eval-mostpop/eval_report.json", "eval-mostpop/eval_report.tsv",
            "grouped.cfg", "eval-grouped/eval_report.json", "eval-grouped/eval_report.tsv",
            "ratings-crlf.dat", "prepared-t45/matrix.snapshot", "prepared-t45/users.map",
            "prepared-t45/items.map", "prepare.cfg", "prepared-config/matrix.snapshot",
            "prepared-config/users.map", "prepared-config/items.map"} <= set(paths)
    # the config file's threshold and minimum count are not the defaults
    digest = {path: line.split("  ")[0] for line, path in zip(runs[0], paths)}
    assert digest["prepared-config/matrix.snapshot"] != digest["prepared/matrix.snapshot"]


def test_grid_sweep(prepared, tmp_path):
    out = str(tmp_path / "grid")
    rc = cli.main(["grid", "--data-dir", prepared, "--out", out,
                   "--grid", "t0=1,5 te=0.5,t0", "--seed", "0"] + FAST_FLAGS)
    assert rc == 0
    rows = Path(out, "sweep.tsv").read_text().splitlines()
    assert len(rows) == 1 + 4  # cartesian product of 2 x 2
    pivot = Path(out, "sweep_t0_te.tsv").read_text().splitlines()
    assert pivot[0].split("\t") == ["te\\t0", "1.0", "5.0"]
    assert len(pivot) == 3


def test_grid_is_capped_at_max_grid_cells(prepared, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_CELLS", 1)
    out = tmp_path / "grid"
    capsys.readouterr()
    assert cli.main(["grid", "--data-dir", prepared, "--out", str(out),
                     "--grid", "t0=1,5", "--seed", "0"] + FAST_FLAGS) == 0
    assert "warning: grid has 2 cells, capping at 1" in capsys.readouterr().err
    rows = (out / "sweep.tsv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("1.0\t")


def test_train_config_fields_are_config_keys():
    # the hyperparameter defaults have one home, CONFIG_DEFAULTS
    for field in dataclasses.fields(model.TrainConfig):
        assert field.default is dataclasses.MISSING, field.name
        assert type(cli.CONFIG_DEFAULTS[field.name]) is field.type, field.name


# each subcommand's flags: option strings, dest, default, required, help
# and type (by name; None where argparse keeps the string)
COMMON_FLAGS = [
    ("--config", "config", None, False, "flat key=value config file", None),
    ("--out", "out", None, False, "output directory", "str"),
]
DATA_FLAGS = COMMON_FLAGS + [
    ("--data-dir", "data_dir", None, True, "directory holding matrix.snapshot + maps", None),
    ("--seed", "seed", None, False, "master RNG seed", "int"),
    ("--split-seed", "split_seed", None, False, "seed of the train/validation/test user split",
     "int"),
]
PARSER_FLAGS = {
    "prepare": [
        ("--dataset", "dataset", None, False, "raw interaction file", "str"),
        ("--delimiter", "delimiter", None, False, "field delimiter (default '::')", "str"),
        ("--threshold", "threshold", None, False, "binarization threshold", "float"),
        ("--min-count", "min_count", None, False, None, "int"),
    ] + COMMON_FLAGS,
    "train": [
        ("--k", "k", None, False, None, "int"),
        ("--d", "d", None, False, None, "int"),
        ("--lr", "lr", None, False, None, "float"),
        ("--epochs", "epochs", None, False, None, "int"),
        ("--batch-size", "batch_size", None, False, None, "int"),
        ("--t0", "t0", None, False, None, "float"),
        ("--te", "te", None, False, None, "float"),
        ("--retrain-epochs", "retrain_epochs", None, False, None, "int"),
        ("--val-every", "val_every", None, False, None, "int"),
    ] + DATA_FLAGS,
    "eval": [
        ("--methods", "methods", "MOSTPOP,RAN++,POP++,RBMF,RBMF++,DRE", False, None, None),
        ("--runs", "runs", None, False, None, "int"),
        ("--k", "k", None, False, None, "int"),
        ("--epochs", "epochs", None, False, None, "int"),
        ("--ns", "Ns", None, False, "comma-separated ranking cutoffs", "str"),
        ("--checkpoint", "checkpoint", None, False, "reuse a trained DRE checkpoint", None),
        ("--external-seeds", "external_seeds", None, False,
         "evaluate an external seed list with the neural decoder", None),
    ] + DATA_FLAGS,
    "grid": [
        ("--grid", "grid", None, True, "e.g. 't0=1,10 te=0.5,0.1,t0'", None),
        ("--k", "k", None, False, None, "int"),
        ("--epochs", "epochs", None, False, None, "int"),
    ] + DATA_FLAGS,
    "recommend": [
        ("--checkpoint", "checkpoint", None, True, None, None),
        ("--items-map", "items_map", None, True, None, None),
        ("--feedback", "feedback", None, False,
         "file with k space/newline-separated 0/1 values", None),
        ("--top-n", "top_n", 10, False, None, "int"),
    ],
    "report": [("--dump", "dump", None, True, "eval_report.json", None)],
}


def _subcommands():
    """{subcommand name: its argparse parser}."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_parser_flags_are_pinned():
    # every subcommand's flags, pinned; a string key's flag has type str,
    # which argparse parses as it parses a flag with no type
    subcommands = _subcommands()
    assert list(subcommands) == list(PARSER_FLAGS)
    for name, parser in subcommands.items():
        flags = [(*action.option_strings, action.dest, action.default, action.required,
                  action.help, getattr(action.type, "__name__", action.type))
                 for action in parser._actions if not isinstance(action, argparse._HelpAction)]
        assert flags == PARSER_FLAGS[name], name
    # a config key's flag takes its type from CONFIG_DEFAULTS
    for flags in PARSER_FLAGS.values():
        for flag, dest, *_, kind in flags:
            if dest in cli.CONFIG_DEFAULTS:
                assert kind == type(cli.CONFIG_DEFAULTS[dest]).__name__, flag


def test_parse_grid_errors():
    with pytest.raises(ValueError):
        cli.parse_grid("bogus=1")
    with pytest.raises(ValueError):
        cli.parse_grid("")
    grid = cli.parse_grid("te=0.1,t0 lr=0.01")
    assert grid["te"] == [0.1, "t0"] and grid["lr"] == [0.01]
    # a value that does not parse is named with its key
    with pytest.raises(ValueError, match=r"^grid key lr must be float, got 'abc'$"):
        cli.parse_grid("lr=0.1,abc")
    with pytest.raises(ValueError, match=r"^grid key k must be int, got ''$"):
        cli.parse_grid("t0=1 k=")


def test_parse_grid_rejects_a_key_given_twice():
    # the last list would silently replace the first
    with pytest.raises(ValueError, match="'t0' is given more than once"):
        cli.parse_grid("t0=1,10 t0=50")


def test_recommend_file_mode(prepared, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--data-dir", prepared, "--out", out,
                     "--seed", "3"] + FAST_TRAIN) == 0
    feedback = str(tmp_path / "fb.txt")
    Path(feedback).write_text("1 0 1\n")
    capsys.readouterr()
    rc = cli.main(["recommend", "--checkpoint", os.path.join(out, "checkpoint.dre"),
                   "--items-map", os.path.join(prepared, "items.map"),
                   "--feedback", feedback, "--top-n", "4"])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()
    assert len(first) == 4 and all(token.startswith("i") for token in first)
    # determinism
    rc = cli.main(["recommend", "--checkpoint", os.path.join(out, "checkpoint.dre"),
                   "--items-map", os.path.join(prepared, "items.map"),
                   "--feedback", feedback, "--top-n", "4"])
    assert capsys.readouterr().out.splitlines() == first
    # wrong feedback length aborts
    Path(feedback).write_text("1 0\n")
    err = _one_line_error(capsys, [
        "recommend", "--checkpoint", os.path.join(out, "checkpoint.dre"),
        "--items-map", os.path.join(prepared, "items.map"), "--feedback", feedback,
        "--top-n", "4"])
    assert "exactly 3" in err


def test_report_dump_error_of_an_unprintable_method_names_the_file(tmp_path):
    # a JSON escape of a lone surrogate parses to a method name that a UTF-8
    # stdout cannot encode
    dump = tmp_path / "eval_report.json"
    dump.write_text(_flat_report(["DRE", "B\ud800"]))
    env = dict(os.environ, PYTHONPATH=str(Path(elicit.__file__).parent.parent),
               PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-m", "elicit.cli", "report", "--dump", str(dump)],
                          env=env, capture_output=True, text=True)
    _check_one_line_error(proc.returncode, proc.stdout, proc.stderr)
    assert proc.stderr.startswith(f"error: {dump}: ") and "surrogates" in proc.stderr


def _small_recommend_argv(root, feedback):
    """recommend's arguments for the k=3, m=10 write_small_checkpoint file,
    an items.map of i0..i9 and the feedback file at `feedback`, top 4."""
    checkpoint, items_map = root / "small.dre", root / "small-items.map"
    write_small_checkpoint(str(checkpoint))
    items_map.write_text("".join(f"i{i}\t{i}\n" for i in range(10)))
    return ["recommend", "--checkpoint", str(checkpoint), "--items-map", str(items_map),
            "--feedback", str(feedback), "--top-n", "4"]


@pytest.mark.parametrize("raw, line, token", [
    (b"1 0\n1.0\n", 2, "1.0"),
    (b"1 1e0 0\n", 1, "1e0"),
    (b"1 0 -0\n", 1, "-0"),
    (b"+1 0 1\n", 1, "+1"),
    (b"1\r\n0\r\n01\r\n", 3, "01"),
    ("1 0 \uff11\n".encode(), 1, "\uff11"),
    (b"1 0 x\n", 1, "x"),
], ids=["point", "exponent", "minus", "plus", "leading_zero", "full_width", "letter"])
def test_recommend_feedback_takes_only_the_prompts_answers(tmp_path, capsys, raw, line, token):
    # the prompt takes 0 or 1, so a file holds exactly those tokens; float()
    # admitted all but the letter
    feedback = tmp_path / "fb.txt"
    feedback.write_bytes(raw)
    err = _one_line_error(capsys, _small_recommend_argv(tmp_path, feedback))
    assert err == f"error: {feedback}:{line}: expected answers 0 or 1, got {token!r}\n"


@pytest.mark.parametrize("raw, count", [(b"", 0), (b"1 0\n", 2), (b"1 0\n1 1\n", 4)],
                         ids=["empty", "too_few", "too_many"])
def test_recommend_feedback_count_error_names_the_file(tmp_path, capsys, raw, count):
    feedback = tmp_path / "fb.txt"
    feedback.write_bytes(raw)
    err = _one_line_error(capsys, _small_recommend_argv(tmp_path, feedback))
    assert err == f"error: {feedback}: need exactly 3 answers, one per seed, got {count}\n"


@pytest.mark.parametrize("answers", ["", "1\n"], ids=["no_answer", "one_answer"])
def test_recommend_end_of_input_is_one_line_error(tmp_path, capsys, monkeypatch, answers):
    checkpoint = str(tmp_path / "checkpoint.dre")
    write_small_checkpoint(checkpoint)  # k=3
    items_map = tmp_path / "items.map"
    items_map.write_text("".join(f"i{i}\t{i}\n" for i in range(10)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(answers))
    capsys.readouterr()
    rc = cli.main(["recommend", "--checkpoint", checkpoint, "--items-map", str(items_map),
                   "--top-n", "4"])  # of the 7 candidates
    err = capsys.readouterr().err  # stdout holds the questions asked
    n = answers.count("\n")
    assert rc == 1 and err.splitlines() == [f"error: input ended after {n} of 3 answers"]


@pytest.mark.parametrize("top_n", ["0", "-3", "8"])
def test_recommend_top_n_outside_the_candidates_is_one_line_error(tmp_path, capsys, monkeypatch,
                                                                  top_n):
    # k=3 seeds of m=10 items leave 7 candidates; the flag is refused before
    # any question is asked (stdout stays empty)
    argv = _small_recommend_argv(tmp_path, tmp_path / "unused.txt")
    argv = argv[:argv.index("--feedback")] + ["--top-n", top_n]
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\n0\n1\n"))
    err = _one_line_error(capsys, argv)
    assert err == f"error: --top-n must be within 1..7, the candidate count, got {top_n}\n"


def test_recommend_top_n_may_rank_every_candidate(tmp_path, capsys):
    feedback = tmp_path / "fb.txt"
    feedback.write_text("1 0 1\n")
    capsys.readouterr()
    assert cli.main(_small_recommend_argv(tmp_path, feedback) + ["--top-n", "7"]) == 0
    printed = capsys.readouterr().out.split()
    assert sorted(printed) == sorted(f"i{i}" for i in range(10) if i not in (2, 4, 8))


@pytest.mark.parametrize("fault", ["truncated", "nan", "seed_out_of_range", "k_zero"])
def test_recommend_corrupt_checkpoint_is_one_line_error(tmp_path, capsys, fault):
    # the checkpoint is refused before any question: with k_zero (k = 0 and
    # d = 0) none would be asked, and a ranking printed
    checkpoint = str(tmp_path / "checkpoint.dre")
    write_small_checkpoint(checkpoint)
    corrupt_checkpoint(checkpoint, fault)  # m=10, as the item map
    items_map = tmp_path / "items.map"
    items_map.write_text("".join(f"i{i}\t{i}\n" for i in range(10)))
    _one_line_error(capsys, ["recommend", "--checkpoint", checkpoint,
                             "--items-map", str(items_map), "--top-n", "4"])


def test_recommend_corrupt_item_map_is_one_line_error(prepared, tmp_path, capsys):
    checkpoint = str(tmp_path / "checkpoint.dre")
    write_small_checkpoint(checkpoint)  # m=10
    items_map = tmp_path / "items.map"
    items_map.write_text("".join(f"i{i}\t{i}\n" for i in range(10)) + "foo\t99999\n")
    feedback = tmp_path / "fb.txt"
    feedback.write_text("1 0 1\n")
    err = _one_line_error(capsys, ["recommend", "--checkpoint", checkpoint,
                                   "--items-map", str(items_map),
                                   "--feedback", str(feedback), "--top-n", "4"])
    assert "items.map:11:" in err


def test_recommend_item_map_out_of_index_order_is_one_line_error(prepared, tmp_path, capsys):
    checkpoint = str(tmp_path / "checkpoint.dre")
    write_small_checkpoint(checkpoint)  # m=10
    items_map = tmp_path / "items.map"
    items_map.write_text("".join(f"i{i}\t{i}\n" for i in (1, 0, *range(2, 10))))
    feedback = tmp_path / "fb.txt"
    feedback.write_text("1 0 1\n")
    err = _one_line_error(capsys, ["recommend", "--checkpoint", checkpoint,
                                   "--items-map", str(items_map),
                                   "--feedback", str(feedback), "--top-n", "4"])
    assert "items.map:1:" in err and "index order" in err


@pytest.mark.parametrize("name, raw, line", [
    ("run.cfg", b"d=16\r\nk=\xff\n", 2),
    ("run.cfg", b"d=16\rseed=3\r\xff", 3),
    ("feedback.txt", b"1 0\r\n\xff\n", 2),
    ("eval_report.json", b"{\n\"methods\": [\xff]}\n", 2),
], ids=["config_crlf", "config_lone_cr", "feedback", "report"])
def test_invalid_utf8_is_one_line_error_naming_file_and_line(prepared, trained, tmp_path,
                                                             capsys, name, raw, line):
    # these files may be written by hand, so \r\n and a lone \r end lines too
    path = tmp_path / name
    path.write_bytes(raw)
    argv = {
        "run.cfg": ["train", "--data-dir", prepared, "--out", str(tmp_path / "out"),
                    "--config", str(path)],
        "feedback.txt": ["recommend", "--checkpoint", str(trained / "checkpoint.dre"),
                         "--items-map", os.path.join(prepared, "items.map"),
                         "--feedback", str(path), "--top-n", "4"],
        "eval_report.json": ["report", "--dump", str(path)],
    }[name]
    err = _one_line_error(capsys, argv)
    assert f"{path}:{line}: invalid utf-8 byte 0xff" in err


def test_config_lines_end_as_in_text_mode(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"k=7\r\nseed=2\rd=5")
    cfg = cli.load_config(str(path), {})
    assert (cfg["k"], cfg["seed"], cfg["d"]) == (7, 2, 5)


def _run(argv):
    """cli.main(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def mutated(draw, raw):
    """The bytes raw of a text file after one to three mutations: a cut at a
    byte, a flipped byte, a dropped, duplicated or swapped line, or an
    inserted \\r or 0xFF byte."""
    raw = bytearray(raw)
    for kind in draw(st.lists(st.sampled_from(
            ["cut", "flip", "drop", "duplicate", "swap", "cr", "ff"]), min_size=1, max_size=3)):
        if kind in ("cr", "ff"):
            raw[draw(st.integers(0, len(raw))):0] = b"\r" if kind == "cr" else b"\xff"
        else:
            raw = mutate(draw, raw, kind)
    return bytes(raw)


# the item tokens of a save_maps file for the m=10 items of write_small_checkpoint
FUZZ_ITEMS = ["i0", "i\t1", "\u00fc2", "item 3", "4", "i5", "#6", "i=7", "i8", "i9"]


def _saved_items_map(tmp_path_factory):
    """The path and bytes of the items.map save_maps writes for FUZZ_ITEMS."""
    root = tmp_path_factory.getbasetemp()
    matrix = matrix_from_rows([np.arange(10)], 10, {"u": 0},
                              {token: i for i, token in enumerate(FUZZ_ITEMS)})
    data.save_maps(matrix, root / "fuzz-users.map", root / "fuzz-items.map")
    return root / "fuzz-items.map", (root / "fuzz-items.map").read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
@example(None)
def test_recommend_with_a_mutated_item_map_ranks_or_is_one_line_error(tmp_path_factory, draw):
    path, written = _saved_items_map(tmp_path_factory)
    # the example: the file with \r\n line ends, which save_maps never writes
    raw = written.replace(b"\n", b"\r\n") if draw is None else draw.draw(mutated(written))
    path.write_bytes(raw)
    checkpoint, feedback = path.parent / "fuzz.dre", path.parent / "fuzz-feedback.txt"
    write_small_checkpoint(str(checkpoint))  # k=3, m=10
    feedback.write_text("1 0 1\n")
    code, out, err = _run(["recommend", "--checkpoint", str(checkpoint), "--items-map",
                           str(path), "--feedback", str(feedback), "--top-n", "4"])
    try:
        tokens = data.load_item_map(path, 10)
    except data.DataError:
        event("DataError")
        _check_one_line_error(code, out, err)
        assert str(path) in err
    else:
        # what loads is what save_maps writes for those tokens, up to the
        # last line end, and recommend prints 4 of them
        event("loaded")
        rewritten = "".join(f"{token}\t{i}\n" for i, token in enumerate(tokens))
        assert rewritten.encode() in (raw, raw + b"\n")
        assert code == 0 and err == ""
        printed = out.split("\n")
        assert len(printed) == 5 and printed[-1] == "" and set(printed[:-1]) <= set(tokens)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
@example(None)
def test_eval_and_recommend_with_a_mutated_checkpoint_run_or_are_one_line_errors(
        prepared, trained, tmp_path_factory, draw):
    written = (trained / "checkpoint.dre").read_bytes()
    # the example: the last two seeds swapped, a file train could have written
    raw = (written[:-8] + written[-4:] + written[-8:-4] if draw is None
           else draw.draw(mutated(written)))
    root = tmp_path_factory.getbasetemp() / "fuzz-checkpoint"
    root.mkdir(exist_ok=True)
    checkpoint, feedback, out = root / "checkpoint.dre", root / "feedback.txt", root / "eval"
    checkpoint.write_bytes(raw)
    Path(str(checkpoint) + ".manifest").write_bytes(
        (trained / "checkpoint.dre.manifest").read_bytes())
    feedback.write_text("1 0 1\n")
    (out / "eval_report.json").unlink(missing_ok=True)
    items_map = os.path.join(prepared, "items.map")
    runs = [_run(["eval", "--data-dir", prepared, "--out", str(out), "--methods", "DRE",
                  "--runs", "1", "--checkpoint", str(checkpoint)] + EVAL_FLAGS),
            _run(["recommend", "--checkpoint", str(checkpoint), "--items-map", items_map,
                  "--feedback", str(feedback), "--top-n", "4"])]
    # both commands run exactly when load_checkpoint admits the file; no
    # mutation here keeps the length its header implies with another k or m
    try:
        phi, theta, seeds = model.load_checkpoint(str(checkpoint))
    except data.DataError:
        event("refused")
        for code, stdout, err in runs:
            _check_one_line_error(code, stdout, err)
            assert str(checkpoint) in err
    else:
        event("ran")
        assert phi.shape == (3, 18)
        (code, stdout, err), (rec_code, rec_out, rec_err) = runs
        assert code == 0 and err == ""
        report = evaluate.EvalReport.from_json((out / "eval_report.json").read_text())
        assert report.methods == ["DRE"] and report.Ns == [5, 10]
        tokens = data.load_item_map(items_map, 18)
        ranking = model.recommend(theta, seeds, np.array([[1.0, 0.0, 1.0]]), 4)[0]
        assert rec_code == 0 and rec_err == ""
        assert rec_out == "".join(f"{tokens[item]}\n" for item in ranking)


# the manifest keys eval compares with its data and split
COMPARED = (b"test_frac", b"val_frac", b"split_seed", b"data_fingerprint")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
@example(None)
def test_eval_with_a_mutated_manifest_runs_or_is_one_line_error(prepared, trained,
                                                               tmp_path_factory, draw):
    written = (trained / "checkpoint.dre.manifest").read_bytes()
    # the example: the manifest with \r\n line ends, which train never writes
    raw = written.replace(b"\n", b"\r\n") if draw is None else draw.draw(mutated(written))
    root = tmp_path_factory.getbasetemp()
    checkpoint = root / "fuzz-manifest" / "checkpoint.dre"
    checkpoint.parent.mkdir(exist_ok=True)
    checkpoint.write_bytes((trained / "checkpoint.dre").read_bytes())
    Path(str(checkpoint) + ".manifest").write_bytes(raw)
    code, out, err = _run(["eval", "--data-dir", prepared, "--out", str(root / "fuzz-eval"),
                           "--methods", "DRE", "--runs", "1", "--checkpoint", str(checkpoint)]
                          + EVAL_FLAGS)
    # admitted exactly when the file is UTF-8 and each compared key's last
    # line (split at \n, as train writes them) is as train wrote it
    want, got = (dict(line.partition(b"=")[::2] for line in text.split(b"\n"))
                 for text in (written, raw))
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        admitted = False
    else:
        admitted = all(got.get(key) == want[key] for key in COMPARED)
    event("admitted" if admitted else "refused")
    if admitted:
        assert code == 0 and err == ""
    else:
        _check_one_line_error(code, out, err)
        assert str(checkpoint) in err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
@example(None)
def test_recommend_with_a_mutated_feedback_file_ranks_or_is_one_line_error(tmp_path_factory,
                                                                          draw):
    written = b"1 0\n1\n"
    # the example: \r\n line ends and a tab, which the file may hold
    raw = b"1\t0\r\n1\r\n" if draw is None else draw.draw(mutated(written))
    root = tmp_path_factory.getbasetemp()
    feedback = root / "fuzz-feedback.txt"
    feedback.write_bytes(raw)
    argv = _small_recommend_argv(root, feedback)
    code, out, err = _run(argv)
    # admitted exactly when the file is UTF-8 and holds 3 answers, each 0 or 1
    try:
        answers = raw.decode("utf-8").split()
    except UnicodeDecodeError:
        answers = None
    if answers is not None and len(answers) == 3 and set(answers) <= {"0", "1"}:
        event("ranked")
        theta, seeds = model.load_checkpoint(argv[2])[1:]
        ranking = model.recommend(theta, seeds, np.array([answers], dtype=float), 4)[0]
        assert code == 0 and err == ""
        assert out == "".join(f"i{item}\n" for item in ranking)
    else:
        event("refused")
        _check_one_line_error(code, out, err)
        assert str(feedback) in err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
@example(None)
def test_eval_with_mutated_external_seeds_runs_or_is_one_line_error(prepared, tmp_path_factory,
                                                                    draw):
    written = b"0\n6\n12\n"
    # the example: \r\n line ends, which save_seeds never writes
    raw = b"0\r\n6\r\n12\r\n" if draw is None else draw.draw(mutated(written))
    root = tmp_path_factory.getbasetemp()
    seeds, out = root / "fuzz-seeds.txt", root / "fuzz-ext-eval"
    seeds.write_bytes(raw)
    (out / "eval_report.json").unlink(missing_ok=True)
    code, stdout, err = _run(["eval", "--data-dir", prepared, "--out", str(out),
                              "--methods", "EXT", "--runs", "1",
                              "--external-seeds", f"EXT={seeds}"] + EVAL_FLAGS)
    # admitted exactly when the file is UTF-8 and its lines (split at \n) are
    # distinct item indices below m=18 as save_seeds writes them
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = None
    if lines and lines[-1] == "":
        lines.pop()
    if lines and len(set(lines)) == len(lines) and all(
            re.fullmatch("0|[1-9][0-9]?", line) and int(line) < 18 for line in lines):
        event("ran")
        assert code == 0 and err == ""
        report = evaluate.EvalReport.from_json((out / "eval_report.json").read_text())
        assert report.methods == ["EXT"] and report.Ns == [5, 10]
    else:
        event("refused")
        _check_one_line_error(code, stdout, err)
        # the file and the line at fault; an empty file has no line
        assert re.match(rf"error: {re.escape(str(seeds))}:(\d+:)? ", err)
        assert (raw == b"") == (f"{seeds}: need at least one seed index" in err)


def _dumped_report():
    """The eval_report.json text of DRE and two baselines over 2 runs at
    N = 5 and 10, DRE t-tested against both."""
    rng = np.random.Generator(np.random.PCG64(8))
    runs = {meth: [{"users": list(range(6)), "skipped": 0,
                    **{metric: {N: rng.integers(0, N + 1, 6) / N for N in (5, 10)}
                       for metric in evaluate.METRICS}} for _ in range(2)]
            for meth in ("DRE", "MOSTPOP", "RAN++")}
    pairings = [("DRE", "MOSTPOP"), ("DRE", "RAN++")]
    return evaluate.aggregate_runs(runs, pairings, [11, 12]).to_json().encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
@example(None)
def test_report_of_a_mutated_dump_renders_or_is_one_line_error(tmp_path_factory, draw):
    written = _dumped_report()
    # the example: the dump with \r\n line ends, which eval never writes
    raw = written.replace(b"\n", b"\r\n") if draw is None else draw.draw(mutated(written))
    dump = tmp_path_factory.getbasetemp() / "fuzz-report.json"
    dump.write_bytes(raw)
    code, out, err = _run(["report", "--dump", str(dump)])
    if code == 0:
        # the table of the methods, Ns and means that the file holds
        event("rendered")
        report = json.loads(raw.decode("utf-8"))
        methods, lines = report["methods"], out.split("\n")
        assert err == "" and lines[-1] == ""
        assert lines[0] == "\t".join(["metric", "N", *methods, "best_baseline", "improv", "sig"])
        assert [line.split("\t")[:2 + len(methods)] for line in lines[1:-1]] == [
            [metric, str(N), *(f"{report['cells'][f'{meth}|{metric}|{N}']['mean']:.4f}"
                               for meth in methods)]
            for metric in evaluate.METRICS for N in report["Ns"]]
    else:
        event("refused")
        _check_one_line_error(code, out, err)
        assert str(dump) in err


# the edge values a fuzzed config key is given, as text: 0, -1, nan, inf, an
# empty value, a repeated N, non-ASCII digits (Arabic-Indic and full-width
# 3), a value beyond the largest float, and a few in range. None is large, so the
# resource keys (k, d, epochs, batch_size, runs) draw from them all, and
# none is above 3, so the threshold and min_count keep the fixture's users
# (each has 5 positives, all rated 5).
CONFIG_EDGES = ["0", "-1", "nan", "inf", "-inf", "", "5,5", "2,1", "\u0663", "\uff13",
                "1e400", "1e-9", "0.5", "1", "2", " 3"]
# every config key but the paths, which would make files where the values
# name them, and the delimiter, a drawn one of which is no range fault but
# splits no line of the log (a file:line error)
FUZZ_KEYS = sorted(set(cli.CONFIG_DEFAULTS) - {"dataset", "delimiter", "out"})
# small budgets, which the drawn keys override
FUZZ_BASE = {"k": "3", "d": "8", "epochs": "4", "batch_size": "32", "retrain_epochs": "2",
             "val_every": "2", "runs": "1", "Ns": "5,10"}
FUZZ_OUTPUT = {"prepare": "matrix.snapshot", "train": "checkpoint.dre",
               "eval": "eval_report.json", "grid": "sweep.tsv"}
# {subcommand: the config keys it has a flag for}
FUZZ_FLAGS = {name: {action.dest for action in parser._actions
                     if action.dest in cli.CONFIG_DEFAULTS}
              for name, parser in _subcommands().items()}


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.data())
def test_config_edge_values_run_or_are_one_line_errors_naming_the_key(raw_dataset, prepared,
                                                                       tmp_path_factory, draw):
    command = draw.draw(st.sampled_from(sorted(FUZZ_OUTPUT)))
    keys = draw.draw(st.permutations(FUZZ_KEYS))[:draw.draw(st.integers(1, 3))]
    # an edge value, or half the time the key's value in range, so that
    # runs with one bad key among good ones, and runs that end well, are common
    values = {key: draw.draw(st.sampled_from(CONFIG_EDGES) | st.just(
        FUZZ_BASE.get(key, str(cli.CONFIG_DEFAULTS[key])))) for key in keys}
    flags, lines = [], dict(FUZZ_BASE)
    for key, value in values.items():
        try:  # a flag's value that does not parse is argparse's usage error
            cli.config_value(key, value)
            as_flag = key in FUZZ_FLAGS[command] and draw.draw(st.booleans())
        except ValueError:
            as_flag = False
        if as_flag:
            flags.append(f"--{key.lower().replace('_', '-')}={value}")
            lines.pop(key, None)
        else:
            lines[key] = value
    root = tmp_path_factory.getbasetemp()
    config, out = root / "fuzz.cfg", root / "fuzz-config-out"
    config.write_text("".join(f"{key}={value}\n" for key, value in lines.items()),
                      encoding="utf-8")
    (out / FUZZ_OUTPUT[command]).unlink(missing_ok=True)
    argv = {"prepare": ["--dataset", raw_dataset],
            "train": ["--data-dir", prepared],
            "eval": ["--data-dir", prepared, "--methods", "DRE,MOSTPOP"],
            "grid": ["--data-dir", prepared, "--grid", "t0=2,5"]}[command]
    code, stdout, err = _run([command, "--config", str(config), "--out", str(out)]
                             + argv + flags)
    if code == 0:
        event("ran")
        assert err == "" and (out / FUZZ_OUTPUT[command]).exists()
    else:
        event("refused")
        _check_one_line_error(code, stdout, err)
        reason = err.replace(str(config), "")
        assert any(re.search(rf"\b{key}\b", reason) for key in keys), (values, err)


def test_stream_seed_distinct():
    seeds = {cli.stream_seed(0, meth, run)
             for meth in cli.METHODS for run in range(5)}
    assert len(seeds) == len(cli.METHODS) * 5


def test_significance_stars_boundaries():
    assert cli.significance_stars(0.005) == "***"
    assert cli.significance_stars(0.01) == "**"
    assert cli.significance_stars(0.05) == "*"
    assert cli.significance_stars(0.051) == ""


def test_render_report_improvement():
    rep = evaluate.EvalReport(methods=["BASE", "DRE"], Ns=[10], run_seeds=[0])
    for metric in ("P", "NDCG"):
        rep.cells[("DRE", metric, 10)] = {"mean": 0.5396, "std": 0.0, "runs": [0.5396]}
        rep.cells[("BASE", metric, 10)] = {"mean": 0.5063, "std": 0.0, "runs": [0.5063]}
        rep.tests[("DRE", "BASE", metric, 10)] = {"per_run": [[3.0, 0.001]],
                                                  "pooled": [3.0, 0.001]}
    text = cli.render_report(rep)
    row = text.splitlines()[1].split("\t")
    assert row[-2] == "6.58%" and row[-1] == "***"


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nk = 7\n  lr=0.01 \nt0=20\ndelimiter=\t\n")
    cfg = cli.load_config(str(path), {"lr": 0.5, "epochs": None})
    assert cfg["k"] == 7 and cfg["lr"] == 0.5 and cfg["t0"] == 20.0
    assert cfg["delimiter"] == "\t"
    assert cfg["epochs"] == 400
    path.write_text("mystery=1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.load_config(str(path), {})


def test_config_file_tab_delimiter_prepares_as_the_flag_does(raw_dataset, tmp_path):
    log = tmp_path / "ratings.tsv"
    log.write_text(Path(raw_dataset).read_text().replace("::", "\t"))
    config = tmp_path / "prepare.cfg"
    config.write_text("delimiter=\t\nmin_count = 3\n")
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert cli.main(["prepare", "--dataset", str(log), "--delimiter", "\t", "--min-count", "3",
                     "--out", str(by_flag)]) == 0
    assert cli.main(["prepare", "--dataset", str(log), "--config", str(config),
                     "--out", str(by_file)]) == 0
    for name in ("matrix.snapshot", "users.map", "items.map"):
        assert (by_file / name).read_bytes() == (by_flag / name).read_bytes(), name
