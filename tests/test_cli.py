import os
from pathlib import Path

import numpy as np
import pytest

from elicit import baselines, cli, data, evaluate
from conftest import corrupt_checkpoint, write_raw_file, write_small_checkpoint


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


def test_prepare_outputs(prepared, capsys):
    assert os.path.exists(os.path.join(prepared, "matrix.snapshot"))
    matrix = cli._load_dataset(prepared)
    assert matrix.n == 60 and matrix.m == 18


def test_prepare_deterministic(raw_dataset, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert cli.main(["prepare", "--dataset", raw_dataset,
                         "--min-count", "3", "--out", out]) == 0
    s1 = Path(out1, "matrix.snapshot").read_bytes()
    s2 = Path(out2, "matrix.snapshot").read_bytes()
    assert s1 == s2


def test_prepare_missing_file(tmp_path):
    assert cli.main(["prepare", "--dataset", str(tmp_path / "nope.dat"),
                     "--out", str(tmp_path)]) == 1


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
    manifest = Path(out, "checkpoint.dre.manifest").read_text()
    assert "data_fingerprint=" in manifest


def test_train_byte_identical_checkpoints(prepared, tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert cli.main(["train", "--data-dir", prepared, "--out", out,
                         "--seed", "3"] + FAST_TRAIN) == 0
        blobs.append(Path(out, "checkpoint.dre").read_bytes())
    assert blobs[0] == blobs[1]


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


def test_eval_fingerprint_mismatch(prepared, raw_dataset, tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["train", "--data-dir", prepared, "--out", out,
                     "--seed", "3"] + FAST_TRAIN) == 0
    other = str(tmp_path / "other")
    assert cli.main(["prepare", "--dataset", raw_dataset, "--min-count", "4",
                     "--threshold", "1.0", "--out", other]) == 0
    with pytest.raises(SystemExit, match="fingerprint"):
        cli.main(["eval", "--data-dir", other, "--out", str(tmp_path / "e"),
                  "--methods", "DRE", "--runs", "1",
                  "--checkpoint", os.path.join(out, "checkpoint.dre")] + EVAL_FLAGS)


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


def _one_line_error(capsys, argv):
    capsys.readouterr()
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize("seeds", ["0\n6\n18\n", "0\n-1\n12\n"], ids=["ge_m", "negative"])
def test_eval_external_seeds_out_of_range(prepared, tmp_path, capsys, seeds):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text(seeds)
    argv = ["eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
            "--methods", "EXT", "--runs", "1",
            "--external-seeds", f"EXT={seeds_path}"] + EVAL_FLAGS
    with pytest.raises(data.DataError, match=r"\[0, 18\)"):
        cli.cmd_eval(cli.build_parser().parse_args(argv))
    _one_line_error(capsys, argv)


def test_eval_external_seeds_must_be_a_method(prepared, tmp_path, capsys):
    seeds_path = tmp_path / "ext.txt"
    seeds_path.write_text("0\n6\n12\n")
    err = _one_line_error(capsys, [
        "eval", "--data-dir", prepared, "--out", str(tmp_path / "eval"),
        "--methods", "MOSTPOP", "--runs", "1", "--external-seeds", f"X={seeds_path}"]
        + EVAL_FLAGS)
    assert "X" in err and "--methods" in err
    assert not (tmp_path / "eval").exists()


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


def test_parse_grid_errors():
    with pytest.raises(ValueError):
        cli.parse_grid("bogus=1")
    with pytest.raises(ValueError):
        cli.parse_grid("")
    grid = cli.parse_grid("te=0.1,t0 lr=0.01")
    assert grid["te"] == [0.1, "t0"] and grid["lr"] == [0.01]


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
    with pytest.raises(SystemExit, match="exactly 3"):
        cli.main(["recommend", "--checkpoint", os.path.join(out, "checkpoint.dre"),
                  "--items-map", os.path.join(prepared, "items.map"),
                  "--feedback", feedback, "--top-n", "4"])


@pytest.mark.parametrize("fault", ["truncated", "nan", "seed_out_of_range"])
def test_recommend_corrupt_checkpoint_is_one_line_error(prepared, tmp_path, capsys, fault):
    checkpoint = str(tmp_path / "checkpoint.dre")
    write_small_checkpoint(checkpoint)
    corrupt_checkpoint(checkpoint, fault)
    feedback = str(tmp_path / "fb.txt")
    Path(feedback).write_text("1 0 1\n")
    _one_line_error(capsys, ["recommend", "--checkpoint", checkpoint,
                             "--items-map", os.path.join(prepared, "items.map"),
                             "--feedback", feedback, "--top-n", "4"])


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
    path.write_text("# comment\nk=7\nlr=0.01\nt0=20\n")
    cfg = cli.load_config(str(path), {"lr": 0.5, "epochs": None})
    assert cfg["k"] == 7 and cfg["lr"] == 0.5 and cfg["t0"] == 20.0
    assert cfg["epochs"] == 400
    path.write_text("mystery=1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.load_config(str(path))
