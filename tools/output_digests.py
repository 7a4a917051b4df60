"""SHA-256 digests of every file a small `elicit` pipeline writes: the
`perfbench/corpus.py` TINY log (seed 7), then `prepare`, `train`, `eval
--checkpoint` of all six methods over 2 runs, one `eval` run that trains DRE
itself (`eval-train/`), one of MOSTPOP and POP++ alone, where MOSTPOP ranks
every item (`eval-mostpop/`), one of RAN++ alone with d = 2000 and every
training user in one minibatch (`grouped.cfg`), whose decoder steps decode
each distinct answer row once (`eval-grouped/`; every other decoder-only
step decodes all of its rows), and a 2-cell `grid`, each with small
budgets, and the stdout of `recommend --feedback` with the trained
checkpoint (`recommend.txt`) and of `report --dump` with the eval report
(`report.tsv`). A copy of the log whose user tokens are 12 bytes and item
tokens 20 bytes long, past the one and two 8-byte words of a short key, is
prepared too, into `prepared-long/`, and so is a copy with a header line and
\r\n line ends, at threshold 4.5, into `prepared-t45/`. The log is prepared
once more with its delimiter, threshold and minimum count read from a
`--config` file (`prepare.cfg`), into `prepared-config/`. Last, the
ML-1M-shaped seed-7 log of `perfbench/corpus.py` (`ratings-ml1m.dat`) is
prepared and trained for 1 epoch and 1 retraining epoch at the default k
and d (`prepared-ml1m/`, `train-ml1m/`, about 2 s on 2 cores): products
large enough for a multi-threaded BLAS to split, and for the lanes to,
so the lines show whether the outputs depend on the BLAS thread count.

    PYTHONPATH=src python tools/output_digests.py OUT

Prints `sha256  path` per file, paths relative to OUT and sorted; the
other commands' own output goes to stderr. Two source trees whose lines match
write the same bytes here: run it once with each tree's `src` on
PYTHONPATH and compare the lines (`diff`).
"""

import contextlib
import hashlib
import os
import sys

from elicit import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import corpus  # noqa: E402

CONFIG = "d=16\nbatch_size=32\nretrain_epochs=2\nval_every=2\nseed=3\n"
PREPARE_CONFIG = "delimiter = ::\nthreshold = 2.5\nmin_count = 25\n"
# 173 rows x 5 x 2000 multiply-adds in the smaller decoder product, over
# model.SMALL_GEMM_WORK; k = 5 answers give at most 32 distinct rows
GROUPED_CONFIG = "d=2000\nbatch_size=256\nseed=3\n"
SMALL = ["--k", "5", "--epochs", "8"]
FEEDBACK = "1 0 0 1 1\n"  # an answer per seed of the k=5 checkpoint
# the commands whose stdout is written to a file under OUT, by name
STDOUT_FILES = {"recommend": "recommend.txt", "report": "report.tsv"}


def commands(out):
    """The pipeline's elicit argument lists, in order."""
    prepared, cfg = os.path.join(out, "prepared"), os.path.join(out, "run.cfg")
    common = ["--data-dir", prepared, "--config", cfg] + SMALL
    return [
        ["prepare", "--dataset", os.path.join(out, "ratings.dat"), "--out", prepared],
        ["prepare", "--dataset", os.path.join(out, "ratings-long.dat"),
         "--out", os.path.join(out, "prepared-long")],
        ["prepare", "--dataset", os.path.join(out, "ratings-crlf.dat"), "--threshold", "4.5",
         "--out", os.path.join(out, "prepared-t45")],
        ["prepare", "--dataset", os.path.join(out, "ratings.dat"),
         "--config", os.path.join(out, "prepare.cfg"),
         "--out", os.path.join(out, "prepared-config")],
        ["train", "--out", os.path.join(out, "train")] + common,
        ["eval", "--out", os.path.join(out, "eval"), "--runs", "2", "--ns", "5,10",
         "--checkpoint", os.path.join(out, "train", "checkpoint.dre")] + common,
        ["eval", "--out", os.path.join(out, "eval-train"), "--runs", "1", "--ns", "5,10"]
        + common,
        ["eval", "--out", os.path.join(out, "eval-mostpop"), "--runs", "1", "--ns", "5,10",
         "--methods", "MOSTPOP,POP++"] + common,
        ["eval", "--out", os.path.join(out, "eval-grouped"), "--runs", "1", "--ns", "5,10",
         "--methods", "RAN++", "--data-dir", prepared,
         "--config", os.path.join(out, "grouped.cfg")] + SMALL,
        ["grid", "--out", os.path.join(out, "grid"), "--grid", "t0=1,5"] + common,
        ["recommend", "--checkpoint", os.path.join(out, "train", "checkpoint.dre"),
         "--items-map", os.path.join(prepared, "items.map"),
         "--feedback", os.path.join(out, "feedback.txt")],
        ["report", "--dump", os.path.join(out, "eval", "eval_report.json")],
        ["prepare", "--dataset", os.path.join(out, "ratings-ml1m.dat"),
         "--out", os.path.join(out, "prepared-ml1m")],
        ["train", "--data-dir", os.path.join(out, "prepared-ml1m"),
         "--out", os.path.join(out, "train-ml1m"), "--epochs", "1", "--retrain-epochs", "1"],
    ]


def long_tokens(log):
    """The log with each user token zero-padded to 12 bytes and each item
    token to 20, behind a prefix."""
    lines = []
    for line in log.splitlines(keepends=True):
        user, item, rest = line.split("::", 2)
        lines.append(f"user{user:>08}::item{item:>016}::{rest}")
    return "".join(lines)


def digests(out):
    """(sha256, path relative to out) of every file under out, sorted by path."""
    found = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found.append((hashlib.sha256(fh.read()).hexdigest(), os.path.relpath(path, out)))
    return sorted(found, key=lambda entry: entry[1])


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: output_digests.py OUT")
    out = argv[0]
    os.makedirs(out, exist_ok=True)
    log = corpus.generate(corpus.TINY, 7)[0]
    crlf = "user::item::rating::ts\r\n" + log.replace("\n", "\r\n")
    for name, text in (("ratings.dat", log), ("ratings-long.dat", long_tokens(log)),
                       ("ratings-crlf.dat", crlf), ("run.cfg", CONFIG),
                       ("prepare.cfg", PREPARE_CONFIG), ("grouped.cfg", GROUPED_CONFIG),
                       ("feedback.txt", FEEDBACK),
                       ("ratings-ml1m.dat", corpus.generate(corpus.ML1M, 7)[0])):
        # newline="": the text's line ends are written as they are
        with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    for args in commands(out):
        name = STDOUT_FILES.get(args[0])
        with (open(os.path.join(out, name), "w", encoding="utf-8") if name
              else contextlib.nullcontext(sys.stderr)) as sink, contextlib.redirect_stdout(sink):
            code = cli.main(args)
        if code != 0:
            sys.exit(f"elicit {args[0]} exited {code}")
    for digest, path in digests(out):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
