"""Memory trace of one `elicit` command by phase: the process's resident set
(VmRSS) and its high-water mark (VmHWM), read from /proc/self/status on
entry to and exit from each phase the command runs.

    PYTHONPATH=src python tools/phase_rss.py -- train --data-dir DIR --out OUT ...

The command runs in-process through `elicit.cli.main`, with the functions of
PHASES wrapped, so it runs the code and reads the files it would run alone.
Each line gives the seconds since the command started, the event, the phase
(indented by its nesting) and both figures in MB. A phase that raises the
high-water mark between its entry and exit holds the peak. The last line
gives the command's `ru_maxrss` (getrusage of this process), the exact
high-water mark: Linux sums VmRSS and VmHWM from per-CPU counters it
updates only now and then, so they are good to about 0.2 MB, and VmHWM can
even read a little lower than it did before. Linux only.
"""

import functools
import importlib
import resource
import sys
import time

# (module of elicit, function): the main phases of prepare, train and eval
PHASES = (
    ("data", "load_interactions"), ("data", "filter_min_ratings"), ("data", "build_matrix"),
    ("data", "save_snapshot"),
    ("data", "load_snapshot"),
    ("model", "train"), ("model", "_validation_ndcg"), ("model", "retrain_decoder"),
    ("baselines", "rbmf_select"), ("baselines", "rbmf_decoder"),
    ("evaluate", "evaluate_method"), ("evaluate", "aggregate_runs"),
)


def memory_mb():
    """(VmRSS, VmHWM) of this process in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = dict(line.split()[:2] for line in fh if line.startswith(("VmRSS:", "VmHWM:")))
    return int(kb["VmRSS:"]) / 1024, int(kb["VmHWM:"]) / 1024


class PhaseTrace:
    def __init__(self, out=sys.stdout):
        self.out, self.depth, self.start = out, 0, time.perf_counter()

    def event(self, what, name):
        rss, hwm = memory_mb()
        self.out.write(f"{time.perf_counter() - self.start:8.3f} s  {what:5s}  "
                       f"{'  ' * self.depth + name:36s}  VmRSS {rss:7.1f} MB  "
                       f"VmHWM {hwm:7.1f} MB\n")
        self.out.flush()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.event("enter", name)
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                self.event("exit", name)
        return traced


def main(argv):
    if not argv or argv[0] != "--":
        sys.exit("usage: phase_rss.py -- <elicit arguments>")
    from elicit import cli

    trace = PhaseTrace()
    originals = []
    for module_name, attr in PHASES:
        module = importlib.import_module(f"elicit.{module_name}")
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, trace.wrap(getattr(module, attr), f"{module_name}.{attr}"))
    trace.event("start", "cli.main")
    try:
        code = cli.main(argv[1:])
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    trace.event("end", "cli.main")
    # ru_maxrss is in KiB on Linux
    print(f"ru_maxrss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
