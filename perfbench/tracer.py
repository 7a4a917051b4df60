"""Traced run of the `elicit` CLI: wraps every function of the package's
modules (module attributes, including names one module imported from
another, and plain methods of its classes), runs `elicit.cli.main`
in-process, restores the originals and writes the spans to a `.npz` file.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.npz RUN_ID -- prepare --dataset ...

A span is (name, start, end, parent span); all spans of one run share
RUN_ID. Spans stay in memory until the run ends. Counts that only the
return values show (Maxvol swaps, users scored, distinct RBMF selections)
are recorded at the same call boundaries; a hook that cannot read a return
value is recorded per span name, and the benchmark fails the run on it.
"""

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "data", "linalg", "model", "baselines", "evaluate")


def _count_swaps(tracer, result):
    tracer.counts["linalg.maxvol_swaps"] += int(result.swaps)


def _count_users(tracer, result):
    tracer.counts["evaluate.users_scored"] += len(result["users"])


def _count_selection(tracer, result):
    tracer.selections.add(hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest())


# span name -> hook(tracer, return value)
HOOKS = {
    "linalg.maxvol": _count_swaps,
    "evaluate.evaluate_method": _count_users,
    "baselines.rbmf_select": _count_selection,
}


class Tracer:
    """Span recorder. install() swaps wrappers in, uninstall() puts the
    originals back."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []  # span name per wrapped function, indexed by span_name
        self.span_name, self.start, self.end, self.parent = [], [], [], []
        self.stack = [-1]
        self.counts = {"linalg.maxvol_swaps": 0, "evaluate.users_scored": 0}
        self.hook_errors = {}  # span name -> calls whose hook raised
        self.selections = set()
        self._restore = []

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.hook_errors[name] = self.hook_errors.get(name, 0) + 1
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"elicit.{layer}") for layer in LAYERS]
        wrappers = {}  # id(original) -> wrapper, so aliases share one span name

        def wrapper_for(fn):
            layer = fn.__module__.rpartition(".")[2]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__qualname__}")
            return wrappers[id(fn)]

        ours = {module.__name__ for module in modules}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ in ours:
                    self._swap(module, attr, wrapper_for(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not meth_name.startswith("__"):
                            self._swap(obj, meth_name, wrapper_for(meth))

    def _swap(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        counts = dict(self.counts, **{"baselines.rbmf_select_distinct": len(self.selections)})
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            meta=np.array(json.dumps({"run_id": self.run_id, "counts": counts,
                                      "hook_errors": self.hook_errors})),
        )


def load_spans(path):
    """(names per span, start, end, parent, meta) from a dump()ed file."""
    with np.load(path, allow_pickle=False) as z:
        return (z["names"][z["name"]], z["start"], z["end"], z["parent"],
                json.loads(str(z["meta"])))


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.npz RUN_ID -- <elicit arguments>")
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    from elicit import cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
