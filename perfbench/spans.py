"""Layer spans for the fjfade CLI, recorded from outside the package.

Run as a script, it wraps every public function and public method of the
fjfade layer modules, runs the CLI on the remaining arguments and saves the
spans to an .npz file:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.npz run CONFIG --out DIR

A span is attributed to the layer (module) that defines the function, and a
wrapper replaces the original in every fjfade module that holds the name, so
`from .bounds import upper_bound` inside experiment.py is traced as well.
`layer_split` turns a spans file into per-layer calls and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("config", "network", "schedules", "dynamics", "bounds", "deviation", "experiment", "cli")


def _spectral_iterations(result, counters):
    counters["network.spectral_iterations"] += result.iterations


def _graph_resamples(result, counters):
    counters["network.graph_resamples"] += result.resamples


def _agent_steps(result, counters):
    counters["dynamics.agent_steps"] += result.weighted.n * result.horizon


def _bytes_written(result, counters):
    counters["experiment.bytes_written"] += sum(Path(p).stat().st_size for p in result)


# Work counts read from the return value of a traced function.
COUNTS = {
    "network.compute_spectral": _spectral_iterations,
    "experiment.build_network": _graph_resamples,
    "dynamics.simulate": _agent_steps,
    "dynamics.simulate_until": _agent_steps,
    "experiment.write_outputs": _bytes_written,
}
COUNTER_NAMES = (
    "network.spectral_iterations", "network.graph_resamples",
    "dynamics.agent_steps", "experiment.bytes_written",
)


class Tracer:
    """In-memory span recorder: one row per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []      # qualified name per function id
        self.fid = array("i")
        self.parent = array("i")        # index of the enclosing span, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, fn, qualname: str, count=None):
        fid = len(self.names)
        self.names.append(qualname)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(result, counters)
            return result

        return traced

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path, names=np.array(self.names), fid=np.array(self.fid), parent=np.array(self.parent),
            start=np.array(self.start), end=np.array(self.end),
            counters=np.array(json.dumps(dict(self.counters))),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module."""
    layers = {layer: importlib.import_module(f"fjfade.{layer}") for layer in LAYERS}
    modules = [m for name, m in list(sys.modules.items())
               if name == "fjfade" or name.startswith("fjfade.")]
    replaced = {}
    for layer, mod in layers.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            qualname = f"{layer}.{name}"
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(obj, qualname, COUNTS.get(qualname))
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, attr, tracer.wrap(fn, f"{qualname}.{attr}"))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])


def self_times(parent, start, end):
    """Span duration minus the time covered by its direct child spans.

    Spans nest on one thread, so the children of a span are disjoint
    intervals inside it and their durations add up.
    """
    import numpy as np

    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(covered, parent[inner], dur[inner])
    return dur - covered


def layer_split(spans) -> dict:
    """Per-layer calls and self time, work counts, and the share of the root
    `cli` span that child layers cover."""
    import numpy as np

    names = [str(n) for n in spans["names"]]
    layer_of_fn = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)
    layer = layer_of_fn[spans["fid"]]
    self_s = self_times(spans["parent"], spans["start"], spans["end"])
    out = {}
    for k, name in enumerate(LAYERS):
        mine = layer == k
        out[f"{name}.calls"] = int(mine.sum())
        out[f"{name}.self_s"] = float(self_s[mine].sum())
    roots = np.asarray(spans["parent"]) < 0
    root_s = float((np.asarray(spans["end"]) - np.asarray(spans["start"]))[roots].sum())
    out["trace.coverage"] = 1.0 - out["cli.self_s"] / root_s if root_s > 0 else 0.0
    counters = json.loads(str(spans["counters"]))
    for name in COUNTER_NAMES:
        out[name] = counters.get(name, 0)
    by_fn = np.bincount(spans["fid"], weights=self_s, minlength=len(names))
    out["top_functions"] = sorted(
        ((names[i], float(by_fn[i])) for i in range(len(names)) if by_fn[i] > 0),
        key=lambda item: -item[1],
    )
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import fjfade.cli

    try:
        return fjfade.cli.main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
