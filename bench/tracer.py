"""In-memory spans around the public functions of the locosparse modules.

A `Tracer` keeps one aggregate per span name (`<module>.<function>`):
the call count, total and self time, and any counters the hooks below
derive from a call's arguments and result. Self time is a span's
duration minus the time its child spans cover. Spans of one process
nest on a single thread, so the covered time is the sum of the direct
children's durations.

`instrument` swaps every public module-level function of the package
for a traced wrapper, and then rebinds every name that refers to an
original function in any locosparse module. That second step is what
reaches the `from .x import f` bindings (cli.py and trainer.py hold
most of them); without it those call sites would bypass the wrapper
and their spans would silently read zero.
"""

import functools
import importlib
import inspect
import os
import time

MODULES = ("tensor", "rng", "manifest", "simplex", "penalties", "encoder",
           "graphs", "spectral", "patches", "trainer", "rfeval", "gabor",
           "render", "cli")

_BYTES_PER_FLOAT = 8


class Tracer:
    """Aggregated span statistics for one process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []  # [name, start, time covered by children]
        self.spans = {}

    def enter(self, name):
        self._stack.append([name, self._clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        duration = self._clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        agg = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += duration - covered

    def count(self, name, counters):
        """Add counters to a span: `*_max` keys keep the largest value."""
        _accumulate(self.spans[name], counters)


def _accumulate(agg, counters):
    for key, value in counters.items():
        if key.endswith("_max"):
            agg[key] = max(agg.get(key, 0), value)
        else:
            agg[key] = agg.get(key, 0) + value


def merge_spans(span_sets):
    """Combine per-process aggregates: sum counts and times, max `*_max`."""
    merged = {}
    for spans in span_sets:
        for name, agg in spans.items():
            _accumulate(merged.setdefault(name, {}), agg)
    return merged


def _columns(a):
    shape = getattr(a, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _pairwise_counters(args, kwargs, result):
    # scratch of the explicit-difference tensor: d x m x n float64
    A, Y = args[0], args[1]
    return {"scratch_bytes_max": A.shape[0] * A.shape[1] * _columns(Y) * _BYTES_PER_FLOAT}


def _knn_counters(args, kwargs, result):
    # scratch of the explicit-difference tensor: d x b x b float64
    d, b = args[0].shape
    return {"scratch_bytes_max": d * b * b * _BYTES_PER_FLOAT}


# Counters a span records beyond calls and time, computed from a call's
# arguments and result (never by re-running any work).
HOOKS = {
    "encoder.encode": lambda a, kw, r: {"columns": _columns(a[0])},
    "simplex.project_columns": lambda a, kw, r: {"columns": _columns(a[0])},
    "simplex.pairwise_sq_distances": _pairwise_counters,
    "trainer.dictionary_step": lambda a, kw, r: {"redrawn": len(r[1])},
    "manifest.digest_file": lambda a, kw, r: {"bytes": _file_bytes(a[0])},
    "graphs.knn_adjacency": _knn_counters,
    "spectral.symmetric_eigendecomposition":
        lambda a, kw, r: {"order_max": int(a[0].shape[0])},
    "rfeval.sta_receptive_fields":
        lambda a, kw, r: {"samples": int(a[2] if len(a) > 2 else kw["num_samples"])},
    "gabor.gabor_fit": lambda a, kw, r: {"converged": int(bool(r.converged))},
    "tensor.save_tensor": lambda a, kw, r: {"bytes": _file_bytes(a[1])},
    "render.render_grid_svg": lambda a, kw, r: {"tiles": _columns(a[0])},
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            tracer.count(name, hook(args, kwargs, result))
        return result

    return traced


def instrument(tracer):
    """Trace every public function of every locosparse module in MODULES."""
    modules = [importlib.import_module("locosparse")]
    modules += [importlib.import_module(f"locosparse.{short}") for short in MODULES]
    wrappers = {}
    for module in modules[1:]:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = _wrap(tracer, f"{short}.{attr}", obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)

