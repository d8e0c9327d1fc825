"""Per-layer tracing of the greedyopt package from outside it.

Each module of the package is a layer. The tracer wraps every public callable
of a layer at the names its callers look up:

- a function, in every package namespace that holds it, so that
  `greedyopt.algorithms.minimize_subspace` is wrapped where `run_greedy`
  finds it and `greedyopt.dictionaries.power_top_singular` where
  `certified_sup` finds it;
- a public method (plain, class or static) of a class, on the class that
  the layer defines, such as `Objective.value` or `*.certified_sup`.

Layers are found from each function's `__module__`, not from a list of
names, so a callable that a later version removes is simply not wrapped.

A call from one layer into another opens a span: (layer, start, end,
parent). Spans are kept in memory for the current run. A call inside its own
layer opens no span; it only feeds the probes below, which count work at the
layer boundaries (objective evaluations, power iterations, L-BFGS iterations,
free-relaxation sweeps). A layer's self time is the duration of its spans
minus the part their child spans cover, so the self times of one run add up
to the duration of its root span.
"""
from __future__ import annotations

import fnmatch
import importlib
import pkgutil
import types
from collections import Counter
from time import perf_counter

import numpy as np


def _objective_eval(counter):
    def probe(tracer, result, t0, t1):
        counts = tracer.counts
        counts[counter] += 1
        if tracer.active["inner_solvers"]:
            counts["inner_solvers.evals"] += 1
        if tracer.active["algorithms"]:
            counts["objectives.greedy_evals"] += 1

    return probe


def _certified_sup(tracer, result, t0, t1):
    tracer.counts["dictionaries.sup_calls"] += 1
    tracer.counts["dictionaries.sup_s"] += t1 - t0
    tracer.sup_starts.append(t0)


def _power_iteration(tracer, result, t0, t1):
    # (u, v, sigma, converged, iterations)
    if not (isinstance(result, tuple) and len(result) == 5):
        tracer.probe_errors["dictionaries.power_top_singular"] += 1
        return
    iterations = int(result[4])
    counts = tracer.counts
    counts["dictionaries.power_iters"] += iterations
    counts["dictionaries.power_iters_max"] = max(
        counts["dictionaries.power_iters_max"], iterations
    )
    if not result[3]:
        counts["dictionaries.unconverged"] += 1


def _inner_result(tracer, result, t0, t1):
    sweeps = getattr(result, "sweeps", None)
    if isinstance(sweeps, int):
        tracer.counts["inner_solvers.sweeps"] += sweeps


def _lbfgs(tracer, result, t0, t1):
    tracer.counts["inner_solvers.lbfgs_iters"] += int(getattr(result, "nit", 0))


def _timer(counter):
    def probe(tracer, result, t0, t1):
        tracer.counts[counter] += t1 - t0

    return probe


# "<layer>.<qualified name>" pattern -> probe
PROBES = {
    "objectives.Objective.value": _objective_eval("objectives.value_calls"),
    "objectives.Objective.gradient": _objective_eval("objectives.grad_calls"),
    "dictionaries.*.certified_sup": _certified_sup,
    "dictionaries.power_top_singular": _power_iteration,
    "experiment.collect_invariants": _timer("experiment.invariants_s"),
    "experiment.write_trace_csv": _timer("experiment.write_s"),
    "inner_solvers.*": _inner_result,
}

# Callables of other packages that a layer looks up under a private name:
# (layer, name in that layer's namespace) -> probe. Missing names are skipped.
FOREIGN_PROBES = {
    ("inner_solvers", "_scipy_minimize"): _lbfgs,
}


def _probe_for(layer: str, qualname: str):
    for pattern, probe in PROBES.items():
        if fnmatch.fnmatchcase(f"{layer}.{qualname}", pattern):
            return probe
    return None


def package_layers(package) -> dict:
    """Short name -> module, for every module of the package."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


class Tracer:
    """Wraps the package's public callables while installed, and records the
    spans and counts of one run at a time."""

    def __init__(self, package):
        self.layers = package_layers(package)
        self.spans: list = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # open spans per layer
        self.enters: Counter = Counter()  # spans opened per layer
        self.sup_starts: list = []
        self.probe_errors: Counter = Counter()
        self.layer = None  # layer of the innermost open span
        self.current = -1  # index of the innermost open span
        self.patches = self._discover()

    # -- discovery and patching ------------------------------------------

    def _discover(self) -> list:
        """(owner, attribute, original, replacement) for every wrapped name."""
        layer_of = {mod.__name__: short for short, mod in self.layers.items()}
        patches = []
        for short, mod in self.layers.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ in layer_of:
                    layer = layer_of[obj.__module__]
                    probe = _probe_for(layer, obj.__qualname__)
                    patches.append((mod, name, obj, self._wrap(obj, layer, probe)))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    patches.extend(self._discover_methods(obj, short))
            for (layer, name), probe in FOREIGN_PROBES.items():
                if layer == short and callable(getattr(mod, name, None)):
                    fn = getattr(mod, name)
                    patches.append((mod, name, fn, self._wrap(fn, layer, probe)))
        return patches

    def _discover_methods(self, cls, layer: str) -> list:
        patches = []
        fields = getattr(cls, "__dataclass_fields__", {})  # defaults, not methods
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or name in fields:
                continue
            if isinstance(attr, types.FunctionType):
                probe = _probe_for(layer, attr.__qualname__)
                patches.append((cls, name, attr, self._wrap(attr, layer, probe)))
            elif isinstance(attr, (classmethod, staticmethod)) and isinstance(
                attr.__func__, types.FunctionType
            ):
                fn = attr.__func__
                probe = _probe_for(layer, fn.__qualname__)
                wrapped = type(attr)(self._wrap(fn, layer, probe))
                patches.append((cls, name, attr, wrapped))
        return patches

    def install(self):
        for owner, name, _, replacement in self.patches:
            setattr(owner, name, replacement)

    def uninstall(self):
        for owner, name, original, _ in self.patches:
            setattr(owner, name, original)

    def wrapped_names(self) -> list:
        return sorted(
            f"{owner.__name__}:{name}"
            if isinstance(owner, types.ModuleType)
            else f"{owner.__module__}:{owner.__name__}.{name}"
            for owner, name, _, _ in self.patches
        )

    def _wrap(self, fn, layer: str, probe):
        tracer = self
        spans = self.spans
        active = self.active
        enters = self.enters

        def wrapper(*args, **kwargs):
            caller = tracer.layer
            if caller == layer:
                if probe is None:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                probe(tracer, result, t0, perf_counter())
                return result
            parent = tracer.current
            index = len(spans)
            t0 = perf_counter()
            span = [layer, t0, t0, parent]
            spans.append(span)
            tracer.layer = layer
            tracer.current = index
            active[layer] += 1
            enters[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span[2] = t1
                tracer.layer = caller
                tracer.current = parent
                active[layer] -= 1
            if probe is not None:
                probe(tracer, result, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__module__ = fn.__module__
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- one run ---------------------------------------------------------

    def begin_run(self):
        self.spans.clear()
        self.counts.clear()
        self.active.clear()
        self.enters.clear()
        self.sup_starts.clear()
        self.layer = None
        self.current = -1

    def add_probe_span(self, start: float, end: float):
        """Account for host-speed probing done inside the current span."""
        self.spans.append(["host", start, end, self.current])

    def end_run(self, wall_s: float, greedy_start, greedy_end) -> dict:
        """Per-layer figures of the run just finished.

        greedy_start/greedy_end bound the run_greedy call (None when the run
        failed before it); objective self time before greedy_start is set-up
        work, and certified_sup start times inside the call mark iteration
        boundaries.
        """
        spans = self.spans
        self_s = [end - start for _, start, end, _ in spans]
        for layer, start, end, parent in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        by_layer: Counter = Counter()
        factory_s = 0.0
        for (layer, start, _, _), own in zip(spans, self_s):
            by_layer[layer] += own
            if layer == "objectives" and (
                greedy_start is None or start < greedy_start
            ):
                factory_s += own
        counts = dict(self.counts)
        counts["objectives.factory_s"] = factory_s
        counts["inner_solvers.calls"] = self.enters["inner_solvers"]
        for layer in self.layers:
            counts[f"{layer}.self_s"] = by_layer[layer]
        counts["trace.coverage"] = sum(by_layer.values()) / wall_s
        if greedy_start is not None and greedy_end is not None:
            starts = [t for t in self.sup_starts if greedy_start <= t <= greedy_end]
            steps = np.diff(np.append(starts, greedy_end)) * 1e3
            if steps.size >= 20:
                counts["algorithms.iter_ms_first10"] = float(np.mean(steps[:10]))
                counts["algorithms.iter_ms_last10"] = float(np.mean(steps[-10:]))
        return counts

    def span_dump(self) -> list:
        """The current run's spans, times in microseconds from its first span."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [
            [layer, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent]
            for layer, start, end, parent in self.spans
        ]
