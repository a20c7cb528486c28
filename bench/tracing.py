"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper, under each name a caller looks it up by: ``fermion.binomial_ratio``
and ``boson.binomial_ratio`` are the names the species modules call, so
wrapping only ``combinatorics.binomial_ratio`` would miss every call. Each
function object gets one wrapper, named after the module that defines it, so
its spans and counts are shared by all of its callers.

A wrapper records a span (name, start, end, parent) in flat arrays while
``recording`` is true and calls straight through otherwise. Spans stay in
memory until ``write`` saves them; ``metrics`` derives each span's self time as
its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array
from types import ModuleType

import numpy as np

#: The package's layers; ``core`` holds only constants, types and level_energy.
LAYERS = ("combinatorics", "equilibrium", "fermion", "boson", "information", "phase", "oracle", "cli")

#: Inside combinatorics only log_binomial is wrapped: its calls under
#: binomial_ratio mark the log-gamma path. binomial_ratio's per-term binomial
#: calls stay unwrapped, so their time counts as binomial_ratio's self time.
OWN_NAMES_WRAPPED = {"combinatorics": {"log_binomial"}}

#: Functions whose distinct argument tuples are counted (wasted-work ratio).
DISTINCT = ("combinatorics.binomial_ratio", "oracle.box_partition")

#: Functions whose results are counted: metric name and size of one result.
RESULT_COUNTS = {"phase.work_grid": ("phase.work_grid.cells", lambda grid: int(grid.work.size))}


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._wrappers: dict[object, object] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.result_counts: dict[str, int] = {metric: 0 for metric, _ in RESULT_COUNTS.values()}
        self._item = self._wrap("bench.item", lambda fn, *args: fn(*args))

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap the layer functions in every layer module's namespace."""
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner not in LAYERS:
                    continue
                if owner == layer and layer in OWN_NAMES_WRAPPED and attr not in OWN_NAMES_WRAPPED[layer]:
                    continue
                setattr(module, attr, self._wrap(f"{owner}.{obj.__name__}", obj))

    def _wrap(self, name: str, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name_id = self._name_id(name)
        seen = self.distinct.get(name)
        counted = RESULT_COUNTS.get(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(_freeze(args) + _freeze(tuple(sorted(kwargs.items()))))
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counted is not None:
                tracer.result_counts[counted[0]] += counted[1](result)
            return result

        self._wrappers[fn] = traced
        return traced

    def item(self, fn, *args):
        """Run ``fn(*args)`` as a root ``bench.item`` span, recording only inside it."""
        self.recording = True
        try:
            return self._item(fn, *args)
        finally:
            self.recording = False

    def write(self, path: str) -> None:
        """Save the spans as tab-separated name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Calls, self seconds and derived ratios per wrapped function and layer."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (
            np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(self.span_start, dtype=np.int64)
        ).astype(np.float64)
        child = parents >= 0
        child_time = np.bincount(parents[child], weights=duration[child], minlength=len(names))
        self_time = duration - child_time
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        self_s = np.bincount(names, weights=self_time, minlength=count) * 1e-9

        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            layer = name.partition(".")[0]
            if layer in layer_self:
                layer_self[layer] += float(self_s[i])
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        for name, seen in self.distinct.items():
            total = out.get(f"{name}.calls", 0)
            out[f"{name}.distinct_ratio"] = len(seen) / total if total else 0.0
        out.update(self.result_counts)

        def child_parents(child_name: str, parent_name: str) -> np.ndarray:
            """Indices of ``parent_name`` spans with a direct ``child_name`` child."""
            if child_name not in self._ids or parent_name not in self._ids:
                return np.empty(0, dtype=np.int32)
            of_child = (names == self._ids[child_name]) & child
            hits = parents[of_child]
            return hits[names[hits] == self._ids[parent_name]]

        ratio_calls = out.get("combinatorics.binomial_ratio.calls", 0)
        log_path = np.unique(child_parents("combinatorics.log_binomial", "combinatorics.binomial_ratio"))
        out["combinatorics.log_path_share"] = log_path.size / ratio_calls if ratio_calls else 0.0
        equilibria = out.get("oracle.exact_equilibrium.calls", 0)
        evals = child_parents("oracle.split_partition", "oracle.exact_equilibrium").size
        out["oracle.objective_evals_per_equilibrium"] = evals / equilibria if equilibria else 0.0
        return out
