"""Spans around calls into the package's layers, kept in memory.

The traced run wraps every public function (``__all__``) of each layer
module on the module attributes that hold it, in every ``rotodyne``
module namespace, and removes the wrappers again after each task. Nothing
in the package is edited; the wrappers live only in the benchmark's
process. Each span records its function, start, end, the span that
called it and the task it belongs to. Spans are written out as TSV when
the run ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("kinematics", "cavity", "rates", "dynamics", "geophase", "scenarios", "svgplot", "cli")


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # code -> (layer, function)
        self.code = array("H")
        self.parent = array("l")
        self.task_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.task = -1
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rotodyne.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    self.names.append((layer, name))
                    wrappers[id(fn)] = (fn, self._wrap(len(self.names) - 1, fn))
        self._patches = [
            (module, attr, *wrappers[id(value)])
            for mod_name, module in list(sys.modules.items())
            if mod_name == "rotodyne" or mod_name.startswith("rotodyne.")
            for attr, value in vars(module).items()
            if id(value) in wrappers
        ]

    def _wrap(self, code: int, fn):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.code)
            self.code.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.task_of.append(self.task)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, task: int) -> None:
        self.task = task
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\ttask\tlayer\tfunction\tstart_s\tduration_s\n")
            for i, code in enumerate(self.code):
                layer, name = self.names[code]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.task_of[i]}\t{layer}\t{name}\t"
                    f"{self.start[i]:.9f}\t{self.end[i] - self.start[i]:.9f}\n"
                )

    def aggregate(self):
        """Per layer: entries from another layer (calls), their inclusive
        time (busy) and time not covered by another layer's spans (self).
        Per function: calls and inclusive time, and per-task durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        layer = {}
        fn = defaultdict(lambda: [0, 0.0])
        by_task = defaultdict(dict)
        for i, code in enumerate(self.code):
            lay, name = self.names[code]
            entry = layer.setdefault(lay, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["self_s"] += dur[i] - covered[i]
            p = self.parent[i]
            if p < 0 or self.names[self.code[p]][0] != lay:
                entry["calls"] += 1
                entry["busy_s"] += dur[i]
            fn[name][0] += 1
            fn[name][1] += dur[i]
            by_task[self.task_of[i]][name] = by_task[self.task_of[i]].get(name, 0.0) + dur[i]
        return layer, fn, by_task


def loglog_slope(pairs) -> float:
    """Least-squares slope of log(time) against log(size); 0 when fewer
    than two distinct sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in pairs if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
