"""Spans around every call into ruledsurf's public functions, recorded from outside.

The tracer wraps each public function of the six modules and rebinds the
wrapper in every module namespace that holds the original, because
bundles, cohomology, verify and cli import functions by name and patching
only the defining module would miss their calls.  A span is (name, start,
end, parent); spans live in flat arrays while a round runs and are reduced
to per-function and per-layer counts and self times afterwards.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from dataclasses import dataclass

LAYERS = ("geometry", "cohomology", "splitting", "bundles", "verify", "cli")


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # layer name -> module
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches = []

    def _name_index(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name):
        ids, parents, starts, ends, stack = (
            self.ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter
        fixed = self._name_index(name)
        # verify.run_suite spans are named after their suite, so that each
        # grid's throughput can be read off its own spans.
        by_suite = name == "verify.run_suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(ids)
            ids.append(self._name_index(f"{name}[{args[0]}]") if by_suite else fixed)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(me)
            starts[me] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[me] = clock()
                stack.pop()

        return traced

    def install(self):
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        for namespace in (self.package, *self.modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    self._patches.append((namespace, attr, value))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def take(self):
        """Hand over the spans recorded so far and start afresh."""
        spans = Spans(self.names, *(array(a.typecode, a) for a in
                                   (self.ids, self.parents, self.starts, self.ends)))
        for arr in (self.ids, self.parents, self.starts, self.ends):
            del arr[:]
        return spans


@dataclass
class Spans:
    names: list
    ids: array
    parents: array
    starts: array
    ends: array

    def summary(self):
        """Per span name: [calls, inclusive seconds, self seconds]."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * len(starts)
        for k, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[k] - starts[k]
        out: dict[str, list] = {}
        for k, idx in enumerate(self.ids):
            dur = ends[k] - starts[k]
            row = out.setdefault(self.names[idx], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[k]
        return out

    def write(self, path):
        """Write the spans as tab-separated lines, times relative to the first start."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for k, idx in enumerate(self.ids):
                fh.write(f"{k}\t{self.names[idx]}\t{self.starts[k] - origin:.9f}"
                         f"\t{self.ends[k] - origin:.9f}\t{self.parents[k]}\n")
