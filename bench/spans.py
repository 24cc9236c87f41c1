"""Spans around the library's public functions, recorded from outside it.

A :class:`Tracer` wraps every public function of the seven library modules,
both where the function is defined and wherever another module imported it
by name or keeps it in a module-level dict (``projection.MAP_MAKERS``), so
no call bypasses its span.  Spans stay in memory as flat typed arrays (name,
op id, parent span, start, end and one numeric attribute) and are turned
into numpy arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "baryreduce"
MODULES = ("core", "transport", "barycenter", "projection", "coreset",
           "instances", "cli")
#: the span the benchmark opens around each op; every library span nests in one
ROOT = "bench.op"


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Calls
    are single-threaded, so children never overlap and the difference is the
    time the span spent in its own code.
    """
    has = parents >= 0
    child = np.bincount(parents[has], weights=durations[has],
                        minlength=len(durations))
    return durations - child


class Tracer:
    """Records one span per traced call while an op is active.

    ``hooks`` maps a span name (``"transport.solve_ot"``) to a callable
    ``hook(tracer, index, args, kwargs, result)`` run inside the span after
    the wrapped call returns; hooks set ``attrs[index]`` or fill
    ``facts`` with counts the span itself does not carry.
    """

    def __init__(self):
        self.hooks: dict = {}
        self.names = [ROOT]
        self._name_index = {ROOT: 0}
        self.open_counts = [0]
        self.name_ids = array("i")
        self.ops = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.attrs = array("d")
        self.facts: dict = {}
        self.stack: list[int] = []
        self.op = -1
        self._patched: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self.open_counts.append(0)
        return self._name_index[name]

    def within(self, name_id: int) -> bool:
        """True when a span of this name is open around the current call."""
        return self.open_counts[name_id] > 0

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as op ``op_id`` under a root span; return its result
        and the root span's duration."""
        index = len(self.starts)
        self.op = op_id
        try:
            result = self._wrap(ROOT, fn)()
        finally:
            self.op = -1
        return result, self.ends[index] - self.starts[index]

    def _wrap(self, name: str, fn):
        """``fn``, recording one span per call while an op is active.  The
        recording is inlined because it runs once per library call."""
        nid = self.name_id(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter
        stack, counts, starts, ends = self.stack, self.open_counts, self.starts, self.ends
        add_name, add_op, add_parent = (self.name_ids.append, self.ops.append,
                                        self.parents.append)
        add_attr, add_end, add_start = self.attrs.append, ends.append, starts.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op < 0:
                return fn(*args, **kwargs)
            index = len(starts)
            add_name(nid)
            add_op(op)
            add_parent(stack[-1] if stack else -1)
            add_attr(0.0)
            add_end(0.0)
            stack.append(index)
            counts[nid] += 1
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, index, args, kwargs, result)
                return result
            finally:
                ends[index] = clock()
                counts[nid] -= 1
                stack.pop()

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every public library function by its traced wrapper."""
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))

        def swap(mapping, key, obj):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                mapping[key] = hit[1]
                self._patched.append((mapping, key, obj))

        for ns in [package, *modules]:
            namespace = vars(ns)
            for attr, obj in list(namespace.items()):
                swap(namespace, attr, obj)
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        swap(obj, key, val)

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self._patched):
            mapping[key] = original
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (zero-copy views)."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32),
            "op": np.frombuffer(self.ops, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "attr": np.frombuffer(self.attrs, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
