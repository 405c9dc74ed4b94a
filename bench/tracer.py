"""Spans around the public functions of ``dysonsym``, installed from outside.

``Tracer.install`` wraps every public function defined in the given modules
and rebinds each wrapped name in every module that holds it, so calls made
through ``from .x import name`` are seen too.  A span is (function, parent
span, start, end) plus the number of items the call returned; spans live in
flat arrays until ``dump`` writes them out.

Rules that keep the spans meaningful:

* a call to a function that already has an open span (recursion, as in
  ``partitions_of``) runs unwrapped inside that span;
* a generator function is drained inside its span, so the span measures
  producing the items rather than the caller's loop over them;
* the ``lru_cache`` object's ``cache_info`` stays reachable on the wrapper,
  and its hits and misses are read when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter
from typing import Dict, List


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self._stack = [-1]
        self._cached: Dict[str, object] = {}
        self._restore: List[tuple] = []

    def _wrap(self, qualname: str, func):
        fid = len(self.names)
        self.names.append(qualname)
        drain = inspect.isgeneratorfunction(func)
        func_ids, parents, starts, ends, items = (
            self.func, self.parent, self.start, self.end, self.items)
        stack = self._stack
        active = [False]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if active[0]:
                return func(*args, **kwargs)
            idx = len(starts)
            func_ids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            items.append(-1)
            stack.append(idx)
            active[0] = True
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
                if drain:
                    result = tuple(result)
            finally:
                ends[idx] = perf_counter()
                active[0] = False
                stack.pop()
            if hasattr(result, "__len__"):
                items[idx] = len(result)
            return iter(result) if drain else result

        if hasattr(func, "cache_info"):
            wrapper.cache_info = func.cache_info
            wrapper.cache_clear = func.cache_clear
            self._cached[qualname] = func
        return wrapper

    def install(self, modules) -> None:
        """Wrap the public functions defined in ``modules``; rebind them in all."""
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, func in list(_public_functions(module)):
                wrappers[id(func)] = (func, self._wrap(f"{short}.{name}", func))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write a JSON header line, then the span arrays as raw bytes."""
        caches = {}
        for qualname, func in self._cached.items():
            info = func.cache_info()
            caches[qualname] = {"hits": info.hits, "misses": info.misses}
        header = {"names": self.names, "spans": len(self.start), "caches": caches}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.func, self.parent, self.start, self.end, self.items):
                column.tofile(handle)


def summarize(path: str) -> Dict[str, float]:
    """Per-function calls, total_s, self_s, items, hits and misses from a dump.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because the traced run is
    single-threaded.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = []
        for code in ("i", "i", "d", "d", "q"):
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    func, parent, start, end, items = columns
    child = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    names = header["names"]
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0} for name in names}
    for i in range(count):
        entry = stats[names[func[i]]]
        duration = end[i] - start[i]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child[i]
        if items[i] > 0:
            entry["items"] += items[i]
    out = {}
    for name, entry in stats.items():
        for stat, value in entry.items():
            out[f"{name}.{stat}"] = value
    for name, info in header["caches"].items():
        out[f"{name}.hits"] = info["hits"]
        out[f"{name}.misses"] = info["misses"]
    return out
