"""Outside-in tracing of kirbyfront's public functions.

Only the traced run uses this.  ``Tracer.install`` wraps each function in
``TRACED`` and rebinds every name in the package's modules that refers to
it, so calls from inside the package are seen as well as the benchmark's
own.  Each call made while the tracer is active is a span (name, start,
end, parent) kept in flat arrays; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

TRACED = {
    "diagram": ("trace_components", "validate_diagram"),
    "wordops": ("splice", "double_component", "erase_segments", "erase_components",
                "exchange_canonical"),
    "moves": ("clasp", "stabilize", "birth_cancel_pair", "crossing_change",
              "reidemeister", "handleslide", "normalize"),
    "scripts": ("run_script",),
    "macros": ("crossing_change_macro",),
    "invariants": ("classical_invariants", "linking_matrix", "homology_presentation"),
    "smith": ("smith_normal_form",),
    "ribbon": ("canonical_key", "surface_invariants", "clasp_transpose",
               "normalize_surface"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.active = False
        # counts taken at the same boundaries
        self.events_removed = 0
        self.search = -1  # span of the normalize_surface call being watched
        self.search_keys = set()
        self.dedup_hits = 0
        self.search_children = 0
        self.command_s = 0.0  # set by clichild.py

    def install(self):
        wrappers = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"kirbyfront.{mod}")
            for fn in fns:
                orig = getattr(module, fn)
                wrappers[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig))
        for modname, module in list(sys.modules.items()):
            if modname != "kirbyfront" and not modname.startswith("kirbyfront."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observe = {
            "moves.normalize": self._removed,
            "ribbon.canonical_key": self._key,
            "ribbon.clasp_transpose": self._child,
        }.get(qualname)
        stack, start, end = self.stack, self.start, self.end

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            k = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(k)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[k] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.parent[k], args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _in_search(self, parent):
        return parent >= 0 and self.names[self.name[parent]] == "ribbon.normalize_surface"

    def _removed(self, _parent, args, result):
        self.events_removed += len(args[0].events) - len(result.events)

    def _key(self, parent, _args, key):
        """normalize_surface keys its start surface, then every child: a
        child whose key came up before in the same search is a dedup hit."""
        if not self._in_search(parent):
            return
        if parent != self.search:
            self.search, self.search_keys = parent, {key}
        elif key in self.search_keys:
            self.dedup_hits += 1
        else:
            self.search_keys.add(key)

    def _child(self, parent, _args, _result):
        if self._in_search(parent):
            self.search_children += 1

    def summary(self):
        """Per function: [calls, self seconds]."""
        child = [0.0] * len(self.start)
        for k, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = {name: [0, 0.0] for name in self.names}
        for k, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += self.end[k] - self.start[k] - child[k]
        return out

    def counters(self):
        return {
            "events_removed": self.events_removed,
            "dedup_hits": self.dedup_hits,
            "search_children": self.search_children,
            "command_s": self.command_s,
        }

    def write(self, path):
        """All spans, one per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name\tstart_s\tend_s\tparent\n")
            for k, nid in enumerate(self.name):
                fh.write(
                    f"{self.names[nid]}\t{self.start[k]:.9f}\t{self.end[k]:.9f}\t"
                    f"{self.parent[k]}\n"
                )


def merge(into, summary, counters):
    """Add one process's summary and counters to running totals."""
    for name, (calls, self_s) in summary.items():
        row = into["functions"].setdefault(name, [0, 0.0])
        row[0] += calls
        row[1] += self_s
    for name, value in counters.items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    return into


def dump(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"functions": tracer.summary(), "counters": tracer.counters()}, fh)
