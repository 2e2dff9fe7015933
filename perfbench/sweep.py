"""Traced size sweep of the word layer.

    python3 perfbench/sweep.py

Times trace_components, clasp, exchange_canonical and normalize, each
called from the top, on the (2,q) torus knot for q = 51, 201, 801 and on
W^1_m for m = 10, 40, 160.  Each figure is the median over REPEAT calls
of the call's span as the tracer records it, in milliseconds, with the
span's self time (its duration minus its children's) in parentheses.
"""

from __future__ import annotations

import statistics
import sys

import worker

KF = worker.load_package()

import inputs  # noqa: E402
import tracer  # noqa: E402

REPEAT = 3  # top-level calls per figure; the figure is their median
CALLS = ("diagram.trace_components", "moves.clasp", "wordops.exchange_canonical",
         "moves.normalize")


def torus_2q(q):
    word = [("L", 1), ("L", 3)] + [("X", 2)] * q + [("R", 3), ("R", 1)]
    D = KF.diagram
    return D.FrontDiagram(
        name=f"t2_{q}", events=tuple(D.Event(k, p) for k, p in word),
        attrs=(D.ComponentAttr(label="k", coefficient=-1),),
    )


def cases():
    for q in (51, 201, 801):
        yield f"t(2,{q})", torus_2q(q)
    for m in (10, 40, 160):
        yield f"W^1_{m}", inputs.w_diagram(1, m, [])


def measure(t, fn, *args):
    """(duration, self time) of the one top-level span a call makes."""
    first = len(t.start)
    t.active = True
    fn(*args)
    t.active = False
    child = sum(t.end[k] - t.start[k] for k in range(first + 1, len(t.start))
                if t.parent[k] == first)
    whole = t.end[first] - t.start[first]
    return whole * 1e3, (whole - child) * 1e3


def main():
    t = tracer.Tracer()
    t.install()  # the names looked up below are the wrappers from here on
    M, W, D = KF.moves, sys.modules["kirbyfront.wordops"], KF.diagram
    print("| input | events | " + " | ".join(f"`{c.split('.')[1]}` ms" for c in CALLS) + " |")
    print("| --- | --- |" + " --- |" * len(CALLS))
    for label, d in cases():
        site = M.site_at(len(d.events) // 2, 1)
        calls = [(D.trace_components, d), (M.clasp, d, site), (W.exchange_canonical, d),
                 (M.normalize, d)]
        cells = []
        for fn, *fargs in calls:
            runs = [measure(t, fn, *fargs) for _ in range(REPEAT)]
            whole = statistics.median(r[0] for r in runs)
            own = statistics.median(r[1] for r in runs)
            cells.append(f"{whole:.2f} ({own:.2f})")
        print(f"| {label} | {len(d.events)} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
