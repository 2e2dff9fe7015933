"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

For every checker: a genuine output of kirbyfront passes, and a
deliberately wrong one (tb off by 2, a truncated step list, a
non-inverse, ...) is rejected.  The oracles are also checked against
surfaces and words whose invariants are known by hand.  Exits 1 if any
self-test fails.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import replace

import worker

KF = worker.load_package()

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

FAILURES = []
COUNT = 0


def expect(ok, what):
    global COUNT
    COUNT += 1
    if not ok:
        FAILURES.append(what)


def accepts(problems, what):
    expect(problems == [], f"{what}: genuine output rejected: {problems[:3]}")


def rejects(problems, what):
    expect(problems != [], f"{what}: wrong output accepted")


def test_oracle():
    expect(oracle.components([("L", 1), ("R", 1)])[0] == 1, "unknot has one component")
    expect(oracle.components([("L", 1), ("L", 3), ("R", 3), ("R", 1)])[0] == 2,
           "two stacked unknots")
    expect(oracle.components([("L", 1), ("L", 1), ("X", 2), ("X", 2), ("R", 1), ("R", 1)])[0]
           == 2, "clasped pair")
    expect(not oracle.closes([("L", 1), ("X", 3)]), "X3 on two strands does not replay")
    rng = random.Random(0)
    for _ in range(200):
        word = inputs.random_word(rng, rng.randrange(2, 60))
        expect(oracle.component_count(word) == oracle.components(word)[0],
               f"component_count and components disagree on {word}")
    disk = ["d"]
    annulus = oracle.surface_oracle((disk, {"a": 0}, {"d": [("a", 0), ("a", 1)]}))
    mobius = oracle.surface_oracle((disk, {"a": 1}, {"d": [("a", 0), ("a", 1)]}))
    torus = oracle.surface_oracle(
        (disk, {"a": 0, "b": 0}, {"d": [("a", 0), ("b", 0), ("a", 1), ("b", 1)]})
    )
    expect((annulus["chi"], annulus["b"], annulus["genus"]) == (0, 2, 0), "annulus")
    expect((mobius["b"], mobius["orientable"]) == (1, False), "Moebius band")
    expect((torus["chi"], torus["b"], torus["genus"]) == (-1, 1, 1), "punctured torus")
    two = oracle.surface_oracle((["x", "y"], {"p": 0}, {"x": [("p", 0)], "y": [("p", 1)]}))
    expect(two["connected"] and two["genus"] == 0, "two disks joined by a band")
    apart = oracle.surface_oracle((["x", "y"], {}, {"x": [], "y": []}))
    expect(not apart["connected"] and apart["b"] == 2, "two bare disks")
    text = inputs.ribbon_text(KF.ribbon.parse_ribbon(
        "disk d\nband a d.0 d.2\nband b d.1 d.3 twists 2\n"))
    expect(oracle.parse_ribbon_text(text)[2]["d"] == [("a", 0), ("b", 0), ("a", 1), ("b", 1)],
           "ribbon text round trip")


def test_moves():
    rng = random.Random(5)
    p = workloads.plan_moves(rng, inputs.random_diagram(rng, 100))
    while p is None:
        p = workloads.plan_moves(rng, inputs.random_diagram(rng, 100))
    wl = workloads.Moves(KF, 0, 0, worker.ROOT)
    out = wl.run_group(p)
    accepts(workloads.check_moves(p.d, out), "moves")

    def broken(key, value):
        return workloads.check_moves(p.d, dict(out, **{key: value}))

    rejects(broken("clasp-", out["clasp"]), "moves: unclasp that is no inverse")
    rejects(broken("stabilize", out["clasp"]), "moves: stabilize that adds 2 events")
    rejects(broken("r1-", replace(out["r1-"], diagram=out["r1"].diagram)),
            "moves: R1 reverse that is no inverse")
    wrong_chi = replace(out["r2"].diagram, attrs=tuple(
        replace(a, coefficient=0) for a in out["r2"].diagram.attrs))
    rejects(broken("r2", replace(out["r2"], diagram=wrong_chi)), "moves: chi changed")
    cut = replace(out["birth"].diagram, events=out["birth"].diagram.events[:-1])
    rejects(broken("birth", replace(out["birth"], diagram=cut)), "moves: word does not close")
    rejects(broken("replay", (out["crossing-"].diagram, [])), "moves: macro differs")
    rejects(broken("slide-", out["slide"]), "moves: slide back that is no inverse")
    rejects(broken("birth-", ValueError("x")), "moves: a failed operation")


def test_normalize():
    wl = workloads.Normalize(KF, 3, 0, worker.ROOT)
    k, m, d = wl.make(wl.rng, 1)[0]
    res = wl.op(d)
    norm = KF.moves.normalize
    accepts(workloads.check_normalize(norm, k, m, d, res), "normalize")
    n, inv, lk, h1 = res
    rejects(workloads.check_normalize(norm, k, m, d, (n, replace(inv, tb=inv.tb - 2), lk, h1)),
            "normalize: tb off by 2")
    rejects(workloads.check_normalize(norm, k, m, d, (n, replace(inv, rot=inv.rot + 2), lk, h1)),
            "normalize: rot off by 2")
    rejects(workloads.check_normalize(
        norm, k, m, d, (n, inv, replace(lk, matrix=((lk.matrix[0][0] + 1,),)), h1)),
        "normalize: linking diagonal off by one")
    rejects(workloads.check_normalize(norm, k, m, d, (n, inv, lk, [h1[0] + 2])),
            "normalize: wrong H1")
    grown = replace(n, events=n.events + (KF.diagram.Event("L", 1), KF.diagram.Event("R", 1)))
    rejects(workloads.check_normalize(norm, k, m, d, (grown, inv, lk, h1)),
            "normalize: output has more events")
    one_crossing = replace(n, events=n.events[:1] + n.events[2:])
    rejects(workloads.check_normalize(norm, k, m, d, (one_crossing, inv, lk, h1)),
            "normalize: one event removed")
    rejects(workloads.check_normalize(lambda x: d, k, m, d, res),
            "normalize: not idempotent")


def genus_one():
    """A one-disk surface with four untwisted bands and genus 1."""
    twists = {b: 0 for b in range(4)}
    ring = next(r for r in inputs.one_disk_classes(4)
                if oracle.surface_oracle((["o"], twists, {"o": r}))["genus"] == 1)
    return ["o"], twists, {"o": ring}


def test_ribbon():
    wl = workloads.Ribbon(KF, 4, 0, worker.ROOT)
    items = wl.copies(wl.rng, genus_one())
    results = [wl.op(s, c) for s, c in items]
    transpose = KF.ribbon.clasp_transpose
    accepts(workloads.check_ribbon(transpose, items, results), "ribbon")
    key, planar, conn = results[1]
    expect(planar, "ribbon self-test surface needs a non-empty step list")
    rejects(workloads.check_ribbon(transpose, items, [results[0], (key, planar[:-1], conn)]),
            "ribbon: truncated step list")
    rejects(workloads.check_ribbon(transpose, items, [results[0], (key, planar, conn[:-1])]),
            "ribbon: truncated connected step list")
    rejects(workloads.check_ribbon(transpose, items, [results[0], (("x",), planar, conn)]),
            "ribbon: relabelled copy with another key")
    try:
        failed_first = workloads.check_ribbon(
            transpose, items, [ValueError("first presentation failed"), results[1]])
    except Exception as exc:  # noqa: BLE001 - the check itself must not crash
        failed_first = None
        expect(False, f"ribbon: check crashed on a failed first presentation: {exc!r}")
    if failed_first is not None:
        expect(len(failed_first) == 1 and "first presentation failed" in failed_first[0],
               f"ribbon: a failed first presentation is not reported alone: {failed_first}")
    other = inputs.present(random.Random(1), ["o"], {0: 0}, {"o": [(0, 0), (0, 1)]}, "q")
    rejects(workloads.check_ribbon(transpose, items + [(other, False)] * 2,
                                   results + [(results[0][0], [], None)] * 2),
            "ribbon: one key for different invariants")


def test_cli():
    D, R = KF.diagram, KF.ribbon
    rng = random.Random(9)
    d = inputs.random_diagram(rng, 30, 2, 4)
    k, m = 1, 6
    w = inputs.w_diagram(k, m, [("R1", 0.3, 0.5), ("R2", 0.6, 0.2)])
    surface = inputs.present(rng, *genus_one(), "s")

    def ran(stdout, code=0):
        return subprocess.CompletedProcess([], code, stdout, "")

    def check(facts, res):
        return workloads.check_cli(KF, facts, 0, res)

    clasped = KF.moves.clasp(d, KF.moves.site_at(1, 1)).diagram
    accepts(check(("apply", d), ran(D.serialize_front(clasped))), "cli apply")
    rejects(check(("apply", d), ran(D.serialize_front(d))), "cli apply: no new events")
    rejects(check(("apply", d), ran(D.serialize_front(clasped), 1)), "cli apply: exit 1")
    accepts(check(("parse", d), ran(D.serialize_front(d))), "cli parse")
    rejects(check(("parse", d), ran(inputs.front_text(d).replace("  ", " "))),
            "cli parse: not canonical")
    tb, rot, diag, h1 = workloads.w_closed_forms(k, m)
    inv = {"components": {"1": {"tb": tb, "rot": rot}}, "linking": [[diag]], "h1": h1,
           "chi": 2}
    accepts(check(("invariants", (k, m)), ran(json.dumps(inv))), "cli invariants")
    inv["components"]["1"]["tb"] = tb - 2
    rejects(check(("invariants", (k, m)), ran(json.dumps(inv))), "cli invariants: tb off by 2")
    n = KF.moves.normalize(w)
    accepts(check(("normalize", (k, m, w)), ran(D.serialize_front(n))), "cli normalize")
    rejects(check(("normalize", (k, m, w)), ran(D.serialize_front(D.default_attrs(
        replace(n, events=n.events + (D.Event("L", 1), D.Event("R", 1))))))),
        "cli normalize: extra unknot")
    steps = R.normalize_surface(surface, "planar")
    final = workloads.replay_surface(R.clasp_transpose, surface, steps)
    report = {"steps": [list(s) for s in steps], "final": R.serialize_ribbon(final)}
    accepts(check(("ribbon", surface), ran(json.dumps(report))), "cli ribbon normalize")
    report["steps"] = report["steps"][:-1]
    rejects(check(("ribbon", surface), ran(json.dumps(report))), "cli ribbon: truncated steps")
    report["final"] = R.serialize_ribbon(surface)
    rejects(check(("ribbon", surface), ran(json.dumps(report))), "cli ribbon: not planar")
    accepts(check(("verify", "mazur"), ran("mazur: PASS (0.01s)\n")), "cli verify")
    rejects(check(("verify", "mazur"), ran("mazur: FAIL (0.01s)\n")), "cli verify: FAIL")


def main():
    for test in (test_oracle, test_moves, test_normalize, test_ribbon, test_cli):
        try:
            test()
        except Exception as exc:  # noqa: BLE001 - report which self-test broke
            FAILURES.append(f"{test.__name__}: {type(exc).__name__}: {exc}")
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print(f"{COUNT - len(FAILURES)} of {COUNT} self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
