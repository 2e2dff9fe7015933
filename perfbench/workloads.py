"""The four workloads.

Each workload builds its whole list of operations in ``setup`` from the
seed, runs an untimed ``warmup``, then ``run`` executes the list to its
end as a closed loop with one caller, timing each operation.  ``check``
runs afterwards, untimed, and returns the problems it found.

The amount of work depends only on the arguments: a run of nominally
``seconds`` seconds gets ``seconds * RATE`` operations in whole groups,
where RATE is the throughput measured when the workload was defined.  No
clock ends a run, so every commit does the same work for the same
arguments.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs
import oracle

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def n_groups(seconds, rate, group_ops):
    return max(math.ceil(MIN_OPS / group_ops), round(seconds * rate / group_ops))


class Workload:
    RATE = 1.0  # operations per second at the commit that sized the workload
    GROUP_OPS = 1

    def __init__(self, kf, seed, seconds, root):
        self.kf = kf
        self.rng = random.Random(seed)
        # the warm-up inputs do not depend on the seed, so neither does
        # the warm-up's share of setup_s
        self.warm_rng = random.Random(0)
        self.root = Path(root)
        self.groups = n_groups(seconds, self.RATE, self.GROUP_OPS)
        self.traced = False  # the cli children run under the tracer too
        self.lat = []
        self.failed = 0
        self.problems = []

    def timed(self, fn, *args, **kwargs):
        """Run one operation and record its latency.  Any exception the
        program raises counts the operation as failed and is a problem."""
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - reported, run goes on
            out = exc
        self.lat.append(perf_counter() - t0)
        if isinstance(out, Exception):
            self.failed += 1
            self.problems.append(f"{fn.__name__}: {type(out).__name__}: {out}")
        return out

    def close(self):
        """Release what set-up made outside the process."""


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

# event-count change of each forward move (the README templates)
DELTA = {"clasp": 2, "stabilize": 4, "birth": 6, "crossing": 4, "r1": 3, "r2": 2}


@dataclass
class MovePlan:
    d: object
    clasp: tuple  # (gap, slot)
    stabilize: tuple  # (gap, slot, component)
    birth: tuple  # (gap, slot)
    crossing: tuple  # (event, slot)
    r1: tuple  # (gap, slot, variant)
    r2: tuple  # (event, slot, variant)
    slide: tuple  # (gap, slot, moving, over, junction event)


def _pushoff_width(ev, i, over, cid):
    """Events a push-off of component ``over`` makes of event i: a cusp of
    it becomes three, a self-crossing four, a crossing with one strand of
    it two, anything else stays one."""
    if ev.kind == "L":
        return 3 if cid[(i + 1, ev.pos)] == over else 1
    if ev.kind == "R":
        return 3 if cid[(i, ev.pos)] == over else 1
    lo, hi = cid[(i, ev.pos)] == over, cid[(i, ev.pos + 1)] == over
    return 4 if lo and hi else 2 if lo or hi else 1


def plan_moves(rng, d):
    """Seeded sites for every move on d, or None if d lacks one."""
    n = len(d.events)
    counts = oracle.strand_counts(d.events)
    _, cid = oracle.components(d.events)
    word = [(e.kind, e.pos) for e in d.events]
    gaps = [g for g in range(n + 1) if counts[g] >= 2]
    crossings = [i for i, (k, _p) in enumerate(word) if k == "X"]
    r2 = [(i, s, v) for i in range(n) for (_r, v, s) in inputs.r2_kinks(word, counts, i)]
    # slide over components of at most a third of the strand segments: the
    # push-off roughly doubles the word around the slid-over component, and
    # the largest doubled word sets the run's peak memory
    share = Counter(cid.values())
    slides = [
        (g, s)
        for g in gaps
        for s in range(1, counts[g])
        if cid[(g, s)] != cid[(g, s + 1)]
        and d.attrs[cid[(g, s + 1)] - 1].coefficient == -1
        and 3 * share[cid[(g, s + 1)]] <= len(cid)
    ]
    if not (crossings and r2 and slides):
        return None
    g = rng.choice(gaps)
    clasp = (g, rng.randrange(1, counts[g]))
    g = rng.choice(gaps)
    s = rng.randrange(1, counts[g] + 1)
    stabilize = (g, s, cid[(g, s)])
    g = rng.randrange(n + 1)
    birth = (g, rng.randrange(1, counts[g] + 2))
    i = rng.choice(crossings)
    crossing = (i, word[i][1])
    g = rng.choice(gaps)
    r1 = (g, rng.randrange(1, counts[g] + 1), rng.choice((1, 2)))
    g, s = rng.choice(slides)
    moving, over = cid[(g, s)], cid[(g, s + 1)]
    junction = sum(_pushoff_width(d.events[j], j, over, cid) for j in range(g))
    return MovePlan(d, clasp, stabilize, birth, crossing, r1, rng.choice(r2),
                    (g, s, moving, over, junction))


class Moves(Workload):
    """Forward moves and their exact inverses on random decorated diagrams
    of 100-200 events with 4-8 components."""

    RATE = 85.0
    GROUP_OPS = 16
    SIZES = (100, 125, 150, 175, 200)

    @staticmethod
    def _plan(rng, size):
        while True:
            p = plan_moves(rng, inputs.random_diagram(rng, size))
            if p is not None:
                return p

    def setup(self):
        self.plans = [self._plan(self.rng, self.SIZES[i % len(self.SIZES)])
                      for i in range(self.groups)]
        self.results = []

    def warmup(self):
        self.run_group(self._plan(self.warm_rng, self.SIZES[0]))
        self.lat, self.failed, self.problems = [], 0, []

    def run(self):
        self.results = [self.run_group(p) for p in self.plans]

    def run_group(self, p):
        M, S, T = self.kf.moves, self.kf.scripts, self.timed
        site = M.site_at
        d = p.d
        out = {}
        # an inverse whose forward move failed is attempted on None and
        # fails too, so every group attempts the same 16 operations
        g, s = p.clasp
        out["clasp"] = T(M.clasp, d, site(g, s), "clasp")
        out["clasp-"] = T(M.clasp, _diagram(out["clasp"]), site(g, s), "unclasp")
        g, s, c = p.stabilize
        out["stabilize"] = T(M.stabilize, d, c, site(g, s), "stabilize")
        out["stabilize-"] = T(
            M.stabilize, _diagram(out["stabilize"]), c, site(g, s), "destabilize"
        )
        g, s = p.birth
        out["birth"] = T(M.birth_cancel_pair, d, site(g, s), "birth")
        out["birth-"] = T(_cancel, M, out["birth"])
        i, s = p.crossing
        out["crossing"] = T(M.crossing_change, d, site(i, s))
        out["crossing-"] = T(M.crossing_change, _diagram(out["crossing"]), site(i, s))
        out["macro"] = T(M.crossing_change, d, site(i, s), mode="macro")
        out["replay"] = T(S.run_script, out["macro"])
        g, s, v = p.r1
        out["r1"] = T(M.reidemeister, d, "R1", site(g, s), variant=v)
        out["r1-"] = T(
            M.reidemeister, _diagram(out["r1"]), "R1", site(g, s), variant=v,
            direction="reverse",
        )
        i, s, v = p.r2
        out["r2"] = T(M.reidemeister, d, "R2", site(i, s), variant=v)
        out["r2-"] = T(
            M.reidemeister, _diagram(out["r2"]), "R2", site(i, s), variant=v,
            direction="reverse",
        )
        g, s, moving, over, _j = p.slide
        out["slide"] = T(M.handleslide, d, moving, over, "minus_up", site(g, s))
        out["slide-"] = T(_slide_back, M, out["slide"], p.slide)
        return out

    def check(self):
        problems = []
        for k, (p, out) in enumerate(zip(self.plans, self.results)):
            problems += [f"group {k}: {m}" for m in check_moves(p.d, out)]
        return problems


def _diagram(result):
    return getattr(result, "diagram", None)


def _cancel(M, born):
    """Cancel the pair a birth made, named by its fresh components."""
    attrs = born.diagram.attrs
    plus = [c for c in born.fresh if attrs[c - 1].coefficient == 1]
    minus = [c for c in born.fresh if attrs[c - 1].coefficient == -1]
    return M.birth_cancel_pair(
        born.diagram, M.site_at(0, 1, components=(plus[0], minus[0])), "cancel"
    )


def _slide_back(M, slid, slide):
    """Slide back at the junction the forward slide inserted."""
    _g, _s, moving, over, j = slide
    d = slid.diagram
    return M.handleslide(
        d, slid.old_to_new[moving], slid.old_to_new[over], "minus_down",
        M.site_at(j, d.events[j].pos, e1=j + 3),
    )


def check_moves(d, out):
    """Problems with one group's outputs; empty if all is well."""
    problems = [f"{k}: {r}" for k, r in out.items() if isinstance(r, Exception)]
    if problems:
        return problems
    chi = oracle.euler_from_attrs(d.attrs)
    finals = {k: r.diagram for k, r in out.items() if k not in ("macro", "replay")}
    finals["replay"] = out["replay"][0]
    for k, x in finals.items():
        if not oracle.closes(x.events):
            problems.append(f"{k}: output word does not replay and close")
            continue
        ncomp, _ = oracle.components(x.events)
        if ncomp != len(x.attrs):
            problems.append(f"{k}: {ncomp} components but {len(x.attrs)} attributes")
        if oracle.euler_from_attrs(x.attrs) != chi:
            problems.append(f"{k}: chi changed")
    for k, delta in DELTA.items():
        got = len(finals[k].events) - len(d.events)
        if got != delta:
            problems.append(f"{k}: event count changed by {got}, not {delta}")
    for k in list(DELTA) + ["slide"]:
        back = finals[k + "-"]
        if back.events != d.events or back.attrs != d.attrs:
            problems.append(f"{k}: the inverse does not restore the input")
    if finals["replay"].events != finals["crossing"].events:
        problems.append("macro: replayed word differs from the primitive crossing change")
    return problems


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

KINKS = ("R1", "R2", "R1", "R2")


def w_closed_forms(k, m):
    """(tb, rot, linking diagonal, H1 factors) of W^k_m."""
    tb = 1 - 2 * (k + 1 + m)
    return tb, 2 * k, tb - 1, [2 * (k + 1 + m)]


class Normalize(Workload):
    """normalize plus invariants on kinked members W^k_m of the
    plane-bundle family, k in -2..2 and m in 20..40."""

    RATE = 9.5
    M_BAND = (20, 40)

    def make(self, rng, n):
        """n kinked family members: m and every kink's place are spread
        over their ranges one stratum per member, k cycles through -2..2."""
        lo, hi = self.M_BAND
        ms = [lo + int(u * (hi - lo + 1)) for u in inputs.strata(rng, n)]
        ks = [i % 5 - 2 for i in range(n)]
        rng.shuffle(ks)
        cols = [(inputs.strata(rng, n), inputs.strata(rng, n)) for _ in KINKS]
        out = []
        for i, (k, m) in enumerate(zip(ks, ms)):
            places = [(kind, u[i], v[i]) for kind, (u, v) in zip(KINKS, cols)]
            out.append((k, m, inputs.w_diagram(k, m, places)))
        return out

    def setup(self):
        self.items = self.make(self.rng, self.groups)
        self.results = []

    def warmup(self):
        for _k, _m, d in self.make(self.warm_rng, 2):
            self.timed(self.op, d)
        self.lat, self.failed, self.problems = [], 0, []

    def op(self, d):
        M, I = self.kf.moves, self.kf.invariants
        n = M.normalize(d)
        return n, I.classical_invariants(n, 1), I.linking_matrix(n), I.homology_presentation(n)

    def run(self):
        self.results = [self.timed(self.op, d) for _k, _m, d in self.items]

    def check(self):
        problems = []
        for (k, m, d), res in zip(self.items, self.results):
            for msg in check_normalize(self.kf.moves.normalize, k, m, d, res):
                problems.append(f"W^{k}_{m}: {msg}")
        return problems


def reductions_only(before, after):
    """True iff going from before to after can be a number a >= 0 of
    swallowtail removals (two cusps and a crossing each) and b >= 0 of
    crossing-pair removals: the cusp count falls by 2a and the crossing
    count by a + 2b."""
    def tally(d):
        cusps = sum(e.kind != "X" for e in d.events)
        return cusps, len(d.events) - cusps

    cusps, crossings = (x - y for x, y in zip(tally(before), tally(after)))
    a = cusps // 2
    return cusps >= 0 and cusps % 2 == 0 and crossings >= a and (crossings - a) % 2 == 0


def check_normalize(normalize, k, m, d, res):
    if isinstance(res, Exception):
        return [str(res)]
    n, inv, lk, h1 = res
    tb, rot, diag, factors = w_closed_forms(k, m)
    problems = []
    if (inv.tb, inv.rot) != (tb, rot):
        problems.append(f"tb, rot = {inv.tb}, {inv.rot}; want {tb}, {rot}")
    if [list(r) for r in lk.matrix] != [[diag]]:
        problems.append(f"linking matrix {lk.matrix}; want [[{diag}]]")
    if list(h1) != factors:
        problems.append(f"H1 factors {h1}; want {factors}")
    if not reductions_only(d, n):
        problems.append(f"{len(d.events)} -> {len(n.events)} events is no sequence of reductions")
    if not oracle.closes(n.events) or oracle.components(n.events)[0] != 1:
        problems.append("output is not one closed component")
    try:
        again = normalize(n)
    except Exception as exc:  # noqa: BLE001 - a wrong output may not normalize
        return problems + [f"normalize of the output fails: {exc!r}"]
    if again.events != n.events or again.attrs != n.attrs:
        problems.append("normalize of the output changes it")
    return problems


# ---------------------------------------------------------------------------
# ribbon
# ---------------------------------------------------------------------------


class Ribbon(Workload):
    """canonical_key and normalize_surface on disk-band surfaces with 4-5
    bands: every one-disk class once per round, plus random two-disk
    surfaces; each surface also as a relabelled, rotated copy."""

    RATE = 50.0
    # random two-disk surfaces per round by (bands, genus), in the
    # proportions the generator draws them (38/62 and 17/66/17 per cent):
    # fixing the count of each genus, and so of the near-free planar ones,
    # keeps the median operation from moving with the seed
    TWO_DISK = {(4, 0): 26, (4, 1): 42, (5, 0): 12, (5, 1): 44, (5, 2): 12}

    def abstract_round(self):
        out = [(["o"], {b: 0 for b in range(nb)}, {"o": ring})
               for nb, rings in self.classes.items() for ring in rings]
        out += [inputs.random_two_disk(self.rng, nb, genus)
                for (nb, genus), count in self.TWO_DISK.items() for _ in range(count)]
        self.rng.shuffle(out)
        return out

    @staticmethod
    def copies(rng, abstract):
        """The two operations on an abstract surface: a seeded presentation
        and a relabelled, rotated copy."""
        disks, twists, _order = abstract
        connected = len(disks) == 1 and (1 - len(twists)) % 2 == 1
        return [(inputs.present(rng, *abstract, tag), connected) for tag in "az"]

    def setup(self):
        self.classes = {nb: inputs.one_disk_classes(nb) for nb in (4, 5)}
        per_round = 2 * (sum(map(len, self.classes.values())) + sum(self.TWO_DISK.values()))
        rounds = max(1, round(self.groups / per_round))
        self.items = [
            op for _ in range(rounds) for a in self.abstract_round()
            for op in self.copies(self.rng, a)
        ]
        self.results = []

    def warmup(self):
        ring = self.classes[4][-1]
        abstract = (["o"], {b: 0 for b in range(4)}, {"o": ring})
        for s, connected in self.copies(self.warm_rng, abstract):
            self.timed(self.op, s, connected)
        self.lat, self.failed, self.problems = [], 0, []

    def op(self, s, connected):
        R = self.kf.ribbon
        key = R.canonical_key(s)
        planar = R.normalize_surface(s, "planar")
        return key, planar, R.normalize_surface(s, "connected") if connected else None

    def run(self):
        self.results = [self.timed(self.op, s, c) for s, c in self.items]

    def check(self):
        return check_ribbon(self.kf.ribbon.clasp_transpose, self.items, self.results)


def replay_surface(transpose, s, steps):
    for disk, slot in steps:
        s = transpose(s, disk, slot)
    return s


def check_ribbon(transpose, items, results):
    problems = []
    invariants_of = {}
    for n, ((s, connected), res) in enumerate(zip(items, results)):
        if isinstance(res, Exception):
            problems.append(f"surface {n}: {res}")
            continue
        key, planar, conn = res
        before = oracle.surface_oracle(oracle.plain_surface(s))
        summary = (before["chi"], before["b"], before["genus"])
        if invariants_of.setdefault(key, summary) != summary:
            problems.append(f"surface {n}: key shared with different invariants")
        first = results[n - 1] if n % 2 else None
        # a failed first presentation is reported above, not compared
        if first is not None and not isinstance(first, Exception) and key != first[0]:
            problems.append(f"surface {n}: relabelled copy has another key")
        targets = [("planar", planar, "genus", 0)]
        if connected:
            targets.append(("connected", conn, "b", 1))
        for name, steps, field, want in targets:
            try:
                after = oracle.surface_oracle(
                    oracle.plain_surface(replay_surface(transpose, s, steps))
                )
            except Exception as exc:  # noqa: BLE001 - a bad step list
                problems.append(f"surface {n} {name}: steps do not replay: {exc}")
                continue
            if after["chi"] != before["chi"]:
                problems.append(f"surface {n} {name}: chi changed")
            if after[field] != want:
                problems.append(f"surface {n} {name}: {field} = {after[field]}, want {want}")
    return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

VERIFY_IDS = ("cieliebak", "example-2-1", "fig-crossing-macro", "fig-destab",
              "mazur", "ribbon-heegaard")
# the malformed inputs do not depend on the seed: the two calls that use
# them fail the same way in every run
# the import timed inside a fresh interpreter, without its start-up
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kirbyfront.cli; "
                "print(time.perf_counter() - t)")
BAD_RIBBON = "disk d\nband a d.x d.1\n"
UNKNOT = "diagram u\nspin 0\nleft 0\nevents\n  L1\n  R1\nend\ncomponent u coeff -1\n"


class Cli(Workload):
    """Cold-start command-line calls, one child process at a time."""

    RATE = 2.5
    GROUP_OPS = 8
    TRACE_ENV = "PERFBENCH_TRACE_OUT"

    def __init__(self, kf, seed, seconds, root):
        super().__init__(kf, seed, seconds, root)
        self.dir = self.root / "perfbench" / "out" / f"cli-{os.getpid()}"
        # hash seed and thread pinning come from run.py's worker environment
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.calls = 0

    def argv(self, args):
        if self.traced:
            return [sys.executable, str(self.root / "perfbench" / "clichild.py"), *args]
        return [sys.executable, "-m", "kirbyfront.cli", *args]

    def call(self, args):
        self.calls += 1
        env = self.env
        if self.traced:
            env = dict(env, **{self.TRACE_ENV: str(self.dir / f"trace-{self.calls}.json")})
        return subprocess.run(
            self.argv(args), cwd=self.dir, env=env, capture_output=True, text=True,
            timeout=60,
        )

    def cycle(self, c):
        """The eight calls of cycle c: (args, expected exit code, facts the
        checker needs)."""
        rng = self.rng
        d = inputs.random_diagram(rng, 40, 2, 4)
        counts = oracle.strand_counts(d.events)
        g = rng.choice([g for g in range(len(d.events) + 1) if counts[g] >= 2])
        s = rng.randrange(1, counts[g])
        k, m = rng.randrange(-2, 3), rng.randrange(5, 10)
        w = inputs.w_diagram(k, m, [(kind, rng.random(), rng.random()) for kind in KINKS[:2]])
        twists = {b: 0 for b in range(4)}
        surface = inputs.present(rng, ["o"], twists, {"o": rng.choice(self.rings)}, "s")
        files = {
            f"{c}.front": inputs.front_text(d),
            f"{c}w.front": inputs.front_text(w),
            f"{c}.ribbon": inputs.ribbon_text(surface),
        }
        for name, text in files.items():
            (self.dir / name).write_text(text)
        scenario = VERIFY_IDS[c % len(VERIFY_IDS)]
        return [
            (["apply", f"{c}.front", "--move", "clasp", "--site", f"{g}..{g}/{s}..{s}"], 0,
             ("apply", d)),
            (["parse", f"{c}.front"], 0, ("parse", d)),
            (["invariants", f"{c}w.front", "--json"], 0, ("invariants", (k, m))),
            (["normalize", f"{c}w.front"], 0, ("normalize", (k, m, w))),
            (["ribbon", "normalize", f"{c}.ribbon", "--target", "planar"], 0,
             ("ribbon", surface)),
            (["verify", scenario], 0, ("verify", scenario)),
            (["ribbon", "invariants", "bad.ribbon"], 4, ("malformed", None)),
            (["apply", "unknot.front", "--move", "stabilize", "--site", "1..1/1..1"], 2,
             ("malformed", None)),
        ]

    def setup(self):
        twists = {b: 0 for b in range(4)}
        self.rings = [  # one-disk 4-band classes of genus 1 or 2
            r for r in inputs.one_disk_classes(4)
            if oracle.surface_oracle((["o"], twists, {"o": r}))["genus"]
        ]
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "bad.ribbon").write_text(BAD_RIBBON)
        (self.dir / "unknot.front").write_text(UNKNOT)
        self.cmds = [cmd for c in range(self.groups) for cmd in self.cycle(c)]
        self.results = []

    def warmup(self):
        self.call(["parse", "unknot.front"])

    def run(self):
        for stale in self.dir.glob("trace-*.json"):
            stale.unlink()
        for args, expect, _facts in self.cmds:
            res = self.timed(self.call, args)
            if not isinstance(res, Exception) and res.returncode != expect:
                self.failed += 1
            self.results.append(res)

    def check(self):
        problems = []
        for (args, expect, facts), res in zip(self.cmds, self.results):
            if isinstance(res, Exception):
                problems.append(f"{' '.join(args)}: {res}")
            elif facts[0] != "malformed":
                for msg in check_cli(self.kf, facts, expect, res):
                    problems.append(f"{' '.join(args)}: {msg}")
        return problems

    def layer_data(self):
        """Per-layer figures of a traced run: the span summaries and
        command times the children wrote, and start-up probes in fresh
        interpreters."""
        import tracer

        totals = {"functions": {}, "counters": {}}
        for path in sorted(self.dir.glob("trace-*.json")):
            data = json.loads(path.read_text())
            tracer.merge(totals, data["functions"], data["counters"])
        interp = statistics.median(self.probe("pass")[0] for _ in range(5))
        imported = statistics.median(float(self.probe(IMPORT_PROBE)[1]) for _ in range(5))
        totals["cli"] = {
            "interpreter_ms": interp * 1e3,
            "import_ms": imported * 1e3,
            "command_ms": totals["counters"]["command_s"] * 1e3 / len(self.lat),
        }
        return totals

    def probe(self, code):
        """Seconds a fresh interpreter takes to run code, and what it prints."""
        t0 = perf_counter()
        res = subprocess.run([sys.executable, "-c", code], cwd=self.dir, env=self.env,
                             capture_output=True, check=True, text=True, timeout=60)
        return perf_counter() - t0, res.stdout

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def check_cli(kf, facts, expect, res):
    """Problems with the output of one well-formed call."""
    if res.returncode != expect:
        return [f"exit {res.returncode}, want {expect}: {res.stderr.strip()[-200:]}"]
    what, data = facts
    out = res.stdout
    try:
        if what == "apply":
            got = kf.diagram.parse_front(out)
            if len(got.events) != len(data.events) + 2 or not oracle.closes(got.events):
                return [f"apply output has {len(got.events)} events, want {len(data.events) + 2}"]
        elif what == "parse":
            if kf.diagram.serialize_front(kf.diagram.parse_front(out)) != out:
                return ["parse output is not a fixed point of parse and serialize"]
        elif what == "invariants":
            tb, rot, diag, factors = w_closed_forms(*data)
            got = json.loads(out)
            want = {"tb": tb, "rot": rot, "linking": [[diag]], "h1": factors, "chi": 2}
            seen = {
                "tb": got["components"]["1"]["tb"], "rot": got["components"]["1"]["rot"],
                "linking": got["linking"], "h1": got["h1"], "chi": got["chi"],
            }
            if seen != want:
                return [f"invariants {seen}, want {want}"]
        elif what == "normalize":
            k, m, w = data
            n = kf.diagram.parse_front(out)
            inv = kf.invariants.classical_invariants(n, 1)
            tb, rot, _diag, _f = w_closed_forms(k, m)
            if not reductions_only(w, n) or (inv.tb, inv.rot) != (tb, rot):
                return [f"normalize output: {len(n.events)} events, tb/rot {inv.tb}/{inv.rot}"]
        elif what == "ribbon":
            got = json.loads(out)
            final = oracle.parse_ribbon_text(got["final"])
            before = oracle.surface_oracle(oracle.plain_surface(data))
            after = oracle.surface_oracle(final)
            replayed = oracle.plain_surface(
                replay_surface(kf.ribbon.clasp_transpose, data, got["steps"])
            )
            if after["genus"] != 0 or after["chi"] != before["chi"]:
                return [f"ribbon normalize final surface {after}"]
            if replayed[2] != final[2]:
                return ["ribbon normalize steps do not replay to the final surface"]
        elif what == "verify":
            if f"{data}: PASS" not in out:
                return [f"verify output {out.strip()!r}"]
    except (ValueError, KeyError, TypeError, kf.diagram.DiagramError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return []


WORKLOADS = {"moves": Moves, "normalize": Normalize, "ribbon": Ribbon, "cli": Cli}
