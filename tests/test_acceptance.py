"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and budget is pinned here; nothing is deferred to later
calibration.  Criterion 7's connected-boundary clause quantifies over
abstract surface types, which always admit a one-disk presentation; the
two-disk dumbbell presentation is rigid under adjacent transpositions
(exhaustively provable) and is covered by a dedicated obstruction test in
test_ribbon.py and by the decisions ledger.
"""

import itertools
import random
import time
from dataclasses import replace
from importlib.resources import files

import pytest

from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_PLUS,
    ComponentAttr,
    Event,
    FrontDiagram,
    check_spin_symmetry,
    default_attrs,
    trace_components,
    validate_diagram,
)
from kirbyfront.families import (
    cieliebak_diagram,
    mazur_diagram,
    stabilized_unknot,
    trivial_bypass_pair,
    unknot,
)
from kirbyfront.framing import framing_map_check
from kirbyfront.invariants import (
    classical_invariants,
    crossing_data,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from kirbyfront.macros import crossing_change_macro, destabilize_macro
from kirbyfront.moves import (
    MoveError,
    birth_cancel_pair,
    cancel_trivial_bypass,
    clasp,
    crossing_change,
    equivalent_up_to_normalization,
    normalize,
    reidemeister,
    site_at,
    stabilize,
)
from kirbyfront.scripts import parse_script, run_script
from kirbyfront.smith import smith_normal_form

from conftest import random_diagram


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_cieliebak_family():
    t0 = time.perf_counter()
    for k in range(-2, 3):
        for m in range(1, 5):
            d = cieliebak_diagram(k, m)
            inv = classical_invariants(d, 1)
            assert inv.tb == 1 - 2 * (k + 1 + m), (k, m)
            assert inv.rot == 2 * k, (k, m)
            lk = linking_matrix(d)
            assert lk.matrix[0][0] == -2 * (k + 1 + m), (k, m)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, f"20 family members, tb/rot/framing exact ({dt:.2f}s)")


def test_criterion_2_example_2_1():
    t0 = time.perf_counter()
    d, nid, np1 = trivial_bypass_pair()
    before = handle_census(d).euler
    out = cancel_trivial_bypass(d, nid, np1).diagram
    assert out.events == ()
    assert before == handle_census(out).euler == 1
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(2, f"cancelling pair erased, chi constant at 1 ({dt:.2f}s)")


def test_criterion_3_mazur():
    t0 = time.perf_counter()
    d = mazur_diagram()
    assert homology_presentation(d) == []
    text = (files("kirbyfront") / "data" / "mazur.script").read_text()
    script = parse_script(text, initial=d)
    final, _log = run_script(script)
    assert final.events == ()
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(3, f"frozen unknotting script empties the diagram, H1 = 0 ({dt:.2f}s)")


FROZEN_PANEL_COUNTS = [
    ("birth", 12),
    ("handleslide", 21),
    ("witness", 21),
    ("r2", 23),
    ("unclasp", 21),
    ("handleslide", 8),
    ("normalize", 8),
    ("cancel", 2),
]


def test_criterion_4_fig_destab_replay():
    t0 = time.perf_counter()
    d = stabilized_unknot()
    script = destabilize_macro(d, 1, site_at(1, 1))
    final, log = run_script(script)
    panels = [(m, n) for (_i, m, n) in log if m != "exchange"]
    assert panels == FROZEN_PANEL_COUNTS
    plain = stabilize(d, 1, site_at(1, 1), "destabilize").diagram
    assert equivalent_up_to_normalization(final, plain)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(4, f"macro replay matches destabilization, 8 panels frozen ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 5: randomized move property suite
# ---------------------------------------------------------------------------


def _random_strand_site(rng, d):
    tr = trace_components(d)
    sites = [
        (g, s)
        for g in range(len(d.events) + 1)
        for s in range(1, tr.counts[g] + 1)
    ]
    return rng.choice(sites) if sites else None


def _random_pair_site(rng, d):
    tr = trace_components(d)
    sites = [
        (g, s)
        for g in range(len(d.events) + 1)
        for s in range(1, tr.counts[g])
    ]
    return rng.choice(sites) if sites else None


def _inverse_pair_case(rng):
    """One exact inverse-pair identity; returns the kind exercised."""
    d = random_diagram(rng)
    kind = rng.choice(("clasp", "stabilize", "birth", "crossing"))
    if kind == "clasp":
        site = _random_pair_site(rng, d)
        if site is None:
            return None
        g, s = site
        c = clasp(d, site_at(g, s), "clasp").diagram
        back = clasp(c, site_at(g, s), "unclasp").diagram
    elif kind == "stabilize":
        site = _random_strand_site(rng, d)
        if site is None:
            return None
        g, s = site
        cid = trace_components(d).comp(g, s)
        c = stabilize(d, cid, site_at(g, s), "stabilize").diagram
        back = stabilize(c, cid, site_at(g, s), "destabilize").diagram
    elif kind == "birth":
        tr = trace_components(d)
        g = rng.randrange(len(d.events) + 1)
        s = rng.randrange(1, tr.counts[g] + 2)
        c = birth_cancel_pair(d, site_at(g, s), "birth").diagram
        pair = sorted(
            cid
            for cid in range(1, len(c.attrs) + 1)
            if c.attrs[cid - 1].label[:1] in ("g", "y")
            and c.attrs[cid - 1].label[1:].isdigit()
        )
        back = birth_cancel_pair(
            c, site_at(0, 1, components=(pair[0], pair[1])), "cancel"
        ).diagram
    else:
        xs = [i for i, e in enumerate(d.events) if e.kind == "X"]
        if not xs:
            return None
        i = rng.choice(xs)
        s = d.events[i].pos
        c = crossing_change(d, site_at(i, s, e1=i + 1)).diagram
        back = crossing_change(c, site_at(i, s, e1=i + 5)).diagram
    assert back.events == d.events, kind
    assert back.attrs == d.attrs, kind
    return kind


def test_criterion_5_move_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260808)

    done = 0
    while done < 500:
        if _inverse_pair_case(rng) is not None:
            done += 1

    done = 0
    while done < 500:
        d = random_diagram(rng, max_events=10)
        xs = [i for i, e in enumerate(d.events) if e.kind == "X"]
        if not xs:
            continue
        i = rng.choice(xs)
        s = d.events[i].pos
        prim = crossing_change(d, site_at(i, s, e1=i + 1)).diagram
        script = crossing_change_macro(d, site_at(i, s))
        final, _ = run_script(script)
        assert final.events == prim.events
        assert equivalent_up_to_normalization(final, prim)
        done += 1

    done = 0
    while done < 500:
        spin = rng.choice((1, 2))
        d = random_diagram(rng, spin=spin, max_events=8)
        assert check_spin_symmetry(d)
        kind = rng.choice(("clasp", "stabilize", "r1", "r2"))
        try:
            if kind == "clasp":
                site = _random_pair_site(rng, d)
                if site is None:
                    continue
                out = clasp(d, site_at(*site), "clasp").diagram
            elif kind == "stabilize":
                site = _random_strand_site(rng, d)
                if site is None:
                    continue
                g, s = site
                cid = trace_components(d).comp(g, s)
                out = stabilize(d, cid, site_at(g, s), "stabilize").diagram
            elif kind == "r1":
                site = _random_strand_site(rng, d)
                if site is None:
                    continue
                out = reidemeister(
                    d, "R1", site_at(*site), variant=rng.choice((1, 2))
                ).diagram
            else:
                i = rng.randrange(len(d.events))
                s = rng.randrange(1, 4)
                out = reidemeister(
                    d,
                    "R2",
                    site_at(i, s),
                    variant=rng.choice((1, 2, 3, 4)),
                    direction="forward",
                ).diagram
        except MoveError:
            continue
        assert check_spin_symmetry(out), kind
        assert validate_diagram(out) == []
        done += 1

    done = 0
    while done < 500:
        d = random_diagram(rng, max_events=10)
        chi = handle_census(d).euler
        pick = rng.choice(("stabilize", "clasp", "crossing", "r2", "tb_pair"))
        try:
            if pick == "stabilize":
                site = _random_strand_site(rng, d)
                if site is None:
                    continue
                g, s = site
                tr = trace_components(d)
                cid = tr.comp(g, s)
                if not tr.components[cid - 1].closed:
                    continue
                before = classical_invariants(d, cid)
                out = stabilize(d, cid, site_at(g, s), "stabilize").diagram
                after = classical_invariants(out, cid)
                assert after.tb - before.tb == -2
                assert after.rot == before.rot
            elif pick == "clasp":
                site = _random_pair_site(rng, d)
                if site is None:
                    continue
                g, s = site
                tr = trace_components(d)
                a = tr.comp(g, s)
                b = tr.comp(g, s + 1)
                out = clasp(d, site_at(g, s), "clasp").diagram

                def signed(dd, pair):
                    return sum(
                        sign
                        for (_i, cf, cb, sign) in crossing_data(dd)
                        if {cf, cb} <= pair
                    )

                delta = signed(out, {a, b}) - signed(d, {a, b})
                assert abs(delta) == 2
            elif pick == "crossing":
                xs = [i for i, e in enumerate(d.events) if e.kind == "X"]
                if not xs:
                    continue
                i = rng.choice(xs)
                out = crossing_change(
                    d, site_at(i, d.events[i].pos, e1=i + 1)
                ).diagram
            elif pick == "r2":
                i = rng.randrange(len(d.events))
                s = rng.randrange(1, 4)
                out = reidemeister(
                    d,
                    "R2",
                    site_at(i, s),
                    variant=rng.choice((1, 2, 3, 4)),
                    direction="forward",
                ).diagram
            else:
                dd, nid, np1 = trivial_bypass_pair()
                nc = len(trace_components(dd).components)
                out = cancel_trivial_bypass(dd, nid, np1).diagram
                assert nc - len(trace_components(out).components) == 2
                assert handle_census(out).euler == handle_census(dd).euler
                done += 1
                continue
        except MoveError:
            continue
        assert handle_census(out).euler == chi, pick
        done += 1

    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(5, f"4 x 500 randomized property cases, zero failures ({dt:.1f}s)")


def test_criterion_6_framing_maps():
    t0 = time.perf_counter()
    for n in range(2, 7):
        report = framing_map_check(n, samples=1000, tol=1e-9, seed=42)
        assert report.passed, report.as_dict()
        assert report.max_rotation_orth < 1e-9
        assert report.max_rotation_det < 1e-9
        assert report.max_extension_orth < 1e-9
        assert report.max_extension_det < 1e-9
        assert report.max_rotation_base < 1e-9
        assert report.max_first_column < 1e-9
        assert report.max_boundary_match < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(6, f"n in 2..6, 1000 samples each, residuals < 1e-9 ({dt:.1f}s)")


def test_criterion_7_ribbon_suite():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from test_ribbon import all_surfaces, oracle_invariants

    from kirbyfront.ribbon import (
        clasp_transpose,
        euler_characteristic,
        is_orientable,
        normalize_surface,
        surface_invariants,
    )

    t0 = time.perf_counter()
    three = all_surfaces(3)
    assert len(three) > 20
    for s in three:
        inv = surface_invariants(s)
        chi, circles = oracle_invariants(s)
        assert (inv.euler, inv.boundary_components) == (chi, circles)

    every = all_surfaces(4)
    four = [s for s in every if is_orientable(s)]
    assert (len(every), len(four)) == (882, 124)
    for s in four:
        steps = normalize_surface(s, "planar")
        cur = s
        for (disk, slot) in steps:
            cur = clasp_transpose(cur, disk, slot)
        assert surface_invariants(cur).genus == 0
        # connected dividing-set target (abstract surfaces: one-disk forms)
        if euler_characteristic(s) % 2 == 1 and len(s.disks) == 1:
            steps = normalize_surface(s, "connected")
            cur = s
            for (disk, slot) in steps:
                cur = clasp_transpose(cur, disk, slot)
            assert surface_invariants(cur).boundary_components == 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(
        7,
        f"oracle on {len(three)} surfaces, targets on {len(four)} ({dt:.1f}s)",
    )


def test_criterion_8_homology_oracle():
    t0 = time.perf_counter()
    rng = random.Random(314159)
    checked = 0
    while checked < 200:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det == 0:
            continue
        got = smith_normal_form(m)
        # brute-force oracle: determinantal divisors
        import math

        def minors(size):
            g = 0
            for rows in itertools.combinations(range(3), size):
                for cols in itertools.combinations(range(3), size):
                    sub = [[m[r][c] for c in cols] for r in rows]
                    if size == 1:
                        v = sub[0][0]
                    elif size == 2:
                        v = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
                    else:
                        v = det
                    g = math.gcd(g, abs(v))
            return g

        d1 = minors(1)
        d2 = minors(2)
        d3 = abs(det)
        want = [d1, d2 // d1, d3 // d2]
        assert got == want, (m, got, want)
        prod = 1
        for x in got:
            prod *= x
        assert prod == abs(det)
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(8, f"200 seeded matrices, invariant factors exact ({dt:.1f}s)")