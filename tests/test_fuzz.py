"""Randomized cross-move safety net.

Applies random moves at random sites on random diagrams (spins 0-2) and
checks the universal contracts: outputs replay, spun outputs stay
palindromic, the handle census is untouched, and every slide-back that
fires restores the pre-slide word exactly, wherever its site was found.
"""

import random
from dataclasses import replace

from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_PLUS,
    check_spin_symmetry,
    trace_components,
    validate_diagram,
)
from kirbyfront.invariants import handle_census
from kirbyfront.moves import (
    MoveError,
    birth_cancel_pair,
    clasp,
    exchange,
    handleslide,
    reidemeister,
    site_at,
    stabilize,
    uplus,
)
from kirbyfront.wordops import exchange_canonical

from conftest import random_diagram

SLIDE_VARIANTS = [(sign, way) for sign in ("minus", "plus") for way in ("up", "down")]


def test_randomized_move_contracts():
    rng = random.Random(13579)
    applied = 0
    trials = 0
    while applied < 700 and trials < 8000:
        trials += 1
        spin = rng.choice((0, 0, 0, 1, 2))
        d = random_diagram(rng, spin=spin, max_events=12)
        tr = trace_components(d)
        chi = handle_census(d).euler
        kind = rng.choice(
            ("clasp", "stab", "uplus", "slide", "slideback", "xchg", "r1", "r2", "birth")
        )
        try:
            if kind == "clasp":
                sites = [
                    (g, s)
                    for g in range(len(d.events) + 1)
                    for s in range(1, tr.counts[g])
                ]
                if not sites:
                    continue
                g, s = rng.choice(sites)
                out = clasp(d, site_at(g, s), "clasp")
                if spin == 0:
                    back = clasp(out.diagram, site_at(g, s), "unclasp")
                    assert back.diagram.events == d.events
            elif kind == "stab":
                sites = [
                    (g, s)
                    for g in range(len(d.events) + 1)
                    for s in range(1, tr.counts[g] + 1)
                ]
                if not sites:
                    continue
                g, s = rng.choice(sites)
                cid = tr.comp(g, s)
                out = stabilize(d, cid, site_at(g, s), "stabilize")
                if spin == 0:
                    back = stabilize(out.diagram, cid, site_at(g, s), "destabilize")
                    assert back.diagram.events == d.events
            elif kind == "uplus":
                cands = [
                    (g, s, tr.comp(g, s), tr.comp(g, s + 1))
                    for g in range(len(d.events) + 1)
                    for s in range(1, tr.counts[g])
                    if tr.comp(g, s) != tr.comp(g, s + 1)
                ]
                if not cands:
                    continue
                g, s, a, b = rng.choice(cands)
                if d.attrs[a - 1].coefficient and d.attrs[b - 1].coefficient:
                    continue
                out = uplus(d, a, b, site_at(g, s))
            elif kind in ("slide", "slideback"):
                sign, direction = rng.choice(SLIDE_VARIANTS)
                if sign == "plus":
                    # slide over +1 unknots: the -1 components become +1
                    d = replace(d, attrs=tuple(
                        replace(a, coefficient=COEFF_PLUS) if a.coefficient else a
                        for a in d.attrs
                    ))
                    chi = handle_census(d).euler
                coeff = COEFF_PLUS if sign == "plus" else COEFF_MINUS
                # slot offsets of the moving strand and of `over`: the
                # moving strand runs below `over` for an up slide
                dm, do = (0, 1) if direction == "up" else (1, 0)
                cands = [
                    (g, s, tr.comp(g, s + dm), tr.comp(g, s + do))
                    for g in range(len(d.events) + 1)
                    for s in range(1, tr.counts[g])
                    if tr.comp(g, s) != tr.comp(g, s + 1)
                    and d.attrs[tr.comp(g, s + do) - 1].coefficient == coeff
                    and tr.components[tr.comp(g, s + do) - 1].closed
                ]
                if not cands:
                    continue
                g, s, m, o = rng.choice(cands)
                out = handleslide(d, m, o, f"{sign}_{direction}", site_at(g, s))
                assert (
                    len(trace_components(out.diagram).components)
                    == len(tr.components)
                )
                if kind == "slideback":
                    evs = out.diagram.events
                    restored = False
                    for width in (4, 3):
                        for j in range(len(evs) - width + 1):
                            kinds = tuple(e.kind for e in evs[j : j + width])
                            if width == 4 and kinds != ("X", "R", "L", "X"):
                                continue
                            if width == 3 and kinds != ("X", "R", "L"):
                                continue
                            if len({e.pos for e in evs[j : j + width]}) != 1:
                                continue
                            try:
                                back = handleslide(
                                    out.diagram,
                                    out.old_to_new[m],
                                    out.old_to_new[o],
                                    # the variant of the coefficient of `over`
                                    f"{sign}_down",
                                    site_at(j, evs[j].pos, e1=j + width),
                                )
                            except MoveError:
                                continue
                            # any slide-back that fires must be exact
                            assert back.diagram.events == d.events
                            restored = True
                        if restored:
                            break
                    assert restored
            elif kind == "xchg":
                if len(d.events) < 2:
                    continue
                i = rng.randrange(len(d.events) - 1)
                out = exchange(d, site_at(i, 1, e1=i + 2))
                if spin == 0:
                    back = exchange(out.diagram, site_at(i, 1, e1=i + 2))
                    assert (
                        exchange_canonical(back.diagram).events
                        == exchange_canonical(d).events
                    )
            elif kind in ("r1", "r2"):
                i = rng.randrange(len(d.events) + 1)
                s = rng.randrange(1, 5)
                v = rng.choice((1, 2)) if kind == "r1" else rng.choice((1, 2, 3, 4))
                out = reidemeister(
                    d,
                    kind.upper(),
                    site_at(i, s),
                    variant=v,
                    direction=rng.choice(("forward", "reverse")),
                )
            else:
                g = rng.randrange(len(d.events) + 1)
                s = rng.randrange(1, tr.counts[g] + 2)
                out = birth_cancel_pair(d, site_at(g, s), "birth")
        except MoveError:
            continue
        res = out.diagram
        assert validate_diagram(res) == []
        if spin > 0:
            assert check_spin_symmetry(res)
        assert handle_census(res).euler == chi
        applied += 1
    assert applied == 700
