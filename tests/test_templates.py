"""Differential test: every matcher in moves and macros reads the template
that inserts it.  The hand-written matchers they replaced are kept below
verbatim as oracles and compared with the moves on every window of a
seeded corpus."""

import random
from dataclasses import replace

from kirbyfront.diagram import (
    COEFF_MINUS,
    Event,
    FrontDiagram,
    default_attrs,
    strand_counts,
)
from kirbyfront.families import cieliebak_diagram, stabilized_unknot
from kirbyfront.macros import _find_junction, destabilize_macro
from kirbyfront.moves import (
    MoveError,
    _reduction_at,
    _require,
    _spin_splice,
    clasp,
    handleslide,
    normalize,
    reidemeister,
    site_at,
    stabilize,
)
from kirbyfront.scripts import apply_step
from kirbyfront.wordops import exchange_canonical

from conftest import random_diagram

# ---------------------------------------------------------------------------
# The matchers as they were, kept as oracles
# ---------------------------------------------------------------------------


def _oracle_reduction_at(events, i):
    if i + 3 > len(events):
        return None
    a, b, c = events[i : i + 3]
    p = a.pos
    if a.kind == "L":
        if (b.kind, b.pos, c.kind, c.pos) == ("X", p + 1, "R", p):
            return ()
        if p >= 2 and (b.kind, b.pos, c.kind, c.pos) == ("X", p - 1, "R", p):
            return ()
        if (b.kind, b.pos, c.kind, c.pos) == ("X", p + 1, "X", p):
            return (Event("L", p + 1),)
        if p >= 2 and (b.kind, b.pos, c.kind, c.pos) == ("X", p - 1, "X", p):
            return (Event("L", p - 1),)
    if a.kind == "X":
        if (b.kind, b.pos, c.kind, c.pos) == ("X", p + 1, "R", p):
            return (Event("R", p + 1),)
        if p >= 2 and (b.kind, b.pos, c.kind, c.pos) == ("X", p - 1, "R", p):
            return (Event("R", p - 1),)
    return None


def _oracle_composite_junction(w, s):
    if len(w) != 7:
        return False
    kinds = tuple(e.kind for e in w)
    poss = tuple(e.pos for e in w)
    return kinds == ("L", "R", "L", "X", "R", "R", "L") and poss == (
        s + 2,
        s + 1,
        s,
        s + 1,
        s + 2,
        s,
        s,
    )


def _oracle_slide_back_matches(d, site):
    i = site.e0
    width = site.e1 - site.e0
    w = d.events[i : i + width]
    kinds = tuple(e.kind for e in w)
    plain = (width == 3 and kinds == ("X", "R", "L")) or (
        width == 4 and kinds == ("X", "R", "L", "X")
    )
    return (plain and all(e.pos == site.s0 for e in w)) or _oracle_composite_junction(
        w, site.s0
    )


def _oracle_unclasp_matches(d, site):
    s = site.s0
    w = d.events[site.e0 : site.e0 + 2]
    return len(w) == 2 and all(e.kind == "X" and e.pos == s for e in w)


def _oracle_find_junction(d, exclude=()):
    hits = [
        j
        for j in range(len(d.events) - 2)
        if j not in exclude
        and tuple(e.kind for e in d.events[j : j + 3]) == ("X", "R", "L")
        and len({e.pos for e in d.events[j : j + 3]}) == 1
    ]
    _require(len(hits) == 1, f"expected one slide junction, found {len(hits)}")
    return hits[0], d.events[hits[0]].pos


def _oracle_normalize(d):
    def canon(x):
        return exchange_canonical(x) if x.spin == 0 else x

    cur = canon(d)
    while True:
        events = cur.events
        applied = None
        for i in range(len(events)):
            repl = _oracle_reduction_at(events, i)
            if repl is None:
                continue
            try:
                applied = _spin_splice(cur, i, i + 3, repl)
                break
            except MoveError:
                continue
        if applied is None:
            return cur
        cur = canon(applied.diagram)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except MoveError as exc:
        return type(exc).__name__, str(exc)


def _kinked(rng, d, kinks):
    """``d`` with up to ``kinks`` R1 and R2 kinks inserted at random sites."""
    for _ in range(kinks):
        counts = strand_counts(d.events, d.left_count)
        i = rng.randrange(len(d.events) + 1)
        move = rng.choice(("R1", "R2"))
        variant = rng.choice((1, 2)) if move == "R1" else rng.choice((1, 2, 3, 4))
        site = site_at(i, rng.randrange(1, counts[i] + 2))
        out = _outcome(reidemeister, d, move, site, variant=variant)
        if not isinstance(out, tuple):
            d = out.diagram
    return d


def _macro_states(d, c, site):
    """Every diagram the destabilization macro passes through; the slide
    back of its panel 8 spans the junction whose crossing was changed."""
    states = [d]
    for step in destabilize_macro(d, c, site).steps:
        states.append(apply_step(states[-1], step).diagram)
    return states


def _corpus():
    rng = random.Random(7707)
    out = []
    for k in range(160):
        spin = k % 2
        d = random_diagram(rng, spin=spin, max_events=6 + k % 12)
        out.append(d)
        if spin == 0:
            out.append(_kinked(rng, d, 2))
    for k in range(-2, 3):
        for m in range(1, 41):
            out.append(_kinked(rng, cieliebak_diagram(k, m), 1 + m % 3))
    # slid diagrams: plain junctions, axis necks and changed junctions
    out += _macro_states(stabilized_unknot(), 1, site_at(1, 1))
    for k, m in ((0, 1), (1, 2), (-1, 3)):
        w = stabilize(cieliebak_diagram(k, m), 1, site_at(1, 1)).diagram
        out += _macro_states(w, 1, site_at(1, 1))
    for spin in (0, 1):
        slid = handleslide(_two_unknots(spin), 1, 2, "minus_up", site_at(2, 2))
        out.append(slid.diagram)
    return out


def _two_unknots(spin):
    """Unknot 1 below a -1 unknot 2: a palindrome, so valid at any spin."""
    events = (Event("L", 1), Event("L", 3), Event("R", 3), Event("R", 1))
    d = default_attrs(FrontDiagram(spin=spin, events=events))
    return replace(d, attrs=(d.attrs[0], replace(d.attrs[1], coefficient=COEFF_MINUS)))


CORPUS = _corpus()


def _windows(d):
    """Every (event index, slot) a template can start at: none starts above
    count + 1, the highest slot a left cusp can open at."""
    counts = strand_counts(d.events, d.left_count)
    return [(i, s) for i, n in enumerate(counts) for s in range(1, n + 2)]


def test_reductions_read_the_r_templates():
    hits = 0
    for d in CORPUS:
        for i in range(len(d.events) + 1):
            want = _oracle_reduction_at(d.events, i)
            assert _reduction_at(d.events, i) == want, (d.events, i)
            hits += want is not None
    assert hits > 150


def test_unclasp_matches_the_clasp_template():
    mismatch = ("MoveError", "unclasp site does not match the clasped template")
    hits = 0
    for d in CORPUS:
        for i, s in _windows(d):
            site = site_at(i, s, e1=i + 2)
            want = _oracle_unclasp_matches(d, site)
            got = _outcome(clasp, d, site, "unclasp")
            assert (got != mismatch) == want, (d.events, i, s)
            hits += want
    assert hits > 100


def test_slide_back_matches_its_blocks():
    """Whether a slide-back site matches depends on its window and slot
    alone, so each distinct (window, slot) is tried once."""
    mismatch = ("MoveError", "slide-back site does not match a junction")
    hits = {3: 0, 4: 0, 7: 0}
    seen = set()
    for d in CORPUS:
        minus = [c + 1 for c, a in enumerate(d.attrs) if a.coefficient == COEFF_MINUS]
        if not minus:
            continue
        for i, s in _windows(d):
            for width in hits:
                if (d.events[i : i + width], s) in seen:
                    continue
                seen.add((d.events[i : i + width], s))
                site = site_at(i, s, e1=i + width)
                want = _oracle_slide_back_matches(d, site)
                got = _outcome(handleslide, d, 1, minus[0], "minus_up", site)
                assert (got != mismatch) == want, (d.events, i, s, width)
                hits[width] += want
    assert len(seen) > 10000 and min(hits.values()) > 0
    # every other width is a forward slide, whose site is an insertion point
    d = CORPUS[-1]
    for width in range(1, 10):
        site = site_at(0, 1, e1=width)
        got = _outcome(handleslide, d, 1, 2, "minus_up", site)
        forward = got == ("MoveError", "handleslide site is an insertion point")
        assert forward == (width not in hits)


def test_find_junction_matches_the_junction_template():
    found = 0
    for d in CORPUS:
        want = _outcome(_oracle_find_junction, d)
        assert _outcome(_find_junction, d) == want, d.events
        found += not isinstance(want[0], str)
    assert found > 10


def test_normalize_matches_parent_on_r1_probe():
    rng = random.Random(11)
    done = 0
    while done < 200:
        d = random_diagram(rng, max_events=12)
        counts = strand_counts(d.events, 0)
        i = rng.randrange(len(d.events) + 1)
        site = site_at(i, rng.randrange(1, counts[i] + 2))
        kinked = _outcome(reidemeister, d, "R1", site, variant=rng.choice((1, 2)))
        if isinstance(kinked, tuple):
            continue
        for x in (d, kinked.diagram):
            assert normalize(x) == _oracle_normalize(x), x.events
        done += 1
