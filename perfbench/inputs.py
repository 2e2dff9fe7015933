"""Seeded input generators.

Every input is built here from a ``random.Random`` by the benchmark's own
code; kirbyfront only contributes its data types.  Sizes are stratified
(each run gets the same mix of sizes and shapes, the seed decides the
rest), so that two seeds give runs of nearly the same cost.
"""

from __future__ import annotations

from kirbyfront.diagram import ComponentAttr, Event, FrontDiagram
from kirbyfront.ribbon import Band, DiskBandSurface

import oracle


def strata(rng, n):
    """n points of [0, 1), one in each n-th of the interval, in random
    order (one column of a Latin hypercube)."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _events(pairs):
    return tuple(Event(k, p) for k, p in pairs)


# ---------------------------------------------------------------------------
# Random decorated closed diagrams
# ---------------------------------------------------------------------------


def random_word(rng, n_events, max_strands=8):
    """A closed word of about n_events events built by replay: cusps are
    rarer than crossings, so strands wander and components are long."""
    word, cur = [], 0
    while len(word) < n_events or cur:
        if len(word) >= n_events:
            kind = "R"
        else:
            kinds = []
            if cur + 2 <= max_strands:
                kinds.append("L")
            if cur >= 2:
                kinds += ["X"] * 6 + ["R"]
            kind = rng.choice(kinds)
        if kind == "L":
            word.append(("L", rng.randrange(1, cur + 2)))
            cur += 2
        else:
            word.append((kind, rng.randrange(1, cur)))
            if kind == "R":
                cur -= 2
    return word


def random_diagram(rng, n_events, min_comp=4, max_comp=8):
    """A closed spin-0 diagram of about n_events events with min_comp to
    max_comp components, half of them (rounded down) carrying -1."""
    while True:
        word = random_word(rng, n_events)
        ncomp = oracle.component_count(word)
        if min_comp <= ncomp <= max_comp:
            break
    minus = set(rng.sample(range(1, ncomp + 1), ncomp // 2))
    attrs = tuple(
        ComponentAttr(label=f"c{c}", coefficient=-1 if c in minus else 0)
        for c in range(1, ncomp + 1)
    )
    return FrontDiagram(name="rand", events=_events(word), attrs=attrs)


# ---------------------------------------------------------------------------
# The plane-bundle family with kinks
# ---------------------------------------------------------------------------


def w_word(k, m):
    """W^k_m: a -1 unknot with 2k + m down zigzags and m up zigzags, so
    tb = 1 - 2(k + 1 + m) and rot = 2k (needs 2k + m >= 0)."""
    if 2 * k + m < 0:
        raise ValueError("W^k_m needs 2k + m >= 0")
    return (
        [("L", 1)]
        + [("L", 1), ("R", 2)] * (2 * k + m)
        + [("L", 2), ("R", 1)] * m
        + [("R", 1)]
    )


def r1_kink(s, variant):
    return [("L", s), ("X", s + 1), ("R", s)] if variant == 1 else [
        ("L", s + 1), ("X", s), ("R", s + 1)
    ]


def r2_kinks(word, counts, i):
    """The R2 (through-cusp) expansions of the cusp at word[i] that fit the
    strands around it: (replacement, variant, s) triples."""
    kind, p = word[i]
    cur = counts[i]
    out = []
    if kind == "L":
        if p >= 2:
            out.append(([("L", p - 1), ("X", p), ("X", p - 1)], 1, p - 1))
        if cur >= p:
            out.append(([("L", p + 1), ("X", p), ("X", p + 1)], 2, p))
    elif kind == "R":
        if p >= 2:
            out.append(([("X", p - 1), ("X", p), ("R", p - 1)], 3, p - 1))
        if cur >= p + 2:
            out.append(([("X", p + 1), ("X", p), ("R", p + 1)], 4, p))
    return out


def kinked_word(word, places):
    """Insert kinks at relative places.

    ``places`` holds (kind, u, v): kind "R1" or "R2", u in [0, 1) picks
    the position along the word and v in [0, 1) the strand (R1) or the
    expansion (R2).  Kinks go in from the right so positions computed on
    the base word stay valid.
    """
    word = list(word)
    counts = oracle.strand_counts(word)
    n = len(word)
    for kind, u, v in sorted(places, key=lambda x: -x[1]):
        if kind == "R1":
            g = 1 + int(u * (n - 1))
            s = 1 + int(v * counts[g])
            # the fraction of v left over after picking s picks the variant
            word[g:g] = r1_kink(s, 1 if v * counts[g] % 1 < 0.5 else 2)
        else:
            i = int(u * n)
            while not r2_kinks(word, counts, i):
                i = (i + 1) % n
            options = r2_kinks(word, counts, i)
            repl, _, _ = options[int(v * len(options))]
            word[i : i + 1] = repl
    return word


def w_diagram(k, m, places):
    """W^k_m with kinks at ``places`` (see kinked_word), as a diagram."""
    word = kinked_word(w_word(k, m), places)
    ncomp = oracle.component_count(word)
    if ncomp != 1:
        raise ValueError(f"kinked W^{k}_{m} has {ncomp} components")
    return FrontDiagram(
        name=f"w_{k}_{m}",
        events=_events(word),
        attrs=(ComponentAttr(label="w", coefficient=-1),),
    )


def front_text(d):
    """The .front text of a spin-0 closed diagram with plain decorations.

    Written here rather than with kirbyfront's serializer so that the
    input files do not change with the program under test."""
    lines = [f"diagram {d.name}", "spin 0", "left 0", "events"]
    lines += [f"  {e.kind}{e.pos}" for e in d.events]
    lines.append("end")
    for a in d.attrs:
        coeff = {1: " coeff +1", -1: " coeff -1"}.get(a.coefficient, "")
        lines.append(f"component {a.label}{coeff}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Disk-band surfaces
# ---------------------------------------------------------------------------


def _matchings(points):
    if not points:
        yield []
        return
    first = points[0]
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1 :]
        for m in _matchings(rest):
            yield [(first, points[j])] + m


def one_disk_classes(n_bands):
    """Every one-disk surface with n untwisted bands, one per class under
    rotation of the cyclic order and renaming of the bands: a list of
    cyclic foot orders over bands 0..n-1."""
    seen, out = set(), []
    size = 2 * n_bands
    for m in _matchings(list(range(size))):
        ring = [None] * size
        for b, (x, y) in enumerate(m):
            ring[x], ring[y] = (b, 0), (b, 1)
        key = min(_shape(ring[r:] + ring[:r]) for r in range(size))
        if key not in seen:
            seen.add(key)
            out.append(ring)
    return out


def _shape(ring):
    """A ring of feet as the sequence of chord lengths, which forgets band
    names and end labels."""
    first = {}
    out = []
    for k, (b, _e) in enumerate(ring):
        if b in first:
            out.append(k - first[b])
        else:
            first[b] = k
            out.append(0)
    return tuple(out)


def random_two_disk(rng, n_bands, genus):
    """A connected orientable surface of the given genus with n bands on
    two disks."""
    while True:
        colour = {"p": 0, "q": rng.randrange(2)}
        order = {"p": [], "q": []}
        twists = {}
        for b in range(n_bands):
            d0, d1 = rng.choice("pq"), rng.choice("pq")
            twists[b] = rng.choice((0, 2)) + (colour[d0] ^ colour[d1])
            order[d0].append((b, 0))
            order[d1].append((b, 1))
        for ring in order.values():
            rng.shuffle(ring)
        inv = oracle.surface_oracle((["p", "q"], twists, order))
        if inv["connected"] and inv["orientable"] and inv["genus"] == genus:
            return ["p", "q"], twists, order


def present(rng, disks, twists, order, tag):
    """A seeded presentation of an abstract surface: fresh disk and band
    names, each band's ends possibly swapped, untwisted bands possibly
    given two half twists, every cyclic order rotated."""
    dname = {d: f"{tag}d{i}{rng.randrange(100)}" for i, d in enumerate(disks)}
    bands = list(twists)
    rng.shuffle(bands)
    bname = {b: f"{tag}b{i}{rng.randrange(100)}" for i, b in enumerate(bands)}
    swap = {b: rng.randrange(2) for b in bands}
    new_order = {}
    for d in disks:
        ring = [(bname[b], e ^ swap[b]) for b, e in order[d]]
        r = rng.randrange(len(ring)) if ring else 0
        new_order[dname[d]] = tuple(ring[r:] + ring[:r])
    new_bands = []
    for b in bands:
        extra = 2 * rng.randrange(2) if twists[b] % 2 == 0 else 0
        new_bands.append(Band(bname[b], twists[b] + extra))
    return DiskBandSurface(
        disks=tuple(dname[d] for d in disks), bands=tuple(new_bands), order=new_order
    )


def ribbon_text(s):
    """The .ribbon text of a surface, with explicit order lines (written
    here for the same reason as front_text)."""
    lines = [f"disk {d}" for d in s.disks]
    where = {}
    for d in s.disks:
        for k, foot in enumerate(s.order[d]):
            where[foot] = f"{d}.{k}"
    for b in s.bands:
        line = f"band {b.name} {where[(b.name, 0)]} {where[(b.name, 1)]}"
        if b.half_twists:
            line += f" twists {b.half_twists}"
        lines.append(line)
    for d in s.disks:
        lines.append(f"order {d}: " + " ".join(f"{b}.{e}" for b, e in s.order[d]))
    return "\n".join(lines) + "\n"

