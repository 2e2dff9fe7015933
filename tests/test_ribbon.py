import itertools
import random
import sys
from collections import deque
from dataclasses import dataclass

import pytest

from kirbyfront import ribbon
from kirbyfront.cli import main
from kirbyfront.ribbon import (
    Band,
    DiskBandSurface,
    RibbonError,
    boundary_components,
    canonical_key,
    clasp_transpose,
    euler_characteristic,
    is_connected,
    is_orientable,
    normalize_surface,
    parse_ribbon,
    serialize_ribbon,
    surface_invariants,
)


def surf(text):
    return parse_ribbon(text)


def test_annulus():
    inv = surface_invariants(surf("disk d\nband b d.0 d.1\n"))
    assert (inv.genus, inv.boundary_components, inv.euler) == (0, 2, 0)


def test_once_punctured_torus():
    inv = surface_invariants(surf("disk d\nband a d.0 d.2\nband b d.1 d.3\n"))
    assert (inv.genus, inv.boundary_components, inv.euler) == (1, 1, -1)


def test_pair_of_pants():
    inv = surface_invariants(surf("disk d\nband a d.0 d.1\nband b d.2 d.3\n"))
    assert (inv.genus, inv.boundary_components, inv.euler) == (0, 3, -1)


def test_moebius_band():
    inv = surface_invariants(surf("disk d\nband b d.0 d.1 twists 1\n"))
    assert not inv.orientable
    assert (inv.boundary_components, inv.euler) == (1, 0)


def test_transpose_trades_genus_for_boundary():
    s = surf("disk d\nband a d.0 d.2\nband b d.1 d.3\n")
    t = clasp_transpose(s, "d", 0)
    inv = surface_invariants(t)
    assert (inv.genus, inv.boundary_components) == (0, 3)
    assert euler_characteristic(t) == euler_characteristic(s)
    assert is_orientable(t) == is_orientable(s)


def test_transpose_involution():
    s = surf("disk d\nband a d.0 d.2\nband b d.1 d.3\n")
    assert clasp_transpose(clasp_transpose(s, "d", 1), "d", 1).order == s.order


def test_transpose_same_band_keeps_invariants():
    s = surf("disk d\nband b d.0 d.1\n")
    t = clasp_transpose(s, "d", 0)
    assert surface_invariants(t) == surface_invariants(s)


def test_normalize_planar_and_connected():
    s = surf("disk d\nband a d.0 d.2\nband b d.1 d.3\n")
    steps = normalize_surface(s, "planar")
    assert len(steps) == 1
    p = surf("disk d\nband a d.0 d.1\nband b d.2 d.3\n")
    steps2 = normalize_surface(p, "connected")
    cur = p
    for (disk, slot) in steps2:
        cur = clasp_transpose(cur, disk, slot)
    assert surface_invariants(cur).boundary_components == 1


def test_normalize_connected_rejects_even_euler():
    s = surf("disk d\nband b d.0 d.1\n")
    with pytest.raises(RibbonError, match="odd Euler"):
        normalize_surface(s, "connected")


def test_ribbon_round_trip():
    s = surf("disk d\ndisk e\nband a d.0 e.0\nband b d.1 e.1 twists 2\n")
    t = parse_ribbon(serialize_ribbon(s))
    assert t.order == s.order and t.bands == s.bands


@pytest.mark.parametrize(
    "text, message",
    [
        ("disk d\nband a d.0 d.1\norder d: a0 a.1\n", "foot spec 'a0'"),
        ("disk d\nband a d.0 d.1\norder d: a.0 a.y\n", "not an integer"),
        ("disk d\nband a d.0 d.1\nband a d.2 d.3\norder d: a.0 a.1 z.0 z.1\n",
         "declared twice"),
        ("disk d\nband a d.0 d.1\nband b d.2 d.3\norder e: a.0 b.0 a.1 b.1\n",
         "line 4: order for undeclared disk e"),
        ("disk d\nband a d.0 d.1\norder d: a.0 a.1\norder d: a.1 a.0\n",
         "line 4: second order line for disk d"),
        ("disk d\ndisk d\nband a d.0 d.1\n", "line 2: disk d declared twice"),
        ("disk d\nband a d.0 e.1\n", "line 2: foot a.1 on undeclared disk e"),
        ("disk d\nband a d.0 d.1\nband b d.1 d.2\n",
         "line 3: slot d.1 is already taken by band a on line 2"),
        ("disk d\nband a d.0 d.0\n",
         "line 2: slot d.0 is already taken by band a on line 2"),
    ],
)
def test_parse_rejects_malformed_order_lines(text, message):
    with pytest.raises(RibbonError, match=message):
        parse_ribbon(text)


def test_parse_reads_a_band_line_before_its_disk_line():
    early = parse_ribbon("band a d.0 d.2\nband b d.1 d.3\ndisk d\n")
    assert early == surf("disk d\nband a d.0 d.2\nband b d.1 d.3\n")
    assert surface_invariants(early).genus == 1


# ---------------------------------------------------------------------------
# brute-force oracle: polygonal identification
# ---------------------------------------------------------------------------


def oracle_invariants(s):
    """Independent Euler characteristic and boundary count.

    Build the surface as a CW complex: each disk with k feet is a polygon
    with 2k corner vertices, k foot edges and k free arc edges; each band
    is a rectangle sharing its two foot edges with the disks (so it only
    adds two free side edges, joining plus to minus corners when
    untwisted, plus to plus when odd).  Count V - E + F, and walk the free
    edges for boundary circles.
    """
    vertices = set()
    free_edges = []
    foot_edges = 0
    faces = 0
    corner = {}

    for d in s.disks:
        feet = s.order[d]
        n = len(feet)
        faces += 1
        if n == 0:
            v = ("disk", d)
            vertices.add(v)
            free_edges.append((v, v))
            continue
        for k, foot in enumerate(feet):
            a = ("c", d, k, "-")
            b = ("c", d, k, "+")
            corner[foot] = (a, b)
            vertices.update((a, b))
            foot_edges += 1
            nxt = ("c", d, (k + 1) % n, "-")
            free_edges.append((b, nxt))

    for band in s.bands:
        faces += 1
        a0, b0 = corner[(band.name, 0)]
        a1, b1 = corner[(band.name, 1)]
        if band.half_twists % 2 == 0:
            free_edges.append((b0, a1))
            free_edges.append((a0, b1))
        else:
            free_edges.append((b0, b1))
            free_edges.append((a0, a1))

    total_edges = foot_edges + len(free_edges)
    chi = len(vertices) - total_edges + faces

    adj = {}
    for (a, b) in free_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set()
    circles = 0
    for v in adj:
        if v in seen:
            continue
        circles += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x])
    return chi, circles


def all_surfaces(max_bands):
    """Enumerate connected disk-band surfaces with <= max_bands bands."""
    out = []
    for nbands in range(1, max_bands + 1):
        for ndisks in (1, 2):
            if ndisks > nbands + 1:
                continue
            disks = [f"d{i}" for i in range(ndisks)]
            feet = [(f"b{j}", e) for j in range(nbands) for e in (0, 1)]
            # distribute feet among disks then choose cyclic orders
            for assignment in itertools.product(range(ndisks), repeat=len(feet)):
                per = {d: [] for d in disks}
                for foot, where in zip(feet, assignment):
                    per[disks[where]].append(foot)
                if any(not per[d] for d in disks):
                    continue
                # cyclic orders: fix first foot of each disk, permute the rest
                choices = []
                for d in disks:
                    head, rest = per[d][0], per[d][1:]
                    perms = [
                        (head,) + p for p in itertools.permutations(rest)
                    ] or [(head,)]
                    choices.append(perms)
                for combo in itertools.product(*choices):
                    order = dict(zip(disks, combo))
                    for twists in itertools.product((0, 1), repeat=nbands):
                        bands = tuple(
                            Band(name=f"b{j}", half_twists=t)
                            for j, t in enumerate(twists)
                        )
                        try:
                            s = DiskBandSurface(
                                disks=tuple(disks), bands=bands, order=order
                            )
                        except RibbonError:
                            continue
                        if is_connected(s):
                            out.append(s)
    # dedup by canonical key
    seen = set()
    uniq = []
    for s in out:
        k = canonical_key(s)
        if k not in seen:
            seen.add(k)
            uniq.append(s)
    return uniq


def test_invariants_match_polygonal_oracle_up_to_three_bands():
    surfaces = all_surfaces(3)
    assert len(surfaces) > 20
    for s in surfaces:
        inv = surface_invariants(s)
        chi, circles = oracle_invariants(s)
        assert inv.euler == chi, serialize_ribbon(s)
        assert inv.boundary_components == circles, serialize_ribbon(s)


def test_normalization_reaches_all_targets_up_to_four_bands():
    # planar is reachable from every connected orientable presentation;
    # connected boundary from every single-disk presentation with odd chi
    # (abstract surfaces always admit a one-disk form)
    surfaces = [s for s in all_surfaces(4) if is_orientable(s)]
    assert surfaces
    for s in surfaces:
        steps = normalize_surface(s, "planar")
        cur = s
        for (disk, slot) in steps:
            cur = clasp_transpose(cur, disk, slot)
        assert surface_invariants(cur).genus == 0
        if euler_characteristic(s) % 2 == 1 and len(s.disks) == 1:
            steps = normalize_surface(s, "connected")
            cur = s
            for (disk, slot) in steps:
                cur = clasp_transpose(cur, disk, slot)
            assert surface_invariants(cur).boundary_components == 1


def test_dumbbell_connected_target_is_obstructed():
    # Adjacent foot transpositions never move a foot between disks, so the
    # two-vertex dumbbell presentation is rigid: its reachable set is the
    # single invariant pair (0, 3) (verified exhaustively) and the
    # connected-boundary search reports failure rather than looping.
    s = surf(
        "disk d0\ndisk d1\n"
        "band b0 d0.0 d0.1\nband b1 d0.2 d1.0\nband b2 d1.1 d1.2\n"
    )
    assert surface_invariants(s) == surface_invariants(s.__class__(
        disks=s.disks, bands=s.bands, order=s.order))
    assert euler_characteristic(s) % 2 == 1
    with pytest.raises(RibbonError, match="no transposition sequence"):
        normalize_surface(s, "connected")


# ---------------------------------------------------------------------------
# differential test: the integer-dart key against the name-based original
# ---------------------------------------------------------------------------


def _foot_disk(s, band, end):
    """The linear scan the original key used to find a foot's disk."""
    for d in s.disks:
        if (band, end) in s.order[d]:
            return d
    raise RibbonError(f"foot ({band}, {end}) not attached")


# The name-based key the integer-dart key replaced, kept verbatim as the
# reference; only its ``s.foot_disk`` method call became the function above.
def old_canonical_key(s):
    """Hash key invariant under disk/band relabeling and rotation of each
    cyclic order, for BFS visited-set pruning."""
    twists = {b.name: b.half_twists % 2 for b in s.bands}

    best = None
    # canonical labels: try each disk/rotation as the starting point
    def relabel(start_disk, start_rot):
        band_ids = {}
        disk_ids = {}
        out = []
        queue = deque([(start_disk, start_rot)])
        seen = set()
        while queue:
            d, rot = queue.popleft()
            if d in seen:
                continue
            seen.add(d)
            disk_ids.setdefault(d, len(disk_ids))
            feet = s.order[d]
            n = len(feet)
            row = []
            for k in range(n):
                band, end = feet[(rot + k) % n]
                if band not in band_ids:
                    band_ids[band] = len(band_ids)
                    od = _foot_disk(s, band, 1 - end)
                    ok = s.order[od].index((band, 1 - end))
                    queue.append((od, ok))
                row.append((band_ids[band], twists[band]))
            out.append(tuple(row))
        for d in s.disks:
            if d not in seen:
                return None  # disconnected start; only used on connected
        return tuple(out)

    for d in s.disks:
        for rot in range(max(1, len(s.order[d]))):
            key = relabel(d, rot)
            if key is not None and (best is None or key < best):
                best = key
    if best is None:
        # disconnected: fall back to sorted naive key
        rows = []
        for d in sorted(s.disks):
            rows.append(tuple(s.order[d]))
        best = tuple(rows)
    return best


def _matchings(points):
    if not points:
        yield []
        return
    a = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for m in _matchings(rest):
            yield [(a, points[i])] + m


def one_disk_classes(nbands):
    """One untwisted one-disk surface per class (the original key decides)."""
    seen, out = set(), []
    for m in _matchings(list(range(2 * nbands))):
        ring = [None] * (2 * nbands)
        for j, (x, y) in enumerate(m):
            ring[x], ring[y] = (f"b{j}", 0), (f"b{j}", 1)
        s = DiskBandSurface(
            disks=("d",),
            bands=tuple(Band(f"b{j}") for j in range(nbands)),
            order={"d": tuple(ring)},
        )
        k = old_canonical_key(s)
        if k not in seen:
            seen.add(k)
            out.append(s)
    return out


def random_two_disk(rng, nbands, odd):
    """A connected two-disk surface with nbands bands, odd of them twisted."""
    while True:
        order = {"p": [], "q": []}
        for j in range(nbands):
            order[rng.choice("pq")].append((f"b{j}", 0))
            order[rng.choice("pq")].append((f"b{j}", 1))
        if not order["p"] or not order["q"]:
            continue
        for ring in order.values():
            rng.shuffle(ring)
        flip = set(rng.sample(range(nbands), odd))
        bands = tuple(
            Band(f"b{j}", rng.choice((1, -1, 3)) if j in flip else rng.choice((0, 2)))
            for j in range(nbands)
        )
        s = DiskBandSurface(disks=("p", "q"), bands=bands, order=order)
        if is_connected(s):
            return s


def random_three_disk(rng, nbands):
    """A connected orientable surface on disks p, q (colour 0) and r
    (colour 1): a band is odd exactly when it joins different colours.  An
    isomorphism that forgets the twists may swap the colours, so these
    searches see the twist bit of the key."""
    colour = {"p": 0, "q": 0, "r": 1}
    while True:
        order = {d: [] for d in colour}
        ends = []
        for j in range(nbands):
            ends.append((rng.choice("pqr"), rng.choice("pqr")))
            for e, d in enumerate(ends[-1]):
                order[d].append((f"b{j}", e))
        if not all(order.values()):
            continue
        for ring in order.values():
            rng.shuffle(ring)
        bands = tuple(
            Band(f"b{j}", rng.choice((1, -1, 3) if colour[d0] != colour[d1] else (0, 2)))
            for j, (d0, d1) in enumerate(ends)
        )
        s = DiskBandSurface(disks=tuple(colour), bands=bands, order=order)
        if is_connected(s):
            return s


def renamed_copy(rng, s):
    """Fresh disk and band names, shuffled declaration order, every cyclic
    order rotated."""
    dname = {d: f"D{rng.randrange(1000)}_{i}" for i, d in enumerate(s.disks)}
    bname = {b.name: f"B{rng.randrange(1000)}_{i}" for i, b in enumerate(s.bands)}
    order = {}
    for d in s.disks:
        ring = [(bname[b], e) for (b, e) in s.order[d]]
        r = rng.randrange(len(ring)) if ring else 0
        order[dname[d]] = tuple(ring[r:] + ring[:r])
    disks = [dname[d] for d in s.disks]
    bands = [Band(bname[b.name], b.half_twists) for b in s.bands]
    rng.shuffle(disks)
    rng.shuffle(bands)
    return DiskBandSurface(disks=tuple(disks), bands=tuple(bands), order=order)


def differential_corpus():
    rng = random.Random(20241004)
    base = [s for n in (3, 4, 5) for s in one_disk_classes(n)]
    base += [
        random_two_disk(rng, n, odd)
        for n in (3, 4, 5)
        for odd in (0, 1, 2)
        for _ in range(12)
    ]
    return base + [renamed_copy(rng, s) for s in base]


# the search the dart-row search replaced, kept verbatim as the reference;
# only canonical_key became old_canonical_key and NODE_CAP is its own
OLD_NODE_CAP = 200000


def old_normalize_surface(s, target):
    """Breadth-first search over adjacent transpositions to the target.

    target "planar" stops at genus 0; "connected" stops at one boundary
    circle and requires odd Euler characteristic (chi = 1 - 2g forces
    b = 1 on the handlebody side).  Returns the list of (disk, slot)
    transposition steps; replaying them reproduces the target invariants.
    """
    if target not in ("planar", "connected"):
        raise RibbonError(f"unknown normalization target {target!r}")
    inv = surface_invariants(s, require_connected=True)
    if not inv.orientable:
        raise RibbonError("normalization needs an orientable surface")
    if target == "connected" and euler_characteristic(s) % 2 == 0:
        raise RibbonError(
            "connected-boundary target needs odd Euler characteristic"
        )

    def done(inv):
        if target == "planar":
            return inv.genus == 0
        return inv.boundary_components == 1

    if done(inv):
        return []
    seen = {old_canonical_key(s)}
    queue = deque([(s, [])])
    expanded = 0
    while queue:
        cur, path = queue.popleft()
        expanded += 1
        if expanded > OLD_NODE_CAP:
            raise RibbonError(f"search budget exceeded ({OLD_NODE_CAP} nodes)")
        for disk in cur.disks:
            n = len(cur.order[disk])
            if n < 2:
                continue
            for slot in range(n):
                nxt = clasp_transpose(cur, disk, slot)
                key = old_canonical_key(nxt)
                if key in seen:
                    continue
                seen.add(key)
                steps = path + [(disk, slot)]
                if done(surface_invariants(nxt)):
                    return steps
                queue.append((nxt, steps))
    raise RibbonError("no transposition sequence reaches the target")


def count_calls(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that counts its calls in calls[name]."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _outcome(search, s, target):
    try:
        return search(s, target)
    except RibbonError as exc:
        return str(exc)


def test_canonical_key_matches_original_on_seeded_corpus(monkeypatch):
    corpus = differential_corpus()
    assert len(corpus) == 2 * (5 + 18 + 105 + 108)
    for s in corpus:
        assert canonical_key(s) == old_canonical_key(s), serialize_ribbon(s)
    assert len([s for s in corpus if is_orientable(s)]) > 300
    # the surfaces each search takes in: the new search counts the start's
    # boundary and each new child's, the old one takes the invariants of
    # each, so equal counts show that both searches merge the same children,
    # which equal step lists alone need not show.  The new search keys no
    # more children than the old, as it skips rows it has taken in already.
    calls = {}
    count_calls(monkeypatch, ribbon, "_component_codes", calls)
    count_calls(monkeypatch, ribbon, "_boundary_count", calls)
    count_calls(monkeypatch, sys.modules[__name__], "old_canonical_key", calls)
    count_calls(monkeypatch, sys.modules[__name__], "surface_invariants", calls)
    # this draw has searches where a key without the twist bit merges
    # children that a key with it keeps apart
    rng = random.Random(1)
    three_disk = [random_three_disk(rng, 6) for _ in range(24)]
    three_disk += [renamed_copy(rng, s) for s in three_disk]
    found = []
    for s in corpus + three_disk:
        for target in ("planar", "connected"):
            calls.clear()
            new = _outcome(normalize_surface, s, target)
            # read before the old search, whose surface_invariants counts too
            taken_in = calls.get("_boundary_count", 0)
            old = _outcome(old_normalize_surface, s, target)
            context = (target, serialize_ribbon(s))
            assert new == old, context
            if taken_in:
                assert taken_in == calls.get("surface_invariants"), context
            assert calls.get("_component_codes", 0) <= calls.get("old_canonical_key", 0), context
            found.append(new)
    assert sum(isinstance(o, str) for o in found[:2 * len(corpus)]) == 506


# The key the start-row refinement replaced, kept verbatim as the reference;
# only the two names gained an old_ prefix, and _relabel is the module's.
_relabel = ribbon._relabel


def old_head(darts, rot, twist):
    """The first two items of the candidate starting at slot rot, read off
    without the search: the start band's code, then the end of the row
    (-1, which sorts before every code) or the next dart's code."""
    n = len(darts)
    if n == 0:
        return (-1,)
    x = darts[rot]
    t = twist[x >> 1]
    if n == 1:
        return (t, -1)
    y = darts[(rot + 1) % n]
    return (t, t if y == x ^ 1 else 2 + twist[y >> 1])


def old_component_codes(rows, where, twist, members):
    """The least relabelling of one component, as a tuple of code rows."""
    starts = [(d, rot) for d in members for rot in range(max(1, len(rows[d])))]
    heads = [old_head(rows[d], rot, twist) for d, rot in starts]
    low = min(heads)
    best = None
    for (d, rot), head in zip(starts, heads):
        if head == low:  # any other start loses by its second item
            cand = _relabel(rows, where, twist, d, rot, best)
            if cand is not None:
                best = cand
    # tuples of lists, not of generators: tuple(<generator>) over-allocates
    # and then shrinks, which raised the peak RSS of a key-heavy search
    return tuple([tuple(row) for row in best])


def band_pattern(feet, nbands, odd=(), split=None):
    """A surface from a list of feet (band index, end) in cyclic order on
    disk d; bands in odd get one half twist.  With split, the feet from
    that slot on go to a second disk e."""
    bands = tuple(Band(f"b{j}", 1 if j in odd else 0) for j in range(nbands))
    ring = [(f"b{j}", end) for j, end in feet]
    if split is None:
        return DiskBandSurface(("d",), bands, {"d": tuple(ring)})
    return DiskBandSurface(("d", "e"), bands, {"d": tuple(ring[:split]),
                                               "e": tuple(ring[split:])})


def annulus_chain(n, first=0):
    """n annuli in a row on one disk: every other start ties to the end."""
    return [(first + j, end) for j in range(n) for end in (0, 1)]


def interleaved_pairs(n):
    """n pairs of bands, each pair a b a b: genus n on one disk."""
    return [(2 * k + j, end) for k in range(n) for end in (0, 1) for j in (0, 1)]


def tie_heavy_surfaces():
    """Annulus chains, interleaved pairs and pairs followed by a chain, with
    no, some and every other band odd, on one disk and cut onto two.  Every
    other band odd sets a twisted annulus against an odd band of a pair."""
    out = []
    for n in (50, 200):
        pairs = n // 4
        for feet in (annulus_chain(n), interleaved_pairs(n // 2),
                     interleaved_pairs(pairs) + annulus_chain(n - 2 * pairs, 2 * pairs)):
            for odd in ((), range(0, n, 7), range(0, n, 2)):
                out.append(band_pattern(feet, n, odd=set(odd)))
            # cut onto two disks at slot n, and at slot n + 1 with two odd bands
            out.append(band_pattern(feet, n, split=n))
            out.append(band_pattern(feet, n, split=n + 1, odd={0, n // 2}))
    # every band runs from disk d to disk e, in the same order on both
    ladder = [(j, 0) for j in range(60)] + [(j, 1) for j in range(60)]
    out.append(band_pattern(ladder, 60, split=60))
    out.append(band_pattern(ladder, 60, split=60, odd=set(range(0, 60, 5))))
    return out


def test_component_codes_match_the_head_filter():
    rng = random.Random(1)
    three_disk = [random_three_disk(rng, 6) for _ in range(24)]
    three_disk += [renamed_copy(rng, s) for s in three_disk]
    wide = tie_heavy_surfaces()
    assert {len(s.bands) for s in wide} >= {50, 200}
    assert any(len(s.disks) == 2 and is_connected(s) for s in wide)
    compared = 0
    for s in differential_corpus() + three_disk + all_surfaces(3) + wide:
        rows, where, twist = ribbon._darts(s)
        for members in ribbon._components(rows, where):
            assert ribbon._component_codes(rows, where, twist, members) == \
                old_component_codes(rows, where, twist, members), serialize_ribbon(s)
            compared += 1
    assert compared == 654


def test_one_disk_keys_relabel_once(monkeypatch):
    """A structural guard on the start-row refinement: every start of a
    one-disk component that survives it ties, so one relabelling is made."""
    calls = {}
    count_calls(monkeypatch, ribbon, "_relabel", calls)
    count_calls(monkeypatch, ribbon, "_component_codes", calls)
    one_disk = [s for s in differential_corpus() if len(s.disks) == 1]
    assert len(one_disk) == 2 * (5 + 18 + 105)
    for s in one_disk:
        calls.clear()
        canonical_key(s)
        assert calls == {"_relabel": 1, "_component_codes": 1}, serialize_ribbon(s)
        for target in ("planar", "connected"):
            calls.clear()
            _outcome(normalize_surface, s, target)
            assert calls.get("_relabel") == calls.get("_component_codes"), serialize_ribbon(s)


def test_search_budget_counts_every_child(monkeypatch):
    """The least budget at which the one-disk genus-3 search succeeds: a
    child skipped before it is keyed still counts its darts."""
    s = surf("disk d\n" + "".join(
        f"band a{k} d.{4 * k} d.{4 * k + 2}\nband b{k} d.{4 * k + 1} d.{4 * k + 3}\n"
        for k in range(3)))
    assert surface_invariants(s).genus == 3
    monkeypatch.setattr(ribbon, "DART_BUDGET", 828)
    assert normalize_surface(s, "planar") == [("d", 0), ("d", 4), ("d", 8)]
    monkeypatch.setattr(ribbon, "DART_BUDGET", 827)
    with pytest.raises(RibbonError, match=r"search budget exceeded \(827 darts keyed\)"):
        normalize_surface(s, "planar")


def test_search_runs_on_dart_rows(monkeypatch):
    s = surf(
        "disk d\nband a d.0 d.2\nband b d.1 d.3\nband c d.4 d.6\n"
        "band e d.5 d.7\nband f d.8 d.9\n"
    )
    assert surface_invariants(s).genus == 2
    calls = {}
    count_calls(monkeypatch, DiskBandSurface, "__init__", calls)
    for name in ("clasp_transpose", "canonical_key", "surface_invariants", "_darts"):
        count_calls(monkeypatch, ribbon, name, calls)
    steps = normalize_surface(s, "planar")
    assert len(steps) >= 2
    assert calls == {"_darts": 1}


def test_search_budget_bounds_the_work(monkeypatch, tmp_path, capsys):
    text = "disk d\nband a d.0 d.2\nband b d.1 d.3\nband c d.4 d.6\nband e d.5 d.7\n"
    rib = tmp_path / "g2.ribbon"
    rib.write_text(text)
    assert normalize_surface(surf(text), "planar")
    monkeypatch.setattr(ribbon, "DART_BUDGET", 50)
    with pytest.raises(RibbonError, match="search budget exceeded"):
        normalize_surface(surf(text), "planar")
    assert main(["ribbon", "normalize", str(rib), "--target", "planar"]) == 2
    assert "search budget exceeded" in capsys.readouterr().err


def test_disconnected_key_ignores_names():
    a = surf("disk x\ndisk y\nband p x.0 x.1\nband q y.0 y.1\n")
    b = surf("disk u\ndisk v\nband r u.0 u.1\nband t v.0 v.1\n")
    c = surf("disk u\ndisk v\nband r u.0 u.1 twists 1\nband t v.0 v.1\n")
    assert not is_connected(a)
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(a) != canonical_key(c)


# ---------------------------------------------------------------------------
# differential test: the dart-row constructor against the name-dict checks
# ---------------------------------------------------------------------------


# The surface the dart-row one replaced, kept verbatim as the reference for
# which inputs the constructor accepts and which message a rejection gives.
@dataclass(frozen=True)
class OldDiskBandSurface:
    """disks: tuple of disk names; order[d]: cyclic sequence of (band, end)
    feet on disk d's boundary, where end is 0 or 1."""

    disks: tuple
    bands: tuple  # of Band
    order: dict  # disk -> tuple of (band name, end)

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(self.disks))
        object.__setattr__(self, "bands", tuple(self.bands))
        object.__setattr__(self, "order", dict(self.order))
        feet = {}
        for d in self.disks:
            for foot in self.order.get(d, ()):
                if foot in feet:
                    raise RibbonError(f"foot {foot} attached twice")
                feet[foot] = d
        if len({b.name for b in self.bands}) != len(self.bands):
            raise RibbonError("band name declared twice")
        for b in self.bands:
            for end in (0, 1):
                if (b.name, end) not in feet:
                    raise RibbonError(f"band {b.name} end {end} has no slot")
        if len(feet) != 2 * len(self.bands):
            raise RibbonError("stray feet in cyclic orders")


def _built(cls, disks, bands, order):
    try:
        return cls(disks=disks, bands=bands, order=order)
    except RibbonError as exc:
        return str(exc)


def _faults(s):
    """(disks, bands, order) of s with one fault each: a duplicated foot, a
    missing foot, a foot of an unknown band, an end of 2 (in place of an end
    1, and as one more foot), and a duplicated band name (with its feet
    renamed, and without)."""
    order = s.order
    d, e = s.disks[0], s.disks[-1]
    a, b = s.bands[0].name, s.bands[1].name
    h = next(k for k in s.disks if (a, 1) in order[k])

    def edit(**rings):
        return s.disks, s.bands, {**order, **rings}

    def rename(band, feet):
        bands = tuple(Band(a, band.half_twists) if band.name == b else band
                      for band in s.bands)
        if feet:
            return s.disks, bands, {
                k: tuple((a if f == b else f, end) for f, end in ring)
                for k, ring in order.items()}
        return s.disks, bands, order

    return [
        edit(**{e: order[e] + order[d][:1]}),
        edit(**{d: order[d][1:]}),
        edit(**{e: order[e] + (("zz", 0),)}),
        edit(**{h: tuple((f, 2 if (f, end) == (a, 1) else end) for f, end in order[h])}),
        edit(**{e: order[e] + ((a, 2),)}),
        rename(b, True),
        rename(b, False),
    ]


def test_constructor_matches_name_dict_checks(monkeypatch):
    corpus = differential_corpus()
    rng = random.Random(1)
    three_disk = [random_three_disk(rng, 6) for _ in range(24)]
    three_disk += [renamed_copy(rng, s) for s in three_disk]
    checks = ("attached twice", "band name declared twice", "has no slot", "stray feet")
    fired = set()
    for s in corpus + three_disk:
        order = s.order
        old = OldDiskBandSurface(disks=s.disks, bands=s.bands, order=order)
        new = DiskBandSurface(s.disks, s.bands, order)
        band_id = {band.name: j for j, band in enumerate(s.bands)}
        assert new.rows == tuple(
            tuple(2 * band_id[f] + end for f, end in order[d]) for d in s.disks)
        assert new == s and hash(new) == hash(s)
        assert new.order == old.order
        for disks, bands, faulty in _faults(s):
            want = _built(OldDiskBandSurface, disks, bands, faulty)
            got = _built(DiskBandSurface, disks, bands, faulty)
            assert isinstance(want, str), faulty
            assert got == want, faulty
            fired.update(c for c in checks if c in want)
    assert fired == set(checks)
    # a transposition swaps two darts of one row and checks nothing again
    calls = {}
    count_calls(monkeypatch, DiskBandSurface, "__init__", calls)
    for s in corpus:
        for target in ("planar", "connected"):
            try:
                steps = normalize_surface(s, target)
            except RibbonError:
                continue
            cur = s
            for disk, slot in steps:
                cur = clasp_transpose(cur, disk, slot)
            inv = surface_invariants(cur)
            assert (inv.genus if target == "planar" else inv.boundary_components) \
                == (0 if target == "planar" else 1)
    assert calls == {}


@pytest.mark.parametrize(
    "disks, order, message",
    [
        (("d", "e"), {"d": (("a", 0), ("a", 1))}, "disk e has no cyclic order"),
        (("d",), {"d": (("a", 0), ("a", 1)), "f": ()},
         "cyclic order for undeclared disk f"),
        (("d", "d"), {"d": (("a", 0), ("a", 1))}, "foot ('a', 0) attached twice"),
        (("d", "e", "e"), {"d": (("a", 0), ("a", 1)), "e": ()},
         "disk name declared twice"),
    ],
)
def test_constructor_rejects_what_the_name_dict_ignored(disks, order, message):
    """The declared differences from the name-dict checks: each of these but
    the third was accepted there."""
    bands = (Band("a"),)
    old = _built(OldDiskBandSurface, disks, bands, order)
    assert _built(DiskBandSurface, disks, bands, order) == message
    assert isinstance(old, str) == (message == "foot ('a', 0) attached twice")


def test_transpose_rejects_an_unknown_disk():
    s = surf("disk d\nband a d.0 d.1\n")
    with pytest.raises(RibbonError, match="unknown disk e"):
        clasp_transpose(s, "e", 0)
