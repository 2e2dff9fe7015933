"""Computations the output checks rely on, written apart from kirbyfront.

Nothing here imports the package.  Event words are sequences of
``(kind, pos)`` pairs (anything with ``.kind``/``.pos`` is converted), and
surfaces are plain ``(disks, twists, order)`` triples: a list of disk
names, a dict band -> half twists, and a dict disk -> list of
``(band, end)`` feet in cyclic order.
"""

from __future__ import annotations


def _pairs(events):
    return [(e.kind, e.pos) if hasattr(e, "kind") else tuple(e) for e in events]


def strand_counts(events, left=0):
    """Strand count in every gap of the word; raises ValueError if the word
    does not replay (an event addresses a slot that is not there)."""
    counts = [left]
    cur = left
    for i, (kind, pos) in enumerate(_pairs(events)):
        if pos < 1:
            raise ValueError(f"event {i + 1}: position {pos} < 1")
        if kind == "L":
            if pos > cur + 1:
                raise ValueError(f"event {i + 1}: L{pos} with {cur} strands")
            cur += 2
        elif kind in ("X", "R"):
            if pos + 1 > cur:
                raise ValueError(f"event {i + 1}: {kind}{pos} with {cur} strands")
            if kind == "R":
                cur -= 2
        else:
            raise ValueError(f"event {i + 1}: unknown kind {kind!r}")
        counts.append(cur)
    return counts


def closes(events):
    """True iff the word replays from an empty left wall to an empty right
    wall."""
    try:
        return strand_counts(events)[-1] == 0
    except ValueError:
        return False


def components(events, left=0):
    """Number the components of a word without following any strand.

    Union-find over the strand segments (gap, slot): an event joins each
    segment to the one it continues as, and a cusp joins its two slots.
    Components are numbered from 1 in the order their first segment comes
    in (gap, slot) order, which is the numbering the .front format binds
    component lines to.  Returns (count, cid) with cid[(gap, slot)].
    """
    ev = _pairs(events)
    counts = strand_counts(ev, left)
    offset = [0]
    for c in counts:
        offset.append(offset[-1] + c)
    parent = list(range(offset[-1]))

    def seg(g, s):
        return offset[g] + s - 1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for i, (kind, p) in enumerate(ev):
        for s in range(1, counts[i] + 1):
            if kind == "L":
                union(seg(i, s), seg(i + 1, s if s < p else s + 2))
            elif kind == "R":
                if s not in (p, p + 1):
                    union(seg(i, s), seg(i + 1, s if s < p else s - 2))
            else:
                t = p + 1 if s == p else p if s == p + 1 else s
                union(seg(i, s), seg(i + 1, t))
        if kind == "L":
            union(seg(i + 1, p), seg(i + 1, p + 1))
        elif kind == "R":
            union(seg(i, p), seg(i, p + 1))

    number = {}
    cid = {}
    for g, c in enumerate(counts):
        for s in range(1, c + 1):
            root = find(seg(g, s))
            cid[(g, s)] = number.setdefault(root, len(number) + 1)
    return len(number), cid


def component_count(events):
    """Number of components of a closed word, by replay alone: a left cusp
    starts an arc on its two new strands, a crossing swaps the arcs of two
    strands and a right cusp joins the arcs of the two strands it closes.
    Much cheaper than ``components``, for generators that only need the
    count."""
    parent = []
    strands = []  # the arc on each slot of the current gap, slot 1 first

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for kind, p in _pairs(events):
        if kind == "L":
            parent.append(len(parent))
            strands[p - 1 : p - 1] = [parent[-1]] * 2
        elif kind == "X":
            strands[p - 1], strands[p] = strands[p], strands[p - 1]
        else:
            parent[find(strands[p - 1])] = find(strands[p])
            del strands[p - 1 : p + 1]
    return sum(find(a) == a for a in range(len(parent)))


def euler_from_attrs(attrs, spin=0):
    """Euler characteristic of the presented domain, counted from the
    decorations alone: the 0-handle, a -1 component is an n-handle, a +1
    component with both nodes an (n+1)-handle and a bare +1 component an
    (n-1)-handle, with n = spin + 2."""
    n = spin + 2
    chi = 1
    for a in attrs:
        if a.coefficient == -1:
            chi += (-1) ** n
        elif a.coefficient == 1:
            index = n + 1 if (a.node_plus and a.node_minus) else n - 1
            chi += (-1) ** index
    return chi


# ---------------------------------------------------------------------------
# Disk-band surfaces as CW complexes
# ---------------------------------------------------------------------------


def plain_surface(s):
    """(disks, twists, order) of a kirbyfront DiskBandSurface."""
    return (
        list(s.disks),
        {b.name: b.half_twists for b in s.bands},
        {d: [tuple(f) for f in s.order[d]] for d in s.disks},
    )


def parse_ribbon_text(text):
    """Read the ``disk`` / ``band`` / ``order`` lines of a .ribbon file.

    Feet without an ``order`` line sit in the order of their slot numbers.
    Raises ValueError on anything else.
    """
    disks, twists, slots, order = [], {}, {}, {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "disk" and len(toks) == 2:
            disks.append(toks[1])
        elif toks[0] == "band" and len(toks) in (4, 6):
            twists[toks[1]] = int(toks[5]) if len(toks) == 6 else 0
            for end, spec in enumerate(toks[2:4]):
                d, k = spec.rsplit(".", 1)
                slots.setdefault(d, {})[int(k)] = (toks[1], end)
        elif toks[0] == "order":
            d, feet = " ".join(toks[1:]).split(":", 1)
            order[d.strip()] = [
                (b, int(e)) for b, e in (f.rsplit(".", 1) for f in feet.split())
            ]
        else:
            raise ValueError(f"unexpected line {raw!r}")
    for d in disks:
        if d not in order:
            order[d] = [slots[d][k] for k in sorted(slots.get(d, {}))]
    return disks, twists, order


def surface_oracle(surface):
    """Invariants of a disk-band surface from its cell structure.

    Cells: one vertex per foot corner, the foot arcs, the free disk arcs
    between consecutive feet, the two free sides of every band, and one
    face per disk and per band.  The boundary is the union of the free
    edges; each corner meets exactly two of them, so the boundary circles
    are the components of that graph.  An untwisted band joins the plus
    corner of one foot to the minus corner of the other; an odd number of
    half twists crosses the two sides over.  Returns a dict with chi, b,
    orientable, connected and genus (None unless connected and
    orientable).
    """
    disks, twists, order = surface
    feet = [(d, f) for d in disks for f in order.get(d, [])]
    empty = [d for d in disks if not order.get(d)]
    v = 2 * len(feet) + len(empty)
    e = 2 * len(feet) + 2 * len(twists) + len(empty)
    f = len(disks) + len(twists)

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for d in disks:
        ring = order.get(d, [])
        for k, foot in enumerate(ring):
            union(("+",) + foot, ("-",) + ring[(k + 1) % len(ring)])
    for band, t in twists.items():
        f0, f1 = (band, 0), (band, 1)
        if t % 2 == 0:
            union(("+",) + f0, ("-",) + f1)
            union(("-",) + f0, ("+",) + f1)
        else:
            union(("+",) + f0, ("+",) + f1)
            union(("-",) + f0, ("-",) + f1)
    circles = len({find(c) for c in list(parent)}) + len(empty)

    where = {foot: d for d, foot in feet}
    colour = {}
    orientable = True
    adjacency = {d: [] for d in disks}
    for band, t in twists.items():
        a, b = where[(band, 0)], where[(band, 1)]
        adjacency[a].append((b, t % 2))
        adjacency[b].append((a, t % 2))
    pieces = 0
    for start in disks:
        if start in colour:
            continue
        pieces += 1
        colour[start] = 0
        todo = [start]
        while todo:
            x = todo.pop()
            for y, flip in adjacency[x]:
                if y not in colour:
                    colour[y] = colour[x] ^ flip
                    todo.append(y)
                elif colour[y] != colour[x] ^ flip:
                    orientable = False
    chi = v - e + f
    connected = pieces == 1
    genus = None
    if connected and orientable:
        genus = (2 - chi - circles) // 2
    return {
        "chi": chi,
        "b": circles,
        "orientable": orientable,
        "connected": connected,
        "genus": genus,
    }
