"""Disk-band surfaces and the adjacent foot transposition.

A surface is presented by disks with bands attached; each band has two
feet, each foot occupying one slot in the cyclic order around its disk's
boundary.  The clasp move of the three-dimensional theory acts on such a
presentation by transposing two cyclically-adjacent feet, which preserves
the Euler characteristic and orientability but generally trades genus for
boundary components.  Normalization searches transposition sequences for a
planar (g = 0) or connected-boundary (b = 1) presentation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .diagram import DiagramError

__all__ = [
    "Band",
    "DiskBandSurface",
    "SurfaceInvariants",
    "RibbonError",
    "parse_ribbon",
    "serialize_ribbon",
    "surface_invariants",
    "boundary_components",
    "is_orientable",
    "is_connected",
    "clasp_transpose",
    "normalize_surface",
    "canonical_key",
]


class RibbonError(DiagramError):
    pass


@dataclass(frozen=True)
class Band:
    name: str
    half_twists: int = 0


@dataclass(frozen=True, init=False)
class DiskBandSurface:
    """rows[i]: the darts on disk i in cyclic order, where band j has the
    darts 2j (end 0) and 2j + 1 (end 1).  Built from order[d], the cyclic
    sequence of (band name, end) feet on disk d, which .order reads back."""

    disks: tuple
    bands: tuple  # of Band
    rows: tuple  # of tuples of darts

    def __init__(self, disks, bands, order):
        object.__setattr__(self, "disks", tuple(disks))
        object.__setattr__(self, "bands", tuple(bands))
        dart = {(b.name, e): 2 * j + e for j, b in enumerate(self.bands) for e in (0, 1)}
        feet = set()
        rows = []
        for d in self.disks:
            row = []
            for foot in order.get(d, ()):
                if foot in feet:
                    raise RibbonError(f"foot {foot} attached twice")
                feet.add(foot)
                row.append(dart.get(foot))
            rows.append(tuple(row))
        if len(dart) != 2 * len(self.bands):
            raise RibbonError("band name declared twice")
        for foot in dart:
            if foot not in feet:
                raise RibbonError(f"band {foot[0]} end {foot[1]} has no slot")
        if len(feet) != len(dart):
            raise RibbonError("stray feet in cyclic orders")
        for d in self.disks:
            if d not in order:
                raise RibbonError(f"disk {d} has no cyclic order")
        known = set(self.disks)
        if len(known) != len(self.disks):
            raise RibbonError("disk name declared twice")
        for d in order:
            if d not in known:
                raise RibbonError(f"cyclic order for undeclared disk {d}")
        object.__setattr__(self, "rows", tuple(rows))

    @cached_property
    def order(self):
        """The feet of each disk by name, read off the rows on first use."""
        return {d: tuple([(self.bands[x >> 1].name, x & 1) for x in row])
                for d, row in zip(self.disks, self.rows)}


@dataclass(frozen=True)
class SurfaceInvariants:
    genus: int
    boundary_components: int
    euler: int
    orientable: bool


def _darts(s):
    """(rows, where, twist): where[x] is the (disk, slot) of dart x, whose
    mate is x ^ 1, and twist[j] the parity of band j's half twists."""
    where = [None] * (2 * len(s.bands))
    for i, row in enumerate(s.rows):
        for k, x in enumerate(row):
            where[x] = (i, k)
    return s.rows, where, [b.half_twists % 2 for b in s.bands]


def _components(rows, where):
    """Disk indices of each connected component, by first disk."""
    comp = [-1] * len(rows)
    out = []
    for i in range(len(rows)):
        if comp[i] >= 0:
            continue
        comp[i] = len(out)
        members = [i]
        for d in members:  # grows while it is walked: a breadth-first search
            for x in rows[d]:
                e = where[x ^ 1][0]
                if comp[e] < 0:
                    comp[e] = comp[i]
                    members.append(e)
        out.append(members)
    return out


def _orientable(rows, where, twist):
    """Two-colour the disks so that each band joins equal colours when
    untwisted and different colours when odd; a conflict is a cycle of
    odd total twist."""
    side = [-1] * len(rows)
    for i in range(len(rows)):
        if side[i] >= 0:
            continue
        side[i] = 0
        stack = [i]
        while stack:
            d = stack.pop()
            for x in rows[d]:
                e = where[x ^ 1][0]
                want = side[d] ^ twist[x >> 1]
                if side[e] < 0:
                    side[e] = want
                    stack.append(e)
                elif side[e] != want:
                    return False
    return True


def _boundary_count(rows, twist):
    """Cycles of the corner graph (see ``boundary_components``).

    Corner 2x is the minus corner of dart x and 2x + 1 its plus corner.
    Every corner has one disk arc, stored in ``arc``, and one band side:
    it leads to the mate dart's corner of the other sign (c ^ 3), or of
    the same sign (c ^ 2) across an odd-twisted band.
    """
    arc = [0] * (4 * len(twist))
    for row in rows:
        n = len(row)
        for k in range(n):
            plus = 2 * row[k] + 1
            minus = 2 * row[(k + 1) % n]
            arc[plus] = minus
            arc[minus] = plus
    seen = [False] * len(arc)
    circles = sum(1 for row in rows if not row)
    for c0 in range(len(arc)):
        if seen[c0]:
            continue
        circles += 1
        c = c0
        while not seen[c]:
            a = arc[c]
            seen[c] = seen[a] = True
            c = a ^ 3 ^ twist[a >> 2]
    return circles


def euler_characteristic(s):
    return len(s.disks) - len(s.bands)


def is_connected(s):
    rows, where, _twist = _darts(s)
    return len(_components(rows, where)) == 1


def is_orientable(s):
    """Orientable iff every band cycle has even total twist."""
    return _orientable(*_darts(s))


def boundary_components(s):
    """Count boundary circles via the corner graph.

    Every foot f has two corners, minus (just before f in the cyclic
    order) and plus (just after).  Boundary pieces are the disk arcs from
    the plus corner of one foot to the minus corner of the next, and the
    two band sides: an untwisted band glues plus to minus across it, an
    odd-twisted band glues plus to plus and minus to minus.  The corner
    graph is 2-regular, and its cycles are the boundary circles; a disk
    without feet is one more circle.
    """
    rows, _where, twist = _darts(s)
    return _boundary_count(rows, twist)


def surface_invariants(s, require_connected=False):
    """Boundary count, Euler characteristic, orientability and genus.

    Genus is reported for connected orientable surfaces via
    chi = 2 - 2g - b; for nonorientable or disconnected input only the
    other fields are meaningful and genus is set to -1.
    """
    rows, where, twist = _darts(s)
    connected = len(_components(rows, where)) == 1
    if require_connected and not connected:
        raise RibbonError("surface is not connected")
    chi = euler_characteristic(s)
    b = _boundary_count(rows, twist)
    orient = _orientable(rows, where, twist)
    genus = -1
    if orient and connected:
        g2 = 2 - chi - b
        if g2 % 2:
            raise RibbonError("inconsistent boundary trace")
        genus = g2 // 2
    return SurfaceInvariants(
        genus=genus, boundary_components=b, euler=chi, orientable=orient
    )


def clasp_transpose(s, disk, slot):
    """Swap the feet at cyclic positions slot and slot+1 on the disk.

    This is the three-dimensional clasp move on the page surface: the
    abstract surface changes only through the cyclic order, so chi and
    orientability are preserved while (g, b) may trade.
    """
    if disk not in s.disks:
        raise RibbonError(f"unknown disk {disk}")
    i = s.disks.index(disk)
    row = list(s.rows[i])
    if len(row) < 2:
        raise RibbonError(f"disk {disk} has fewer than two feet")
    n = len(row)
    a = slot % n
    b = (slot + 1) % n
    row[a], row[b] = row[b], row[a]
    t = object.__new__(DiskBandSurface)  # a transposition keeps the rows valid
    object.__setattr__(t, "disks", s.disks)
    object.__setattr__(t, "bands", s.bands)
    object.__setattr__(t, "rows", s.rows[:i] + (tuple(row),) + s.rows[i + 1:])
    return t


def _relabel(rows, where, twist, disk, rot, best):
    """Breadth-first relabelling of one component from slot rot of disk.

    Bands are numbered in order of first sight, and each disk becomes a
    row of codes 2 * label + twist (ordered as the pairs (label, twist)),
    read from the slot where the search entered it.  The candidate is
    compared with best item by item while it is built; it is dropped
    (None) at the first item where it is larger, and also when it ends
    equal to best.
    """
    label = [-1] * len(twist)
    fresh = 0
    seen = [False] * len(rows)
    out = []
    queue = [(disk, rot)]
    tied = best is not None
    for d, rot in queue:  # grows while it is walked
        if seen[d]:
            continue
        seen[d] = True
        darts = rows[d]
        if tied:
            ref = best[len(out)]
            m = len(ref)
        row = []
        for k, x in enumerate(darts[rot:] + darts[:rot]):
            j = x >> 1
            if label[j] < 0:
                label[j] = fresh
                fresh += 1
                queue.append(where[x ^ 1])
            code = 2 * label[j] + twist[j]
            if tied:
                if k == m or code > ref[k]:
                    return None
                if code < ref[k]:
                    tied = False
            row.append(code)
        if tied and len(row) < m:
            tied = False
        out.append(row)
    return None if tied else out


def _component_codes(rows, where, twist, members):
    """The least relabelling of one component, as a tuple of code rows.

    A relabelling's first row is its start row, which needs no search, so
    every start (disk, rotation) is first compared over its start row one
    slot at a time, and only the least go on to ``_relabel``.  With N
    darts in all, a dart whose mate lies b slots back on the same disk,
    already read, codes 2 (N - b) + twist; a dart of a new band codes
    2 N + twist; a row that ends sorts before every code.  These sort as
    the relabelling's codes do: given equal prefixes a band's label grows
    with its mate's slot, so a larger b means a smaller label, and a new
    band takes a label above every band already read.
    """
    big = 2 * len(where)
    starts = []
    lengths = set()
    for d in members:
        row = rows[d]
        n = len(row)
        slot = []  # (b, read code, new code), with b = n for a mate elsewhere
        for k, x in enumerate(row):
            new = big + twist[x >> 1]
            e, m = where[x ^ 1]
            b = (k - m) % n if e == d else n
            slot.append((b, new - 2 * b, new))
        slot += slot  # the k-th slot read from rot is slot[rot + k]
        lengths.add(n)
        starts += [(slot, rot, d) for rot in range(max(1, n))]
    k = 0
    while len(starts) > 1:
        if k in lengths:
            done = [st for st in starts if len(st[0]) == 2 * k]
            if done:  # a row that ends here is a prefix of the others
                starts = done
                break
        low = big + 2
        keep = []
        for st in starts:
            b, code, new = st[0][st[1] + k]
            if b > k:
                code = new
            if code < low:
                low = code
                keep = [st]
            elif code == low:
                keep.append(st)
        starts = keep
        k += 1
    if len(members) == 1:
        starts = starts[:1]  # the start row is the whole key, so the rest tie
    best = None
    for _slot, rot, d in starts:
        cand = _relabel(rows, where, twist, d, rot, best)
        if cand is not None:
            best = cand
    # tuples of lists, not of generators: tuple(<generator>) over-allocates
    # and then shrinks, which raised the peak RSS of a key-heavy search
    return tuple([tuple(row) for row in best])


def canonical_key(s):
    """Hash key invariant under disk/band relabeling and rotation of each
    cyclic order, for BFS visited-set pruning.

    For a connected surface this is the least, over every start disk and
    rotation, of the breadth-first relabelling: a tuple with one row per
    disk, each a tuple of (band label, twist parity) pairs.  A
    disconnected surface keys as the sorted tuple of its components' keys.
    """
    rows, where, twist = _darts(s)
    keys = sorted(
        tuple([tuple([(c >> 1, c & 1) for c in row])
               for row in _component_codes(rows, where, twist, members)])
        for members in _components(rows, where)
    )
    return keys[0] if len(keys) == 1 else tuple(keys)


# the most darts normalize_surface keys, summed over the children it keys,
# before it gives up; a cap on expanded nodes would not bound the work,
# since each node keys one child per foot
DART_BUDGET = 10**7


def normalize_surface(s, target):
    """Breadth-first search over adjacent transpositions to the target.

    target "planar" stops at genus 0; "connected" stops at one boundary
    circle and requires odd Euler characteristic (chi = 1 - 2g forces
    b = 1 on the handlebody side).  Returns the list of (disk, slot)
    transposition steps; replaying them reproduces the target invariants.

    A transposition keeps the disks, the bands and their twists, so the
    search indexes s once and then runs on its dart rows alone: a child
    is the rows with two darts swapped, keyed by the codes of its least
    relabelling and tested by its boundary count.  A child whose rows are
    those of a surface the search already took in has its key in the seen
    set, and is skipped before it is keyed; it still counts towards the
    budget, as every child does.
    """
    if target not in ("planar", "connected"):
        raise RibbonError(f"unknown normalization target {target!r}")
    rows, where, twist = _darts(s)
    if len(_components(rows, where)) != 1:
        raise RibbonError("surface is not connected")
    if not _orientable(rows, where, twist):
        raise RibbonError("normalization needs an orientable surface")
    chi = euler_characteristic(s)
    if target == "connected" and chi % 2 == 0:
        raise RibbonError(
            "connected-boundary target needs odd Euler characteristic"
        )
    # the boundary count that chi = 2 - 2g - b gives at the target
    want = 2 - chi if target == "planar" else 1
    if _boundary_count(rows, twist) == want:
        return []
    members = range(len(rows))
    seen = {_component_codes(rows, where, twist, members)}
    accepted = {rows}  # the rows the queue took in, whose keys are in seen
    queue = deque([(rows, where, [])])
    keyed = 0
    while queue:
        rows, where, path = queue.popleft()
        for i, row in enumerate(rows):
            n = len(row)
            if n < 2:
                continue
            for a in range(n):
                keyed += len(where)
                if keyed > DART_BUDGET:
                    raise RibbonError(
                        f"search budget exceeded ({DART_BUDGET} darts keyed)"
                    )
                b = (a + 1) % n
                x, y = row[a], row[b]
                swapped = list(row)
                swapped[a], swapped[b] = y, x
                child = rows[:i] + (tuple(swapped),) + rows[i + 1:]
                if child in accepted:
                    continue
                moved = where.copy()
                moved[x], moved[y] = (i, b), (i, a)
                key = _component_codes(child, moved, twist, members)
                if key in seen:
                    continue
                seen.add(key)
                accepted.add(child)
                steps = path + [(s.disks[i], a)]
                if _boundary_count(child, twist) == want:
                    return steps
                queue.append((child, moved, steps))
    raise RibbonError("no transposition sequence reaches the target")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _integer(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise RibbonError(f"line {lineno}: {what} {tok!r} is not an integer") from None


def _foot_spec(spec, lineno):
    """``<name>.<number>`` as (name, int): a disk and slot in band lines,
    a band and end in order lines."""
    if "." not in spec:
        raise RibbonError(f"line {lineno}: foot spec {spec!r}")
    name, num = spec.rsplit(".", 1)
    return name, _integer(num, lineno, f"foot spec {spec!r}:")


def parse_ribbon(text):
    """Parse the ``.ribbon`` format::

        disk <id>
        band <id> <disk>.<slot> <disk>.<slot> [twists n]
        order <disk>: <slot list>

    Feet are named ``<band>.<end>``; when no explicit order lines appear,
    feet sit in the declaration order of the bands (slot positions in the
    band lines give the position hints).
    """
    order = {}  # disk -> feet, in declaration order
    bands = []
    feet_at = {}  # disk -> {pos: (band, end, line number)}
    explicit = {}  # disk -> (line number, feet)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "disk":
            if len(toks) != 2:
                raise RibbonError(f"line {lineno}: expected 'disk <id>'")
            if toks[1] in order:
                raise RibbonError(f"line {lineno}: disk {toks[1]} declared twice")
            order[toks[1]] = ()
        elif toks[0] == "band":
            if len(toks) not in (4, 6):
                raise RibbonError(f"line {lineno}: band <id> <d.slot> <d.slot> [twists n]")
            name = toks[1]
            twists = 0
            if len(toks) == 6:
                if toks[4] != "twists":
                    raise RibbonError(f"line {lineno}: expected 'twists <n>'")
                twists = _integer(toks[5], lineno, "twists")
            bands.append(Band(name=name, half_twists=twists))
            for end, spec in enumerate(toks[2:4]):
                dname, pos = _foot_spec(spec, lineno)
                taken = feet_at.setdefault(dname, {}).setdefault(pos, (name, end, lineno))
                if taken != (name, end, lineno):
                    raise RibbonError(f"line {lineno}: slot {dname}.{pos} is already"
                                      f" taken by band {taken[0]} on line {taken[2]}")
        elif toks[0] == "order":
            rest = " ".join(toks[1:])
            if ":" not in rest:
                raise RibbonError(f"line {lineno}: order <disk>: <feet>")
            dname, slots = rest.split(":", 1)
            dname = dname.strip()
            if dname in explicit:
                raise RibbonError(f"line {lineno}: second order line for disk {dname}")
            explicit[dname] = lineno, tuple(
                _foot_spec(part, lineno) for part in slots.split()
            )
        else:
            raise RibbonError(f"line {lineno}: unknown directive {toks[0]!r}")
    for d, slots in feet_at.items():
        if d not in order:
            band, end, at = next(iter(slots.values()))
            raise RibbonError(f"line {at}: foot {band}.{end} on undeclared disk {d}")
        order[d] = tuple(slots[k][:2] for k in sorted(slots))
    for d, (lineno, feet) in explicit.items():
        if d not in order:
            raise RibbonError(f"line {lineno}: order for undeclared disk {d}")
        order[d] = feet
    return DiskBandSurface(disks=tuple(order), bands=tuple(bands), order=order)


def serialize_ribbon(s):
    lines = [f"disk {d}" for d in s.disks]
    where = _darts(s)[1]
    for j, b in enumerate(s.bands):
        (i0, k0), (i1, k1) = where[2 * j], where[2 * j + 1]
        line = f"band {b.name} {s.disks[i0]}.{k0} {s.disks[i1]}.{k1}"
        if b.half_twists:
            line += f" twists {b.half_twists}"
        lines.append(line)
    for d, feet in s.order.items():
        if feet:
            lines.append(f"order {d}: " + " ".join(f"{b}.{e}" for (b, e) in feet))
    return "\n".join(lines) + "\n"
