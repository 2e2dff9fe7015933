"""Precondition-checked pattern rewrites on front diagrams.

Every move takes an explicit :class:`MoveSite`; the engine never searches
for matches.  On spun diagrams (spin > 0) each rewrite is automatically
repeated at the mirrored site with the mirrored template, so the
palindrome invariant cannot be violated; a site straddling the axis is
applied once, and a partially overlapping mirror pair is an error.

Local move templates (:data:`TEMPLATES`; all boundary-preserving, slots
relative to the site's slot s).  A forward move trades the short block for
the long one at the site, a reverse move the long block for the short one;
an empty short block is an insertion point:

=================  =================  ======================================  ============
template           short              long
=================  =================  ======================================  ============
clasp 1            []                 [X s, X s]                              clasp
stabilize 1        []                 [L s+1, R s, L s, R s+1]                zigzags
crossing_change 1  [X s]              [L s+2, R s+1, L s, X s+1, R s+2]       changed X
birth 1            []                 [L s, L s+1, X s+2, X s+2, R s+1, R s]  handle pair
uplus 1            []                 [X s, R s, L s]                         junction
uplus 2            []                 [X s, R s, L s, X s]                    axis neck
R1 1               []                 [L s, X s+1, R s]                       swallowtail
R1 2               []                 [L s+1, X s, R s+1]                     mirrored
R2 1               [L s+1]            [L s, X s+1, X s]                       through-cusp
R2 2               [L s]              [L s+1, X s, X s+1]                     mirrored
R2 3               [R s+1]            [X s, X s+1, R s]                       mirrored
R2 4               [R s]              [X s+1, X s, R s+1]                     mirrored
R3 1               [X s, X s+1, X s]  [X s+1, X s, X s+1]                     triple point
=================  =================  ======================================  ============
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .diagram import (
    COEFF_MINUS,
    COEFF_NONE,
    COEFF_PLUS,
    ComponentAttr,
    DiagramError,
    Event,
    check_spin_symmetry,
    trace_components,
)
from .invariants import _tally, all_classical_invariants, handle_census
from .wordops import (
    MoveError,
    MoveResult,
    _erase_word,
    _push_off,
    _rebuild,
    _splice_word,
    _try_swap,
    erase_components,
    exchange_canonical,
    mirror_events,
    same_diagram,
    splice,
)

__all__ = [
    "MoveSite",
    "MoveError",
    "MoveResult",
    "TEMPLATES",
    "site_at",
    "clasp",
    "stabilize",
    "uplus",
    "handleslide",
    "crossing_change",
    "cancel_trivial_bypass",
    "birth_cancel_pair",
    "witness_subcritical",
    "exchange",
    "reidemeister",
    "normalize",
    "equivalent_up_to_normalization",
]


@dataclass(frozen=True)
class MoveSite:
    """Where a move acts: events [e0, e1) and strand slots [s0, s1] at the
    left edge of the range; components a move needs are named explicitly."""

    e0: int
    e1: int
    s0: int
    s1: int = 0
    components: tuple = ()

    def __post_init__(self):
        if self.s1 == 0:
            object.__setattr__(self, "s1", self.s0)
        object.__setattr__(self, "components", tuple(self.components))
        if self.e0 < 0 or self.e1 < self.e0 or self.s0 < 1 or self.s1 < self.s0:
            raise MoveError(f"malformed site {self}")


def site_at(e0, s0, e1=None, s1=0, components=()):
    return MoveSite(
        e0=e0, e1=e1 if e1 is not None else e0, s0=s0, s1=s1, components=tuple(components)
    )


def _require(cond, message):
    if not cond:
        raise MoveError(message)


def _attr(d, cid):
    """The decorations of component ``cid``; an id outside the diagram's
    components is a precondition failure."""
    # a decorated diagram has one attribute per component, and is not traced
    _require(1 <= cid <= len(d.attrs or trace_components(d).components),
             f"no component {cid}")
    return d.attr(cid)


def _strand_comp(tr, gap, slot):
    try:
        return tr.comp(gap, slot)
    except KeyError:
        raise MoveError(f"no strand at gap {gap}, slot {slot}") from None


def _check_spin(d):
    if d.spin > 0 and not check_spin_symmetry(d):
        raise MoveError("move broke the spin palindrome")
    return d


def _spin_windows(d, i0, i1, new_events):
    """The splice windows of a rewrite of ``d``, in word order: the site
    and, on a spun diagram, its mirror site with the mirrored template."""
    if d.spin == 0:
        return [(i0, i1, tuple(new_events))]
    n = len(d.events)
    j0, j1 = n - i1, n - i0
    mev = mirror_events(new_events)
    if (i0, i1) == (j0, j1):
        if tuple(new_events) != mev:
            raise MoveError(
                "self-mirrored site needs a self-mirrored template (spin symmetry)"
            )
        return [(i0, i1, tuple(new_events))]
    if j0 >= i1:
        return [(i0, i1, tuple(new_events)), (j0, j1, mev)]
    if i0 >= j1:
        return [(j0, j1, mev), (i0, i1, tuple(new_events))]
    raise MoveError(
        "mirrored site overlaps the primary site inconsistently (spin symmetry)"
    )


def _spin_splice(d, i0, i1, new_events, merge=None):
    """One :func:`splice` at the site and, on a spun diagram, at its mirror
    site."""
    rw = splice(d, _spin_windows(d, i0, i1, new_events), merge=merge)
    _check_spin(rw.diagram)
    return rw


# ---------------------------------------------------------------------------
# local move templates
# ---------------------------------------------------------------------------


# (move, variant) -> (short block, long block), each event a (kind, slot
# offset) pair read from the site's slot; the module docstring draws them
TEMPLATES = {
    ("clasp", 1): ((), (("X", 0), ("X", 0))),
    ("stabilize", 1): ((), (("L", 1), ("R", 0), ("L", 0), ("R", 1))),
    ("crossing_change", 1): (
        (("X", 0),),
        (("L", 2), ("R", 1), ("L", 0), ("X", 1), ("R", 2)),
    ),
    ("birth", 1): ((), (("L", 0), ("L", 1), ("X", 2), ("X", 2), ("R", 1), ("R", 0))),
    ("uplus", 1): ((), (("X", 0), ("R", 0), ("L", 0))),
    # the junction on the spin axis: palindromic, so its own mirror
    ("uplus", 2): ((), (("X", 0), ("R", 0), ("L", 0), ("X", 0))),
    ("R1", 1): ((), (("L", 0), ("X", 1), ("R", 0))),
    ("R1", 2): ((), (("L", 1), ("X", 0), ("R", 1))),
    ("R2", 1): ((("L", 1),), (("L", 0), ("X", 1), ("X", 0))),
    ("R2", 2): ((("L", 0),), (("L", 1), ("X", 0), ("X", 1))),
    ("R2", 3): ((("R", 1),), (("X", 0), ("X", 1), ("R", 0))),
    ("R2", 4): ((("R", 0),), (("X", 1), ("X", 0), ("R", 1))),
    ("R3", 1): ((("X", 0), ("X", 1), ("X", 0)), (("X", 1), ("X", 0), ("X", 1))),
}


@lru_cache(maxsize=1024)
def _blocks(key, s):
    """The (short, long) event blocks of template ``key`` at slot ``s``."""
    return tuple(
        tuple(Event(kind, s + off) for kind, off in block) for block in TEMPLATES[key]
    )


def _rewrite(d, key, site, forward, mismatch, guard=None, merge=None):
    """Trade the short block of template ``key`` at ``site`` for its long
    block, or the converse.  An empty source block is an insertion point
    (``e0 == e1``); a non-empty one must match at ``e0``, else ``mismatch``
    is refused.  ``guard`` then checks the move's own preconditions."""
    src, dst = _blocks(key, site.s0)[:: 1 if forward else -1]
    if src:
        _require(d.events[site.e0 : site.e0 + len(src)] == src, mismatch)
    else:
        _require(site.e0 == site.e1, f"{key[0]} site is an insertion point")
    if guard is not None:
        guard()
    return _spin_splice(d, site.e0, site.e0 + len(src), dst, merge=merge)


def _junction_key(d, gap):
    """The junction template at an insertion gap; a gap on the spin axis
    takes the axis neck, so the rewrite is its own mirror."""
    return ("uplus", 2 if d.spin > 0 and gap * 2 == len(d.events) else 1)


def clasp(d, site, direction="clasp"):
    """Replace two parallel strands by the clasped pattern, or inversely.

    The clasped template is two crossings of the same strand pair in a
    row; by the front resolution they alternate over/under, which is a
    clasp and not a reducible bigon.  Crossing count changes by two,
    components, coefficients and cusp counts are untouched.
    """
    _require(direction in ("clasp", "unclasp"), f"unknown clasp direction {direction!r}")

    def two_strands():
        _require(site.e0 <= len(d.events), "site beyond the word")
        _require(
            trace_components(d).counts[site.e0] >= site.s0 + 1,
            "clasp needs two adjacent strands",
        )

    forward = direction == "clasp"
    guard = two_strands if forward else None
    mismatch = "unclasp site does not match the clasped template"
    return _rewrite(d, ("clasp", 1), site, forward, mismatch, guard)


def stabilize(d, cid, site, direction="stabilize"):
    """Insert (or remove) the double zigzag on a strand of component cid.

    For spin 0 this is the double stabilization: tb drops by 2, rot is
    unchanged.  For spin > 0 the template is inserted together with its
    mirror image, the spun wrinkle.
    """
    _require(
        direction in ("stabilize", "destabilize"),
        f"unknown stabilize direction {direction!r}",
    )
    forward = direction == "stabilize"
    if forward:
        wrong = f"strand {site.s0} at gap {site.e0} is not component {cid}"
    else:
        wrong = f"zigzag at the site does not belong to component {cid}"

    def on_component():
        _require(_strand_comp(trace_components(d), site.e0, site.s0) == cid, wrong)

    mismatch = "destabilize site does not match the zigzag template"
    return _rewrite(d, ("stabilize", 1), site, forward, mismatch, on_component)


# ---------------------------------------------------------------------------
# uplus and handleslides
# ---------------------------------------------------------------------------


def _merge_union(cids, attrs):
    coeffs = [a.coefficient for a in attrs if a.coefficient != COEFF_NONE]
    if len(coeffs) > 1:
        raise MoveError(
            "cannot merge two components that both carry surgery coefficients"
        )
    links = tuple(sorted({t for a in attrs for t in a.dashed_links}))
    return ComponentAttr(
        label="+".join(a.label for a in attrs if a.label),
        coefficient=coeffs[0] if coeffs else COEFF_NONE,
        node_plus=any(a.node_plus for a in attrs),
        node_minus=any(a.node_minus for a in attrs),
        dashed_links=links,
        orientation=attrs[0].orientation,
    )


def _slide_back_blocks(s):
    """The blocks a slide back removes: the junction, the axis neck, and the
    junction whose crossing an unclasp inside the slid region changed."""
    junction, neck = (_blocks(("uplus", v), s)[1] for v in (1, 2))
    return (junction, neck, _blocks(("crossing_change", 1), s)[1] + junction[1:])


_SLIDE_BACK_WIDTHS = {len(b) for b in _slide_back_blocks(1)}


def uplus(d, a, b, site):
    """Merge components a and b at a site where b runs directly above a.

    The junction template inserts one crossing plus a cusp pair and joins
    the strands; decorations take the union, and a coefficient on both
    components is an error.
    """

    def strands():
        _require(a != b, "uplus merges two distinct components")
        tr = trace_components(d)
        ca = _strand_comp(tr, site.e0, site.s0)
        cb = _strand_comp(tr, site.e0, site.s0 + 1)
        _require(
            ca == a and cb == b,
            f"site strands belong to components {ca} below {cb}, not {a} below {b}",
        )

    def merge(cids, attrs):
        idx = cids.index(a) if a in cids else 0
        merged = _merge_union(cids, attrs)
        return replace(merged, orientation=attrs[idx].orientation)

    return _rewrite(d, _junction_key(d, site.e0), site, True, None, strands, merge)


_SLIDE_VARIANTS = {
    "minus_up": (COEFF_MINUS, "up"),
    "minus_down": (COEFF_MINUS, "down"),
    "plus_up": (COEFF_PLUS, "up"),
    "plus_down": (COEFF_PLUS, "down"),
}


def handleslide(d, moving, over, variant, site):
    """Slide component ``moving`` across the surgery component ``over``.

    Forward (site an insertion point): ``moving`` runs directly below
    ``over`` for the *up variants and directly above for *down; the strand
    is rerouted through a full parallel push-off of ``over`` via a junction
    at the site.  ``over`` is untouched; ``moving`` keeps its identity and
    decorations.

    Applied at a site spanning a previous junction (three events [X, R, L]
    belonging to ``moving``), the slide retracts: the junction is removed
    and one of the two lanes it joined is erased, the one whose erasure
    leaves a word where pushing ``over`` off again rebuilds the word the
    junction was removed from.  Where neither lane does, the slide back is
    refused.  So an up/down round trip at one site is the identity.
    """
    if variant not in _SLIDE_VARIANTS:
        raise MoveError(f"unknown handleslide variant {variant!r}")
    want_coeff, side = _SLIDE_VARIANTS[variant]
    _require(
        _attr(d, over).coefficient == want_coeff,
        f"component {over} does not carry the"
        f" {'-1' if want_coeff == COEFF_MINUS else '+1'} coefficient of this variant",
    )
    if site.e1 - site.e0 in _SLIDE_BACK_WIDTHS:
        return _slide_back(d, moving, over, site)
    _require(site.e0 == site.e1, "handleslide site is an insertion point")

    s = site.s0
    tr = trace_components(d)
    moving_slot = s if side == "up" else s + 1
    over_slot = s + 1 if side == "up" else s
    _require(
        _strand_comp(tr, site.e0, moving_slot) == moving,
        f"moving strand is not component {moving} at the site",
    )
    _require(
        _strand_comp(tr, site.e0, over_slot) == over,
        f"over strand is not component {over} at the site",
    )

    if d.spin > 0:
        g, slot = tr.components[over - 1].start
        _require(
            _strand_comp(tr, len(d.events) - g, slot) == over,
            f"component {over} is not its own mirror image (spin symmetry)",
        )

    events, runs, gap_map = _push_off(d, over, "below" if side == "up" else "above")
    pushed = replace(d, events=tuple(events), attrs=())
    gap = gap_map[site.e0]
    # the junction joins the site's moving strand to the companion next to it;
    # run g of the push-off maps gap g, every slot in order
    q = runs[site.e0][2][moving_slot - 1][1] - (side == "down")
    windows = _spin_windows(pushed, gap, gap, _blocks(_junction_key(pushed, gap), q)[1])
    events, shifted = _splice_word(events, windows)
    runs = [(g, shifted[ng], slots) for g, ng, slots in runs]
    error = "rewrite produces an invalid word"
    res = _rebuild(d, events, runs, error, merge=_merge_union)
    _check_spin(res.diagram)
    # off the spin axis the mirrored junction can split what the site joined
    _require(len(res.diagram.attrs) <= len(tr.components),
             f"the mirrored junction splits component {moving} (spin symmetry)")
    return res


def _slide_back(d, moving, over, site):
    i = site.e0
    width = site.e1 - site.e0
    _require(
        tuple(d.events[i : i + width]) in _slide_back_blocks(site.s0),
        "slide-back site does not match a junction",
    )
    tr = trace_components(d)
    # the strands entering and leaving the junction are `moving`'s, and so
    # is each of its cusps
    _require(
        all(
            _strand_comp(tr, g, s) == moving
            for g in (i, site.e1)
            for s in (site.s0, site.s0 + 1)
        ),
        "junction strands do not belong to the moving component",
    )
    events, gap_map = _splice_word(d.events, _spin_windows(d, i, i + width, ()))
    bare = _check_spin(replace(d, events=tuple(events), attrs=()))
    tr2 = trace_components(bare)
    # removing the junction splits `moving`: one lane continues as the
    # surviving component, the other belongs to the freed parallel circuit
    lanes = [_strand_comp(tr2, gap_map[i], s) for s in (site.s0, site.s0 + 1)]
    _require(lanes[0] != lanes[1], "removing the junction did not free a circuit")
    # no cusp of the junction or of its mirror is the first of `over`, so
    # its start lies outside the windows and keeps its slot
    start = tr.components[over - 1].start
    over2 = tr2.comp(gap_map[start[0]], start[1])
    for circuit in reversed(lanes):
        if circuit == over2 or not tr2.components[circuit - 1].closed:
            continue
        gone = [c == circuit for c in tr2.code_comp]
        try:
            new_events, runs = _erase_word(bare.events, tr2, gone)
            # `moving`, and so each dashed link to it, goes to the lane
            # that stays
            runs = [(g, *runs[ng][1:]) for g, ng in gap_map.items()]
            rw = _rebuild(d, new_events, runs, "erasure left an invalid word")
            # the freed circuit is the push-off of `over`: pushing `over`
            # off again (the same word on either side) rebuilds the bare word
            rebuilt = _push_off(rw.diagram, rw.old_to_new[over], "below")[0]
        except MoveError:
            continue
        if tuple(rebuilt) == bare.events:
            _check_spin(rw.diagram)
            return rw
    raise MoveError("site does not span a slide junction (no parallel"
                    " circuit of the surgery component is freed)")


# ---------------------------------------------------------------------------
# crossing change
# ---------------------------------------------------------------------------


def crossing_change(d, site, mode="primitive"):
    """Swap the front resolution of one crossing (dimension 5 only).

    The replaced pattern reroutes the formerly-front strand behind the
    other at the cost of a double stabilization: one antiparallel crossing
    guarded by two zigzags on the rerouted strand.  Applying the move at a
    site holding that pattern restores the plain crossing, so the
    primitive move is an involution on the nose.

    ``mode="macro"`` instead returns the stabilize/isotope/unclasp script
    from :mod:`kirbyfront.macros` realizing the same rewrite.
    """
    if mode == "macro":
        from .macros import crossing_change_macro

        return crossing_change_macro(d, site)
    _require(mode == "primitive", f"unknown crossing change mode {mode!r}")
    _require(d.spin == 0, "the crossing change move needs spin 0 (dimension 5)")
    key = ("crossing_change", 1)
    # a crossing at e0 is changed, else the changed crossing is restored
    forward = d.events[site.e0 : site.e0 + 1] == _blocks(key, site.s0)[0]
    mismatch = (
        "crossing change site matches neither a crossing nor the changed-crossing"
        " template"
    )
    return _rewrite(d, key, site, forward, mismatch)


# ---------------------------------------------------------------------------
# trivial bypass cancellation and birth/cancel pairs
# ---------------------------------------------------------------------------


def _pair_crossings(pairs, a, b):
    """(mutual crossing indices, self crossing count, third-party count) of
    two distinct components, read from the crossing pairs of a tally."""
    mutual = [i for i, _sign in pairs.get((min(a, b), max(a, b)), ())]
    selfc = len(pairs.get((a, a), ())) + len(pairs.get((b, b), ()))
    third = sum(
        len(crossings)
        for (x, y), crossings in pairs.items()
        if (x in (a, b)) != (y in (a, b))
    )
    return mutual, selfc, third


def cancel_trivial_bypass(d, n_handle, np1_handle):
    """Erase a trivial bypass pair (patterns TB1/TB2).

    The pair is a -1 component with a parallel push-off carrying +1, both
    nodes and a dashed link back to the -1 handle; TB1 has the top-index
    handle above, TB2 below.  Both components and their events are erased
    and the rest of the diagram reconnects.
    """
    an = _attr(d, n_handle)
    ap = _attr(d, np1_handle)
    _require(
        an.coefficient == COEFF_MINUS,
        f"component {n_handle} does not carry -1 surgery (TB pattern)",
    )
    _require(
        ap.coefficient == COEFF_PLUS,
        f"component {np1_handle} does not carry +1 surgery (convention (2))",
    )
    _require(
        ap.node_plus and ap.node_minus,
        f"component {np1_handle} needs both nodes (convention (2))",
    )
    _require(
        n_handle in ap.dashed_links,
        f"component {np1_handle} has no dashed link to {n_handle} (convention (3))",
    )
    tr = trace_components(d)
    cusps, pairs = _tally(d, tr)
    for cid in (n_handle, np1_handle):
        _require(tr.components[cid - 1].closed, f"component {cid} is open (TB pattern)")
        _require(
            cusps[cid][:2] == [1, 1],
            f"component {cid} is not a plain unknot front (TB pattern)",
        )
    mutual, selfc, third = _pair_crossings(pairs, n_handle, np1_handle)
    _require(selfc == 0, "TB pair must be embedded parallel push-offs")
    _require(third == 0, "a third component interleaves the TB pair")
    _require(len(mutual) == 2, "TB pair must cross exactly twice (push-off clasp)")
    i, j = mutual
    _require(
        j == i + 1 and d.events[i].pos == d.events[j].pos,
        "the push-off crossings do not form the TB clasp",
    )
    rw = erase_components(d, [n_handle, np1_handle])
    _check_spin(rw.diagram)
    return rw


def birth_cancel_pair(d, site, direction="birth"):
    """Birth or cancel a smoothly cancelling handle pair.

    Birth inserts a +1 unknot (the subcritical handle) threaded once by a
    new -1 unknot.  Cancel takes ``site.components = (plus, minus)``: the
    +1 unknot with a -1 component passing over it geometrically once and
    no other component interleaved; both are erased.
    """
    if direction == "birth":
        res = _rewrite(d, ("birth", 1), site, True, None)
        fresh = sorted(res.fresh)
        _require(len(fresh) in (2, 4), "birth did not create the pair")
        attrs = list(res.diagram.attrs)
        for k in range(0, len(fresh), 2):
            g, y = fresh[k], fresh[k + 1]
            attrs[g - 1] = ComponentAttr(label=f"g{g}", coefficient=COEFF_PLUS)
            attrs[y - 1] = ComponentAttr(label=f"y{y}", coefficient=COEFF_MINUS)
        res.diagram = replace(res.diagram, attrs=tuple(attrs))
        return res
    if direction == "cancel":
        _require(
            len(site.components) == 2,
            "cancel needs site.components = (plus unknot, minus component)",
        )
        plus, minus = site.components
        ap, am = _attr(d, plus), _attr(d, minus)
        _require(
            ap.coefficient == COEFF_PLUS and not (ap.node_plus or ap.node_minus),
            f"component {plus} is not a subcritical +1 unknot",
        )
        _require(
            am.coefficient == COEFF_MINUS, f"component {minus} is not a -1 handle"
        )
        tr = trace_components(d)
        cusps, pairs = _tally(d, tr)
        _require(
            cusps[plus][:2] == [1, 1] and tr.components[plus - 1].closed,
            f"component {plus} is not a plain unknot front",
        )
        mutual, _selfc, third = _pair_crossings(pairs, plus, minus)
        _require(third == 0, "a third component interleaves the cancelling pair")
        _require(
            len(mutual) == 2,
            f"the -1 component passes over the unknot {len(mutual) // 2} times,"
            " not once",
        )
        rw = erase_components(d, [plus, minus])
        _check_spin(rw.diagram)
        return rw
    raise MoveError(f"unknown birth/cancel direction {direction!r}")


def witness_subcritical(d, cid):
    """Check that a component presents a subcritical handle as a +1 unknot.

    Bookkeeping move: subcritical handles are represented this way from
    the start, so the rewrite itself is the identity.
    """
    a = _attr(d, cid)
    _require(
        a.coefficient == COEFF_PLUS and not (a.node_plus or a.node_minus),
        f"component {cid} is not a subcritical +1 unknot",
    )
    tr = trace_components(d)
    cusps, _pairs = _tally(d, tr)
    _require(cusps[cid][:2] == [1, 1], f"component {cid} is not an unknot front")
    return MoveResult(d, {c.cid: c.cid for c in tr.components})


def exchange(d, site):
    """Planar exchange: transpose two adjacent events acting on disjoint
    strands.  Weaker than any Reidemeister move; used by macros to carry a
    pattern past independent events."""
    i = site.e0
    _require(i + 2 <= len(d.events), "exchange needs two adjacent events")
    a, b = d.events[i], d.events[i + 1]
    swapped = _try_swap(a, b)
    _require(swapped is not None, f"events {a} and {b} do not commute")
    return _spin_splice(d, i, i + 2, swapped)


# ---------------------------------------------------------------------------
# Reidemeister moves
# ---------------------------------------------------------------------------


def _strands_have_nodes(d, tr, gap, slots):
    for s in slots:
        try:
            a = d.attr(tr.comp(gap, s))
        except KeyError:  # no strand there
            continue
        if a.node_plus or a.node_minus:
            return True
    return False


def reidemeister(d, move, site, variant=1, direction="forward"):
    """Apply one Legendrian front Reidemeister move at the site.

    ``move`` is "R1", "R2" or "R3"; ``direction`` "forward" rewrites the
    short side to the long side (an insertion for R1/R2), "reverse" the
    converse (a reduction).  R3 sites whose strands carry node decorations
    are refused: node transport under triple points is not part of the
    calculus (logged restriction).
    """
    key = (move, variant)
    _require(
        move in ("R1", "R2", "R3") and key in TEMPLATES,
        f"unknown Reidemeister move {move} variant {variant}",
    )
    _require(direction in ("forward", "reverse"), f"unknown direction {direction!r}")

    def no_nodes():
        _require(
            not _strands_have_nodes(
                d, trace_components(d), site.e0, range(site.s0, site.s0 + 3)
            ),
            "R3 across node-decorated strands is not supported (node transport"
            " under triple points is undefined)",
        )

    forward = direction == "forward"
    mismatch = f"{move} site does not match the template"
    return _rewrite(d, key, site, forward, mismatch, no_nodes if move == "R3" else None)


# ---------------------------------------------------------------------------
# normalization and heuristic equivalence
# ---------------------------------------------------------------------------


def _relative(a, b, c):
    """Three events read relative to the position of the first."""
    return (a.kind, b.kind, c.kind, b.pos - a.pos, c.pos - a.pos)


# The reducing front moves: the long side of every R1 and R2 template, read
# relative to its first event, -> (template key, template slot minus the
# first event's position).  The six long sides are disjoint three-event
# blocks.
_REDUCTIONS = {
    _relative(*long_): (key, 1 - long_[0].pos)
    for key in TEMPLATES
    if key[0] in ("R1", "R2")
    for long_ in [_blocks(key, 1)[1]]
}


def _reduction_at(events, i):
    """The replacement block if a reducing front move matches events[i:i+3]:
    the short side of the R1 or R2 template whose long side is there."""
    if i + 3 > len(events):
        return None
    hit = _REDUCTIONS.get(_relative(*events[i : i + 3]))
    if hit is None:
        return None
    # the window has an event at the template's slot s, so s >= 1
    key, offset = hit
    return _blocks(key, events[i].pos + offset)[0]


def normalize(d):
    """Greedy reduction: repeatedly erase the leftmost swallowtail kink or
    through-cusp crossing pair until none remains.  Each reduction removes
    at least two events, so this stops in at most len(events)/2 steps; the
    output is a deterministic function of the input.

    At spin 0 the word is exchange-canonicalized between reductions, which
    carries reducible patterns past independent events; spun words are
    left in place (the exchange bubble does not respect the palindrome)
    and reductions apply through the mirror machinery instead.
    """

    def canon(x):
        return exchange_canonical(x) if x.spin == 0 else x

    cur = canon(d)
    while True:
        events = cur.events
        applied = None
        for i in range(len(events)):
            repl = _reduction_at(events, i)
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


def _invariant_fingerprint(d):
    census = handle_census(d)
    finger = [tuple(sorted(census.counts.items())), census.euler]
    if d.spin == 0:
        if all(c.closed for c in trace_components(d).components):
            per = sorted(
                (inv.tb, inv.rot, d.attr(cid).coefficient)
                for cid, inv in all_classical_invariants(d).items()
            )
            finger.append(tuple(per))
    return tuple(finger)


def equivalent_up_to_normalization(a, b):
    """Heuristic equivalence: normal forms equal after canonical component
    renumbering.  True is always sound; false negatives are possible (this
    is not a decision procedure for Legendrian isotopy)."""
    if a.spin != b.spin or a.left_count != b.left_count:
        return False
    try:
        if _invariant_fingerprint(a) != _invariant_fingerprint(b):
            return False
    except DiagramError:
        pass
    return same_diagram(normalize(a), normalize(b))
