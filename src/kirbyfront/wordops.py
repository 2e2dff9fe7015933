"""Low-level rewriting machinery on event words.

A rewrite is one word edit, one segment map from the input word to the
output and one rebuild, which traces only those two words and replays
neither otherwise.  A segment map is a list of runs ``(gap, new_gap,
slots)``, one per input gap it maps: ``slots`` is None where every strand
keeps its slot (the rebuild checks that the strand count does), else a
tuple of (slot, new slot) pairs.  A splice replaces windows of the word by
templates that keep the strand slots entering and leaving each window, so
component attributes ride along the segments outside the windows without
global renumbering.  An erasure removes whole closed circuits, strands and
events, in one pass over the rows of the input's trace; each kept strand
moves down by the erased strands below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagram import (
    DiagramError,
    Event,
    FrontDiagram,
    MoveError,
    _attrs_from_map,
    mirror_events,
    trace_components,
)

__all__ = [
    "MoveError",
    "MoveResult",
    "splice",
    "erase_components",
    "erase_segments",
    "double_component",
    "mirror_events",
    "exchange_canonical",
    "same_diagram",
]


@dataclass
class MoveResult:
    """Result of a rewrite or a move.

    ``old_to_new`` maps surviving old component ids to new ids;
    ``fresh`` lists new component ids with no preimage (born inside).
    """

    diagram: FrontDiagram
    old_to_new: dict
    fresh: list = field(default_factory=list)


def _rebuild(d, events, runs, error, merge=None):
    """The rewrite of ``d`` to ``events`` on the same walls, with attributes
    carried along the segment map ``runs``; an invalid word is a
    :class:`MoveError` that starts with ``error``, and so, after it, is a
    run that keeps every slot of a gap whose strand count changed."""
    # d is traced before the output, so a caller that has just traced d
    # finds it in the memo
    tr = trace_components(d)
    out = FrontDiagram(
        name=d.name,
        spin=d.spin,
        left_count=d.left_count,
        events=tuple(events),
        attrs=(),
    )
    try:
        new_trace = trace_components(out)
    except DiagramError as exc:
        raise MoveError(f"{error}: {exc}") from exc
    for g, ng, slots in runs:
        if slots is None and tr.counts[g] != new_trace.counts[ng]:
            raise MoveError("rewrite does not preserve the window boundary")
    attrs, old_to_new, fresh = _attrs_from_map(d, tr, new_trace, runs, merge=merge)
    return MoveResult(replace(out, attrs=attrs), old_to_new, fresh)


def _splice_word(events, windows):
    """The word ``events`` with each window ``(i0, i1, new_events)`` of
    ``windows``, given in word order, replaced, and the gap map: each gap
    outside the windows to its gap in that word.  A gap at an insertion
    lands right of what is inserted there."""
    out = []
    gap_map = {}
    pos = 0
    # an empty window at the end maps the gaps after the last window
    for i0, i1, new_events in [*windows, (len(events), len(events), ())]:
        if not (pos <= i0 <= i1 <= len(events)):
            raise MoveError(f"event range [{i0}, {i1}) outside the word")
        shift = len(out) - pos
        for g in range(pos, i0 + 1):
            gap_map[g] = g + shift
        out += events[pos:i0]
        out += new_events
        pos = i1
    return out, gap_map


def splice(d, windows, merge=None):
    """Replace each window ``(i0, i1, new_events)`` of ``windows``, given in
    word order, in one rewrite.

    Each replacement must preserve the strand count at both edges of its
    window, which the rebuild checks: a segment outside the windows keeps
    its slot, and its gap moves by the length change of those left of it.
    """
    events, gap_map = _splice_word(d.events, windows)
    runs = [(g, ng, None) for g, ng in gap_map.items()]
    return _rebuild(d, events, runs, "rewrite produces an invalid word", merge=merge)


def erase_components(d, cids):
    """Erase every event and strand of the given closed components.

    A component open at either wall is refused.  Crossings between an
    erased and a kept component are rejected: the erased components must
    not be interleaved with the rest.
    """
    tr = trace_components(d)
    rows = tr.rows
    dead = set(cids)
    gone = [c in dead for c in tr.code_comp]  # per code
    events, runs = _erase_word(d.events, tr, gone)
    for i, ev in enumerate(d.events):
        if ev.kind == "X" and gone[rows[i][ev.pos - 1]] != gone[rows[i][ev.pos]]:
            raise MoveError("erased component crosses a kept component (interleaved)")
    return _rebuild(d, events, runs, "erasure left an invalid word")


def erase_segments(d, segs):
    """Erase a set of strand segments (a circuit) plus its internal events.

    A strand from cusp to cusp with a segment in ``segs`` is erased whole.
    Crossings between a circuit strand and an outside strand are removed
    (the outside strand runs straight through); cusps must join two circuit
    strands or two outside strands, and a circuit open at either wall is
    refused.
    """
    tr = trace_components(d)
    gone = [False] * len(tr.code_comp)  # per code
    for g, s in segs:
        gone[tr._code(g, s)] = True
    events, runs = _erase_word(d.events, tr, gone)
    return _rebuild(d, events, runs, "erasure left an invalid word")


def _erase_word(events, tr, gone):
    """The word ``events``, traced as ``tr``, with every strand whose code
    ``gone`` marks erased, and the segment map of the kept strands (one run
    per gap, in gap order).  An erased strand at a wall, or a cusp joining
    an erased strand to a kept one, is refused; a crossing of an erased
    strand is dropped."""
    rows = tr.rows
    for row in (rows[0], rows[-1]):  # the left wall, then the right wall
        for code in row:
            if gone[code]:
                c = tr.code_comp[code]
                raise MoveError(f"component {c} is open; only closed components erase")

    def run(gap):
        live = [s for s, code in enumerate(rows[gap], 1) if not gone[code]]
        if len(live) == len(rows[gap]):
            return gap, len(out), None
        return gap, len(out), tuple(zip(live, range(1, len(live) + 1)))

    out = []
    runs = [(0, 0, None)]
    for i, ev in enumerate(events):
        # a left cusp's pair is after it, every other event's before it
        pair = rows[i + 1 if ev.kind == "L" else i][ev.pos - 1 : ev.pos + 1]
        lo, hi = gone[pair[0]], gone[pair[1]]
        if ev.kind != "X" and lo != hi:
            raise MoveError("cusp joins a circuit strand to an outside strand")
        if not (lo or hi):
            below = sum(gone[code] for code in rows[i][: ev.pos - 1])
            out.append(Event(ev.kind, ev.pos - below) if below else ev)
        runs.append(run(i + 1))
    return out, runs


def double_component(d, cid, side):
    """Insert a vertical push-off running parallel to component ``cid``.

    ``side`` ("below" or "above") is where the companion runs relative to
    each strand of the component.  Each cusp of the component becomes two
    cusps plus one companion crossing, each self-crossing four crossings,
    each crossing with another strand two crossings; this is the two-copy
    satellite front, with lk(copy, original) = tb.

    Returns (MoveResult, companion_cid, gap_map) where gap_map sends old gap
    indices to new ones.
    """
    new_events, runs, gap_map = _push_off(d, cid, side)
    rw = _rebuild(d, new_events, runs, "push-off produced an invalid word")
    if len(rw.fresh) != 1:
        raise MoveError("push-off did not create exactly one companion")
    return rw, rw.fresh[0], gap_map


def _push_off(d, cid, side):
    """The word of ``d`` with component ``cid`` doubled, the segment map
    (one run per gap, in gap order) and the gap map, without tracing the
    word.  The word is the same for either ``side``; only which copy keeps
    the old segments differs."""
    if side not in ("below", "above"):
        raise MoveError(f"bad push-off side {side!r}")
    tr = trace_components(d)
    if not tr.components[cid - 1].closed:
        raise MoveError("only closed components admit a push-off")
    # with the companion below, an old strand of the component runs above it
    lift = 1 if side == "below" else 0
    mine = [c == cid for c in tr.code_comp]  # per code

    def under(gap):
        """under[s]: the component's strands below slot s at ``gap``, for
        s = 1 .. count + 1; each slot and event at s moves up by that.  The
        run of ``gap`` goes to ``runs``."""
        out = [0, 0]
        slots = []
        for s, code in enumerate(tr.rows[gap], 1):
            slots.append((s, s + out[-1] + (lift if mine[code] else 0)))
            out.append(out[-1] + mine[code])
        runs.append((gap, len(new_events), tuple(slots)))
        return out

    new_events = []
    gap_map = {0: 0}
    runs = []
    below = under(0)
    for i, ev in enumerate(d.events):
        p = ev.pos
        q = p + below[p]
        row = tr.rows[i]
        if ev.kind == "L":
            if mine[tr.rows[i + 1][p - 1]]:
                new_events += [Event("L", q), Event("L", q), Event("X", q + 1)]
            else:
                new_events.append(Event("L", q))
        elif ev.kind == "R":
            if mine[row[p - 1]]:
                new_events += [Event("X", q + 1), Event("R", q), Event("R", q)]
            else:
                new_events.append(Event("R", q))
        else:
            lo_c, hi_c = mine[row[p - 1]], mine[row[p]]
            if lo_c and hi_c:
                new_events += [
                    Event("X", q + 1),
                    Event("X", q),
                    Event("X", q + 2),
                    Event("X", q + 1),
                ]
            elif lo_c:
                new_events += [Event("X", q + 1), Event("X", q)]
            elif hi_c:
                new_events += [Event("X", q), Event("X", q + 1)]
            else:
                new_events.append(Event("X", q))
        gap_map[i + 1] = len(new_events)
        below = under(i + 1)
    return new_events, runs, gap_map


# ---------------------------------------------------------------------------
# Exchange canonical form
# ---------------------------------------------------------------------------


# Rank codes of the event kinds, as the bubble compares them
_RANK = {"L": 0, "X": 1, "R": 2}
_KINDS = "LXR"
_L, _R = _RANK["L"], _RANK["R"]
# strand count change across an event, by rank code
_DELTA = (2, 0, -2)


def _swap_codes(ak, ap, bk, bp):
    """If adjacent events a, b (a first, as rank code and position) act on
    disjoint strands, return (bk, bp', ak, ap') for the swapped order b', a'
    with positions adjusted; else None.

    An insertion (L) only has a position, not a strand support, so it
    commutes whenever its landing point does not fall inside the pair the
    other event acts on.
    """
    # b passes under a: it lands at or below a's slot, or acts on strands
    # below a's pair, and a shifts by b's change in strand count
    if bp <= (ap if bk == _L else ap - 2):
        return bk, bp, ak, ap + _DELTA[bk]
    # b passes over a: it clears a's pair (a cap's pair is gone after it),
    # and shifts back by a's change in strand count
    if bp >= (ap if ak == _R else ap + 2):
        return bk, bp - _DELTA[ak], ak, ap
    return None


def _try_swap(a, b):
    """If adjacent events a, b (a first) act on disjoint strands, return
    (b', a') with positions adjusted for the swapped order; else None."""
    swapped = _swap_codes(_RANK[a.kind], a.pos, _RANK[b.kind], b.pos)
    if swapped is None:
        return None
    bk, bp, ak, ap = swapped
    return Event(_KINDS[bk], bp), Event(_KINDS[ak], ap)


def exchange_canonical(d):
    """Deterministic representative under planar exchange of distant events.

    Bubble passes move events acting on lower strands leftward whenever a
    neighbouring pair acts on disjoint strands; attributes are transported
    exactly via the event permutation.
    """
    kinds = [_RANK[e.kind] for e in d.events]
    poss = [e.pos for e in d.events]
    n = len(kinds)
    perm = list(range(n))  # perm[i] = original index of event i
    for _ in range(n * n + 1):
        changed = False
        for i in range(n - 1):
            ak, ap = kinds[i], poss[i]
            swapped = _swap_codes(ak, ap, kinds[i + 1], poss[i + 1])
            if swapped is None:
                continue
            # swap when b', now first, has a lower (pos, rank) key than a
            if (swapped[1], swapped[0]) < (ap, ak):
                kinds[i], poss[i], kinds[i + 1], poss[i + 1] = swapped
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                changed = True
        if not changed:
            break
    # a swap keeps each event's kind, so an event that kept its position
    # is the original object
    moved = (d.events[k] for k in perm)
    events = tuple(e if e.pos == p else Event(e.kind, p) for e, p in zip(moved, poss))
    # Left-wall segments stay put, and the lower strand born at new event j
    # is the one born at old event perm[j]: every component has one or the
    # other.
    runs = [(0, 0, None)]
    for j, ev in enumerate(events):
        if ev.kind == "L":
            runs.append((perm[j] + 1, j + 1, ((d.events[perm[j]].pos, ev.pos),)))
    rw = _rebuild(d, events, runs, "exchange produced an invalid word")
    if rw.fresh:
        raise MoveError("exchange canonicalization lost a component")
    return rw.diagram


def same_diagram(a, b):
    """Structural equality of diagrams (word, walls, spin, decorations),
    names and labels aside."""
    if (a.spin, a.left_count, a.events) != (b.spin, b.left_count, b.events):
        return False
    return all(
        replace(a.attr(c.cid), label="") == replace(b.attr(c.cid), label="")
        for c in trace_components(a).components
    )
