import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirbyfront import diagram, wordops
from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_NONE,
    COEFF_PLUS,
    ComponentAttr,
    DiagramError,
    Event,
    FrontDiagram,
    _attrs_from_map,
    check_spin_symmetry,
    component_path,
    default_attrs,
    mirror,
    parse_front,
    right_count,
    serialize_front,
    strand_counts,
    trace_components,
    validate_diagram,
)
from kirbyfront.invariants import classical_invariants, crossing_data, handle_census
from kirbyfront.families import cieliebak_diagram
from kirbyfront.moves import (
    equivalent_up_to_normalization,
    exchange,
    normalize,
    reidemeister,
    site_at,
)
from kirbyfront.wordops import (
    MoveError,
    MoveResult,
    _splice_word,
    double_component,
    erase_components,
    erase_segments,
    exchange_canonical,
    mirror_events,
    splice,
)

from conftest import random_closed_word, random_diagram, segment_map, segment_maps
from test_templates import _kinked


@st.composite
def closed_words(draw, max_events=12, max_strands=6):
    events = []
    cur = 0
    n = draw(st.integers(min_value=2, max_value=max_events))
    for _ in range(n):
        kinds = []
        if cur + 2 <= max_strands:
            kinds.append("L")
        if cur >= 2:
            kinds += ["X", "R"]
        kind = draw(st.sampled_from(kinds))
        if kind == "L":
            pos = draw(st.integers(1, cur + 1))
            cur += 2
        else:
            pos = draw(st.integers(1, cur - 1))
            if kind == "R":
                cur -= 2
        events.append(Event(kind, pos))
    while cur > 0:
        pos = draw(st.integers(1, cur - 1)) if cur > 2 else 1
        events.append(Event("R", pos))
        cur -= 2
    return tuple(events)


@st.composite
def diagrams(draw, spin=0):
    events = draw(closed_words())
    if spin:
        events = events + mirror_events(events)
    return default_attrs(FrontDiagram(name="h", spin=spin, events=events))


@given(diagrams())
@settings(max_examples=120, deadline=None)
def test_replay_validity_and_round_trip(d):
    counts = strand_counts(d.events, d.left_count)
    assert counts[0] == 0 and counts[-1] == 0
    assert min(counts) >= 0
    again = parse_front(serialize_front(d))
    assert again.events == d.events
    assert serialize_front(again) == serialize_front(d)


@given(diagrams())
@settings(max_examples=120, deadline=None)
def test_mirror_involution_property(d):
    assert mirror(mirror(d)).events == d.events


@given(diagrams(spin=1))
@settings(max_examples=60, deadline=None)
def test_palindrome_words_pass_spin_check(d):
    assert check_spin_symmetry(d)


@given(diagrams())
@settings(max_examples=60, deadline=None)
def test_exchange_canonical_preserves_structure(d):
    c = exchange_canonical(d)
    assert validate_diagram(c) == []
    assert exchange_canonical(c).events == c.events
    assert handle_census(c).euler == handle_census(d).euler
    per_d = sorted(
        (inv.tb, inv.rot) for inv in _closed_invariants(d)
    )
    per_c = sorted(
        (inv.tb, inv.rot) for inv in _closed_invariants(c)
    )
    assert per_d == per_c


def _closed_invariants(d):
    tr = trace_components(d)
    out = []
    for comp in tr.components:
        if comp.closed:
            out.append(classical_invariants(d, comp.cid))
    return out


def _tb_rot(d):
    """(tb, rot) of each closed component of a spin-0 diagram, by id."""
    tr = trace_components(d)
    return {
        c.cid: (inv.tb, inv.rot)
        for c in tr.components
        if c.closed
        for inv in (classical_invariants(d, c.cid),)
    }


def test_rewrites_keep_each_component_tb_and_rot():
    """Orientations follow the direction of travel, so isotopies and the
    mirror keep every closed component's (tb, rot), whatever the traversal
    the rewritten word starts each component at.  An undecorated word is
    read with every orientation +1 and keeps that direction of travel."""
    word = "L1 L3 X1 L1 R3 L1 R1 X2 X1 R1 R1".split()
    bare = FrontDiagram(events=[Event(t[0], int(t[1:])) for t in word])
    rng = random.Random(4242)
    randoms = [_decorate(rng, random_diagram(rng)) for _ in range(150)]
    corpus = [default_attrs(bare), bare] + randoms
    corpus += [replace(d, attrs=()) for d in randoms]
    moves = 0
    for d in corpus:
        before = _tb_rot(d)
        for whole in (mirror(d), exchange_canonical(d)):
            assert sorted(_tb_rot(whole).values()) == sorted(before.values())
        counts = strand_counts(d.events, 0)
        for _ in range(40):
            move = rng.choice(("R1", "R2", "R3"))
            variant = {"R1": rng.choice((1, 2)), "R2": rng.randrange(1, 5)}.get(move, 1)
            i = rng.randrange(len(d.events) + 1)
            site = site_at(i, rng.randrange(1, counts[i] + 2))
            for direction in ("forward", "reverse"):
                try:
                    res = reidemeister(d, move, site, variant, direction)
                except MoveError:
                    continue
                after = _tb_rot(res.diagram)
                assert {res.old_to_new[c]: v for c, v in before.items()} == after
                moves += 1
    assert moves > 500
    assert equivalent_up_to_normalization(bare, exchange_canonical(bare))


@given(diagrams())
@settings(max_examples=60, deadline=None)
def test_normalize_terminates_and_is_idempotent(d):
    n = normalize(d)
    assert len(n.events) <= len(d.events)
    assert normalize(n).events == n.events
    assert validate_diagram(n) == []


@given(diagrams())
@settings(max_examples=60, deadline=None)
def test_pushoff_linking_equals_tb(d):
    tr = trace_components(d)
    comp = tr.components[0]
    if not comp.closed:
        return
    tb = classical_invariants(d, comp.cid).tb
    for side in ("below", "above"):
        rw, companion, _gaps = double_component(d, comp.cid, side)
        out = rw.diagram
        assert validate_diagram(out) == []
        orig = rw.old_to_new[comp.cid]
        lk = (
            sum(
                sign
                for (_i, a, b, sign) in crossing_data(out)
                if {a, b} == {orig, companion}
            )
            // 2
        )
        assert lk == tb
        assert classical_invariants(out, companion).tb == tb


def test_splice_rejects_boundary_breakage():
    d = default_attrs(FrontDiagram(events=(Event("L", 1), Event("R", 1))))
    with pytest.raises(MoveError):
        splice(d, [(1, 1, (Event("L", 1),))])


def test_splice_refuses_an_invalid_word_then_the_boundary_then_a_merge():
    """The shared rewrite tail refuses an invalid word first, then a run
    that keeps the slots of a gap whose strand count changed, then a merge
    without a rule.  An erasure of a circuit at the left wall is refused
    before any of them."""
    d = default_attrs(FrontDiagram(events=(Event("L", 1), Event("R", 1)) * 2))
    with pytest.raises(
        MoveError,
        match=r"^rewrite produces an invalid word: event 3 \(R1\): right cusp at "
        r"position 1 with 0 strands$",
    ):
        splice(d, [(2, 2, (Event("R", 1),))])
    boundary = "^rewrite does not preserve the window boundary$"
    for window in ((1, 1, (Event("L", 1),)), (1, 3, (Event("L", 2),))):
        with pytest.raises(MoveError, match=boundary):
            splice(d, [window])
    # the second window's runs, unchecked, merge components 1 and 2
    events, gap_map = _splice_word(d.events, [(1, 3, (Event("L", 2),))])
    new_trace = trace_components(replace(d, events=tuple(events), attrs=()))
    runs = [(g, ng, None) for g, ng in gap_map.items()]
    with pytest.raises(MoveError, match=r"merged components \[1, 2\]"):
        _attrs_from_map(d, trace_components(d), new_trace, runs)
    # component 1 of R1 L1 R1 on two wall strands is open at the left wall
    cut = default_attrs(FrontDiagram(left_count=2, events=d.events[1:]))
    opened = "^component 1 is open; only closed components erase$"
    with pytest.raises(MoveError, match=opened):
        erase_segments(cut, {(0, 1), (0, 2)})


def test_erase_components_rejects_interleaving():
    # two components clasped together cannot be separated by erasing one
    from kirbyfront.moves import clasp, site_at

    d = default_attrs(
        FrontDiagram(
            events=(Event("L", 1), Event("L", 3), Event("R", 3), Event("R", 1))
        )
    )
    c = clasp(d, site_at(2, 2), "clasp").diagram
    with pytest.raises(MoveError, match="interleaved"):
        erase_components(c, [1])


def test_erase_components_rejects_a_component_open_at_the_right_wall():
    # L1 X1 is one component running from the right wall back to it
    d = default_attrs(FrontDiagram(events=(Event("L", 1), Event("X", 1))))
    with pytest.raises(MoveError, match="component 1 is open"):
        erase_components(d, [1])


def test_erase_components_plain():
    d = default_attrs(
        FrontDiagram(
            events=(Event("L", 1), Event("R", 1), Event("L", 1), Event("R", 1))
        )
    )
    out = erase_components(d, [2]).diagram
    assert out.events == (Event("L", 1), Event("R", 1))


# ---------------------------------------------------------------------------
# The rewrites as they were before they shared one rewrite tail and one
# attribute transport, kept as oracles.
# ---------------------------------------------------------------------------


def _oracle_attrs_from_map(d, new_trace, seg_map, merge=None, fresh_attr=None):
    old_trace = trace_components(d)
    ncomp = len(new_trace.components)
    sources = [set() for _ in range(ncomp)]
    for old_seg, new_seg in seg_map.items():
        oc = old_trace.comp(*old_seg)
        nc = new_trace.comp(*new_seg)
        sources[nc - 1].add(oc)

    old_to_new = {}
    for nc0, src in enumerate(sources):
        for oc in src:
            old_to_new[oc] = nc0 + 1

    def old_attr(oc):
        return d.attrs[oc - 1] if d.attrs else ComponentAttr()

    attrs = []
    fresh = []
    for nc0, src in enumerate(sources):
        if not src:
            fresh.append(nc0 + 1)
            attrs.append(fresh_attr or ComponentAttr(label=""))
        elif len(src) == 1:
            attrs.append(old_attr(next(iter(src))))
        else:
            if merge is None:
                raise MoveError(
                    f"rewrite merged components {sorted(src)} without a merge rule"
                )
            attrs.append(merge(sorted(src), [old_attr(i) for i in sorted(src)]))
    fixed = []
    for a in attrs:
        links = tuple(old_to_new[t] for t in a.dashed_links if t in old_to_new)
        fixed.append(replace(a, dashed_links=links))
    return tuple(fixed), old_to_new, fresh


def _oracle_splice(d, i0, i1, new_events, merge=None, fresh_attr=None, name=None):
    if not (0 <= i0 <= i1 <= len(d.events)):
        raise MoveError(f"event range [{i0}, {i1}) outside the word")
    events = d.events[:i0] + tuple(new_events) + d.events[i1:]
    out = FrontDiagram(
        name=name or d.name,
        spin=d.spin,
        left_count=d.left_count,
        events=events,
        attrs=(),
    )
    try:
        new_trace = trace_components(out)
    except DiagramError as exc:
        raise MoveError(f"rewrite produces an invalid word: {exc}") from exc

    old_counts = strand_counts(d.events, d.left_count)
    new_counts = new_trace.counts
    shift = len(new_events) - (i1 - i0)
    if new_counts[i0] != old_counts[i0] or new_counts[i1 + shift] != old_counts[i1]:
        raise MoveError("rewrite does not preserve the window boundary")

    seg_map = {}
    for g in range(0, i0 + 1):
        for s in range(1, old_counts[g] + 1):
            seg_map[(g, s)] = (g, s)
    for g in range(i1, len(d.events) + 1):
        for s in range(1, old_counts[g] + 1):
            seg_map[(g, s)] = (g + shift, s)
    attrs, old_to_new, fresh = _oracle_attrs_from_map(
        d, new_trace, seg_map, merge=merge, fresh_attr=fresh_attr
    )
    return MoveResult(replace(out, attrs=attrs), old_to_new, fresh)


def _oracle_window(d, windows, merge):
    """The oracle splice of the one window in ``windows``."""
    ((i0, i1, new_events),) = windows
    return _oracle_splice(d, i0, i1, new_events, merge)


def _refuse_at_the_walls(d, erased):
    """Refuse an erasure of ``d`` that reaches a wall, naming the component
    of the first segment (gap, slot) there, left wall first, for which
    ``erased(tr, gap, slot)`` holds."""
    tr = trace_components(d)
    for gap in (0, len(d.events)):
        for s in range(1, tr.counts[gap] + 1):
            if erased(tr, gap, s):
                c = tr.comp(gap, s)
                raise MoveError(f"component {c} is open; only closed components erase")


def _expected_erase_components(d, cids):
    """The oracle, except that a component open at the right wall only is
    refused like one open at the left wall, which the oracle erased."""
    dead = set(cids)
    _refuse_at_the_walls(d, lambda tr, g, s: tr.comp(g, s) in dead)
    return _oracle_erase_components(d, cids)


def _oracle_erase_components(d, cids, name=None):
    tr = trace_components(d)
    dead = set(cids)
    for (g, s), c in segment_maps(tr)[0].items():
        if g == 0 and c in dead:
            raise MoveError(f"component {c} is open; only closed components erase")

    counts = tr.counts
    erased = set()  # current slot numbers holding erased strands
    new_events = []
    seg_map = {}
    for s in range(1, counts[0] + 1):
        seg_map[(0, s)] = (0, s)

    for i, ev in enumerate(d.events):
        gap = i + 1
        if ev.kind == "L":
            keep = tr.comp(gap, ev.pos) not in dead
        elif ev.kind == "R":
            lower_dead = ev.pos in erased
            upper_dead = (ev.pos + 1) in erased
            if lower_dead != upper_dead:
                raise MoveError("erased strands interleave a kept cusp")
            keep = not lower_dead
        else:
            lower_dead = ev.pos in erased
            upper_dead = (ev.pos + 1) in erased
            if lower_dead != upper_dead:
                raise MoveError(
                    "erased component crosses a kept component (interleaved)"
                )
            keep = not lower_dead

        if keep:
            below = sum(1 for s in erased if s < ev.pos)
            new_events.append(Event(ev.kind, ev.pos - below))
            if ev.kind == "L":
                erased = {s + 2 if s >= ev.pos else s for s in erased}
            elif ev.kind == "R":
                erased = {s - 2 if s > ev.pos + 1 else s for s in erased}
        else:
            if ev.kind == "L":
                erased = {s + 2 if s >= ev.pos else s for s in erased}
                erased.update({ev.pos, ev.pos + 1})
            elif ev.kind == "R":
                erased.discard(ev.pos)
                erased.discard(ev.pos + 1)
                erased = {s - 2 if s > ev.pos + 1 else s for s in erased}
        live = sorted(set(range(1, counts[gap] + 1)) - erased)
        for new_s, old_s in enumerate(live, start=1):
            seg_map[(gap, old_s)] = (len(new_events), new_s)

    out = FrontDiagram(
        name=name or d.name,
        spin=d.spin,
        left_count=d.left_count,
        events=tuple(new_events),
        attrs=(),
    )
    new_trace = trace_components(out)
    seg_map = {
        old: new for old, new in seg_map.items() if tr.comp(*old) not in dead
    }
    attrs, old_to_new, fresh = _oracle_attrs_from_map(d, new_trace, seg_map)
    if fresh:
        raise MoveError("erasure created components out of nothing")
    return MoveResult(replace(out, attrs=attrs), old_to_new, fresh)


def _expected_erase_segments(d, segs):
    """The oracle, except that a circuit open at either wall is refused up
    front, as :func:`_expected_erase_components` refuses a component: the
    oracle erased one open at the right wall only, and of one at the left
    wall it kept the wall's strands."""
    _refuse_at_the_walls(d, lambda tr, g, s: (g, s) in segs)
    return _oracle_erase_segments(d, segs)


def _oracle_erase_segments(d, segs, name=None):
    tr = trace_components(d)
    counts = tr.counts
    dead_by_gap = {}
    for (g, s) in segs:
        dead_by_gap.setdefault(g, set()).add(s)

    new_events = []
    seg_map = {}
    live0 = sorted(set(range(1, counts[0] + 1)) - dead_by_gap.get(0, set()))
    for new_s, old_s in enumerate(live0, start=1):
        seg_map[(0, old_s)] = (0, new_s)

    for i, ev in enumerate(d.events):
        gap = i + 1
        before_dead = dead_by_gap.get(i, set())
        after_dead = dead_by_gap.get(gap, set())
        if ev.kind == "L":
            in_circ = (ev.pos in after_dead, (ev.pos + 1) in after_dead)
            if in_circ[0] != in_circ[1]:
                raise MoveError("cusp joins a circuit strand to an outside strand")
            keep = not in_circ[0]
        elif ev.kind == "R":
            in_circ = (ev.pos in before_dead, (ev.pos + 1) in before_dead)
            if in_circ[0] != in_circ[1]:
                raise MoveError("cusp joins a circuit strand to an outside strand")
            keep = not in_circ[0]
        else:
            keep = ev.pos not in before_dead and (ev.pos + 1) not in before_dead

        if keep:
            below = sum(1 for s in before_dead if s < ev.pos)
            new_events.append(Event(ev.kind, ev.pos - below))
        live = sorted(set(range(1, counts[gap] + 1)) - after_dead)
        for new_s, old_s in enumerate(live, start=1):
            seg_map[(gap, old_s)] = (len(new_events), new_s)

    out = FrontDiagram(
        name=name or d.name,
        spin=d.spin,
        left_count=d.left_count,
        events=tuple(new_events),
        attrs=(),
    )
    try:
        new_trace = trace_components(out)
    except DiagramError as exc:
        raise MoveError(f"circuit erasure left an invalid word: {exc}") from exc
    seg_map = {old: new for old, new in seg_map.items() if old not in segs}
    attrs, old_to_new, fresh = _oracle_attrs_from_map(d, new_trace, seg_map)
    if fresh:
        raise MoveError("circuit erasure created components out of nothing")
    return MoveResult(replace(out, attrs=attrs), old_to_new, fresh)


def _oracle_double_component(d, cid, side, name=None):
    if side not in ("below", "above"):
        raise MoveError(f"bad push-off side {side!r}")
    tr = trace_components(d)
    counts = tr.counts
    if not tr.components[cid - 1].closed:
        raise MoveError("only closed components admit a push-off")

    def c_slots(gap):
        return [s for s in range(1, counts[gap] + 1) if tr.comp(gap, s) == cid]

    def slot_map(gap):
        slots = set(c_slots(gap))
        m = {}
        for s in range(1, counts[gap] + 1):
            below = sum(1 for t in slots if t < s)
            mine = 1 if (s in slots and side == "below") else 0
            m[s] = s + below + mine
        return m

    new_events = []
    gap_map = {0: 0}
    seg_map = {}
    m0 = slot_map(0)
    for s in range(1, counts[0] + 1):
        seg_map[(0, s)] = (0, m0[s])

    for i, ev in enumerate(d.events):
        gap = i + 1
        m = slot_map(i)
        slots_i = set(c_slots(i))
        p = ev.pos
        below_p = sum(1 for t in slots_i if t < p)
        if ev.kind == "L":
            if tr.comp(gap, p) == cid:
                q = p + below_p
                new_events += [Event("L", q), Event("L", q), Event("X", q + 1)]
            else:
                new_events.append(Event("L", p + below_p))
        elif ev.kind == "R":
            if p in slots_i:
                q = m[p] - (1 if side == "below" else 0)
                new_events += [Event("X", q + 1), Event("R", q), Event("R", q)]
            else:
                new_events.append(Event("R", m[p]))
        else:
            lo_c, hi_c = p in slots_i, (p + 1) in slots_i
            if lo_c and hi_c:
                q = m[p] - (1 if side == "below" else 0)
                new_events += [
                    Event("X", q + 1),
                    Event("X", q),
                    Event("X", q + 2),
                    Event("X", q + 1),
                ]
            elif lo_c:
                q = m[p] - (1 if side == "below" else 0)
                new_events += [Event("X", q + 1), Event("X", q)]
            elif hi_c:
                q = m[p]
                new_events += [Event("X", q), Event("X", q + 1)]
            else:
                new_events.append(Event("X", m[p]))
        gap_map[gap] = len(new_events)
        mg = slot_map(gap)
        for s in range(1, counts[gap] + 1):
            seg_map[(gap, s)] = (gap_map[gap], mg[s])

    out = FrontDiagram(
        name=name or d.name,
        spin=d.spin,
        left_count=d.left_count,
        events=tuple(new_events),
        attrs=(),
    )
    try:
        new_trace = trace_components(out)
    except DiagramError as exc:
        raise MoveError(f"push-off produced an invalid word: {exc}") from exc
    attrs, old_to_new, fresh = _oracle_attrs_from_map(d, new_trace, seg_map)
    if len(fresh) != 1:
        raise MoveError("push-off did not create exactly one companion")
    rw = MoveResult(replace(out, attrs=attrs), old_to_new, fresh)
    return rw, fresh[0], gap_map


def _delta(ev):
    return 2 if ev.kind == "L" else -2 if ev.kind == "R" else 0


def _oracle_try_swap(a, b):
    """If adjacent events a, b (a first) act on disjoint strands, return
    (b', a') with positions adjusted for the swapped order; else None.

    An insertion (L) only has a position, not a strand support, so it
    commutes whenever its landing point does not fall inside the pair the
    other event acts on.
    """
    alo, ahi = a.pos, a.pos + 1
    if b.kind == "L":
        q = b.pos
        if a.kind == "L":
            if q <= alo:
                return Event("L", q), Event("L", a.pos + 2)
            if q >= alo + 2:
                return Event("L", q - 2), Event("L", a.pos)
            return None
        if a.kind == "X":
            if q <= alo:
                return Event("L", q), Event("X", a.pos + 2)
            if q >= alo + 2:
                return Event("L", q), Event("X", a.pos)
            return None
        # a.kind == "R": an insertion at or below the cap lands under the
        # capped pair; above it, lift past the two vanishing slots
        if q <= alo:
            return Event("L", q), Event("R", a.pos + 2)
        return Event("L", q + 2), Event("R", a.pos)
    if a.kind == "L":
        if b.pos + 1 < alo:
            return Event(b.kind, b.pos), Event(a.kind, a.pos + _delta(b))
        if b.pos > ahi:
            return Event(b.kind, b.pos - 2), Event(a.kind, a.pos)
        return None
    if a.kind == "R":
        if b.pos + 1 < alo:
            return Event(b.kind, b.pos), Event(a.kind, a.pos + _delta(b))
        if b.pos >= alo:
            return Event(b.kind, b.pos + 2), Event(a.kind, a.pos)
        return None
    blo, bhi = b.pos, b.pos + 1
    if bhi < alo:
        return Event(b.kind, b.pos), Event(a.kind, a.pos + _delta(b))
    if blo > ahi:
        return Event(b.kind, b.pos), Event(a.kind, a.pos)
    return None


_RANK = {"L": 0, "X": 1, "R": 2}


def _oracle_exchange_canonical(d):
    events = list(d.events)
    perm = list(range(len(events)))  # perm[i] = original index of events[i]
    n = len(events)
    for _ in range(n * n + 1):
        changed = False
        for i in range(len(events) - 1):
            a, b = events[i], events[i + 1]
            swapped = _oracle_try_swap(a, b)
            if swapped is None:
                continue
            b2, a2 = swapped
            if (b2.pos, _RANK[b2.kind]) < (a.pos, _RANK[a.kind]):
                events[i], events[i + 1] = b2, a2
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                changed = True
        if not changed:
            break
    out = FrontDiagram(
        name=d.name,
        spin=d.spin,
        left_count=d.left_count,
        events=tuple(events),
        attrs=(),
    )
    if not d.attrs:
        return out
    old_tr = trace_components(d)
    new_tr = trace_components(out)
    old_of_new = {}
    for nc in new_tr.components:
        oc = None
        for (g, s, _dir) in component_path(out, nc.cid):
            if g == 0:
                oc = old_tr.comp(0, s)
                break
        if oc is None:
            # locate via a cusp event: the born pair of new event j corresponds
            # to the born pair of original event perm[j].
            for j, ev in enumerate(events):
                if ev.kind != "L":
                    continue
                if new_tr.comp(j + 1, ev.pos) != nc.cid:
                    continue
                orig = d.events[perm[j]]
                oc = old_tr.comp(perm[j] + 1, orig.pos)
                break
        if oc is None:
            raise MoveError("exchange canonicalization lost a component")
        old_of_new[nc.cid] = oc
    new_of_old = {v: k for k, v in old_of_new.items()}
    attrs = []
    for nc in new_tr.components:
        a = d.attrs[old_of_new[nc.cid] - 1]
        links = tuple(new_of_old[t] for t in a.dashed_links if t in new_of_old)
        attrs.append(replace(a, dashed_links=links))
    return replace(out, attrs=tuple(attrs))


def _oracle_mirror(d):
    rev = tuple(
        Event("L" if e.kind == "R" else "R" if e.kind == "L" else "X", e.pos)
        for e in reversed(d.events)
    )
    rc = right_count(d)
    nev = len(d.events)
    mirrored = FrontDiagram(
        name=d.name, spin=d.spin, left_count=rc, events=rev, attrs=()
    )
    if not d.attrs:
        return mirrored
    # Transport attributes through the segment correspondence (g, s) -> (nev - g, s).
    old = trace_components(d)
    new = trace_components(mirrored)
    attrs = [None] * len(new.components)
    old_comp = segment_maps(old)[0]
    for (g, s), cid in old_comp.items():
        ncid = new.comp(nev - g, s)
        attrs[ncid - 1] = d.attrs[cid - 1]
    remap = {}
    for (g, s), cid in old_comp.items():
        remap[cid] = new.comp(nev - g, s)
    fixed = tuple(
        replace(a, dashed_links=tuple(remap[t] for t in a.dashed_links))
        for a in attrs
    )
    return replace(mirrored, attrs=fixed)


def _decorate(rng, d):
    """Random coefficients, nodes, orientations and (valid) dashed links on
    every traced component of d."""
    d = default_attrs(replace(d, attrs=()))
    coeffs = [rng.choice((COEFF_NONE, COEFF_PLUS, COEFF_MINUS)) for _ in d.attrs]
    minus = [i + 1 for i, c in enumerate(coeffs) if c == COEFF_MINUS]
    attrs = [
        replace(
            a,
            coefficient=coeffs[i],
            node_plus=rng.random() < 0.2,
            dashed_links=tuple(t for t in minus if t != i + 1 and rng.random() < 0.4),
            orientation=rng.choice((1, -1)),
        )
        for i, a in enumerate(d.attrs)
    ]
    return replace(d, attrs=tuple(attrs))


def _corpus(rng, size):
    """Seeded closed diagrams (spin 0 and 1) and relative cuts of them:
    prefixes, suffixes and middles, so open components run wall to wall,
    left wall to right wall and right wall to right wall."""
    out = []
    for k in range(size):
        d = random_diagram(rng, spin=1 if k % 5 == 0 else 0, max_events=8 + k % 14)
        out.append(_decorate(rng, d))
        if d.spin:
            continue
        counts = strand_counts(d.events, 0)
        n = len(d.events)
        g0, g1 = sorted(rng.sample(range(n + 1), 2))
        for lo, hi in ((g0, n), (0, g1), (g0, g1)):
            cut = FrontDiagram(
                name="cut", left_count=counts[lo], events=d.events[lo:hi]
            )
            out.append(_decorate(rng, cut))
    # a few undecorated words take the default-attribute path
    out += [replace(d, attrs=()) for d in out[:20]]
    return out


def _splices(rng, d, n):
    """Random windows and replacements: births, clasps, saddles (which may
    merge or split components), deletions, random words, reversed or
    outside ranges and the identity."""
    counts = strand_counts(d.events, d.left_count)
    nev = len(d.events)
    for _ in range(n):
        i0 = rng.randrange(nev + 1)
        i1 = rng.randrange(i0, min(nev, i0 + 3) + 1)
        top = counts[i0]
        s = rng.randrange(1, top + 2)
        pick = rng.randrange(6)
        if pick == 0:
            i1, evs = i0, (Event("L", s), Event("R", s))
        elif pick == 1:
            i1, evs = i0, (Event("X", s), Event("X", s))
        elif pick == 2:
            i1, evs = i0, (Event("R", s), Event("L", s))
        elif pick == 3:
            evs = ()
        elif pick == 4:
            evs = tuple(
                Event(rng.choice("LXR"), rng.randrange(1, top + 3))
                for _ in range(rng.randrange(4))
            )
        else:
            i0, i1, evs = rng.choice(
                ((i1, i0, ()), (0, nev + 1, ()), (i0, i1, d.events[i0:i1]))
            )
        merge = rng.choice((None, lambda cids, attrs: attrs[-1]))
        yield i0, i1, evs, merge


def _result(fn, *args, **kwargs):
    """What a rewrite returned, or the type and message of what it raised."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- errors are compared too
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        rw, companion, gap_map = out
        return rw.diagram, rw.old_to_new, rw.fresh, companion, gap_map
    if isinstance(out, MoveResult):
        return out.diagram, out.old_to_new, out.fresh
    return out


def _unoriented(result):
    """A rewrite's result with every orientation set to +1 (an error as is)."""
    if isinstance(result, FrontDiagram):
        attrs = tuple(replace(a, orientation=1) for a in result.attrs)
        return replace(result, attrs=attrs)
    if isinstance(result[0], FrontDiagram):
        return (_unoriented(result[0]),) + result[1:]
    return result


def _assert_orientation_transported(d, transport, out, sign):
    """Each new component with one source keeps the source's direction of
    travel along the first mapped segment between them (``sign`` -1: the
    rewrite reverses x); ``transport`` is the recorded call's (old trace,
    new trace, segment map)."""
    old, new, seg_map = transport
    first = {}
    for o, n in seg_map.items():
        first.setdefault((old.comp(*o), new.comp(*n)), (o, n))
    sources = {}
    for oc, nc in first:
        sources.setdefault(nc, []).append(oc)
    for nc, ocs in sources.items():
        if len(ocs) != 1:
            continue
        o, n = first[(ocs[0], nc)]
        was = d.attrs[ocs[0] - 1].orientation if d.attrs else 1
        travel = out.attrs[nc - 1].orientation * new.dir(*n)
        assert travel == sign * was * old.dir(*o)


def _bare(result):
    """A rewrite's result without attributes (an error as is)."""
    if isinstance(result, FrontDiagram):
        return replace(result, attrs=())
    return result


def test_rewrites_match_parent_oracles(monkeypatch):
    """The oracles copy ``orientation`` unchanged, which flips the direction
    of travel where a rewrite reverses a component's canonical traversal:
    orientations are compared with the transport rule instead.  The mirror
    and exchange oracles return an undecorated word without attributes,
    which loses its orientation, so those results are compared bare."""
    transports = []

    def recording(d, old_trace, new_trace, runs, *args, **kwargs):
        seg_map = segment_map(runs, old_trace.counts)
        transports.append((old_trace, new_trace, seg_map))
        return _attrs_from_map(d, old_trace, new_trace, runs, *args, **kwargs)

    monkeypatch.setattr(wordops, "_attrs_from_map", recording)
    monkeypatch.setattr(diagram, "_attrs_from_map", recording)
    rng = random.Random(20260)
    corpus = _corpus(rng, 40)
    cases = errors = oriented = 0
    for d in corpus:
        pairs = [
            (mirror, _oracle_mirror, (d,)),
            (exchange_canonical, _oracle_exchange_canonical, (d,)),
        ]
        tr = trace_components(d)
        cids = [c.cid for c in tr.components]
        for k in (1, 2, 3):
            for sub in combinations(cids, k):
                pairs.append((erase_components, _expected_erase_components, (d, sub)))
        pairs.append((erase_components, _expected_erase_components, (d, [0])))
        for comp in tr.components:
            segs = {seg for seg, c in segment_maps(tr)[0].items() if c == comp.cid}
            pairs.append((erase_segments, _expected_erase_segments, (d, segs)))
            for side in ("below", "above"):
                pairs.append(
                    (double_component, _oracle_double_component, (d, comp.cid, side))
                )
        for i0, i1, evs, merge in _splices(rng, d, 10):
            args = (d, [(i0, i1, evs)], merge)
            pairs.append((splice, _oracle_window, args))
        for new, old, args in pairs:
            transports.clear()
            got = _result(new, *args)
            whole = new in (mirror, exchange_canonical)
            strip = _bare if whole and not d.attrs else _unoriented
            assert strip(got) == strip(_result(old, *args)), (
                new.__name__,
                args,
            )
            cases += 1
            failed = isinstance(got[0], str) if isinstance(got, tuple) else False
            errors += failed
            if transports and not failed:
                out = got if isinstance(got, FrontDiagram) else got[0]
                sign = -1 if new is mirror else 1
                _assert_orientation_transported(d, transports[-1], out, sign)
                oriented += 1
    assert cases > 4000 and errors > 1000 and oriented > 2000


def _long_word(rng):
    """A decorated closed word of 100-200 events on at most 6 strands."""
    while True:
        events = random_closed_word(rng, max_events=201)
        if 100 <= len(events) <= 200:
            return _decorate(rng, FrontDiagram(name="long", events=events))


def test_exchange_matches_the_oracle_on_tall_and_long_words(monkeypatch):
    """The integer bubble and the Event-based oracle give the same word and
    attributes on the kinked W^k_m that normalize canonicalizes, which the
    bubble makes tall, and on long random words."""
    transports = []

    def recording(d, old_trace, new_trace, runs, *args, **kwargs):
        seg_map = segment_map(runs, old_trace.counts)
        transports.append((old_trace, new_trace, seg_map))
        return _attrs_from_map(d, old_trace, new_trace, runs, *args, **kwargs)

    monkeypatch.setattr(wordops, "_attrs_from_map", recording)
    rng = random.Random(1010)
    words = [
        _kinked(rng, cieliebak_diagram(k, m), 4) for k in range(-2, 3) for m in range(20, 41)
    ]
    words += [_long_word(rng) for _ in range(30)]
    tallest = 0
    for d in words:
        transports.clear()
        got = exchange_canonical(d)
        assert _unoriented(got) == _unoriented(_oracle_exchange_canonical(d)), d.word()
        _assert_orientation_transported(d, transports[-1], got, 1)
        tallest = max(tallest, max(strand_counts(got.events, 0)))
    assert tallest >= 40


def test_exchange_move_matches_the_oracle_at_every_pair():
    """``moves.exchange`` swaps exactly the pairs the oracle swaps, to the
    oracle's events, with the attributes a splice of them carries."""
    rng = random.Random(1011)
    swaps = refusals = 0
    for _ in range(100):
        d = _decorate(rng, random_diagram(rng, max_events=16))
        for i in range(len(d.events) - 1):
            got = _result(exchange, d, site_at(i, 1))
            swapped = _oracle_try_swap(*d.events[i : i + 2])
            if swapped is None:
                assert isinstance(got, tuple) and got[0] == "MoveError"
                refusals += 1
                continue
            want = _result(_oracle_splice, d, i, i + 2, swapped)
            assert _unoriented(got[0]) == _unoriented(want[0]), (d.word(), i)
            assert got[0].events[i : i + 2] == swapped
            swaps += 1
    assert swaps > 300 and refusals > 300
