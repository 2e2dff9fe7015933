"""The component trace: a differential test of ``trace_components`` against
the dict-based walk it replaced, a bound on the memory a trace keeps per
strand segment, a check that no move traces one word twice, and checks
that the one-entry memo returns what a fresh trace returns and spares the
next move a trace of the previous move's output."""

import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field, replace

import pytest

import kirbyfront.diagram as diagram
from kirbyfront.diagram import (
    COEFF_MINUS,
    Event,
    FrontDiagram,
    ValidationError,
    component_path,
    default_attrs,
    strand_counts,
    trace_components,
)
from kirbyfront.families import cieliebak_diagram, torus_knot_2q
from kirbyfront.invariants import (
    classical_invariants,
    homology_presentation,
    linking_matrix,
)
from kirbyfront.moves import (
    MoveError,
    _strand_comp,
    _strands_have_nodes,
    birth_cancel_pair,
    clasp,
    crossing_change,
    handleslide,
    normalize,
    reidemeister,
    site_at,
    stabilize,
)
from kirbyfront.wordops import exchange_canonical

from conftest import random_diagram, segment_maps
from test_templates import _kinked
from test_wordops import _corpus

# ---------------------------------------------------------------------------
# Oracle: the previous trace, kept verbatim
# ---------------------------------------------------------------------------


@dataclass
class TracedComponent:
    """The component record of the previous trace, which kept each
    component's traversal and segment set."""

    cid: int
    closed: bool
    # Traversal order: list of (gap, slot, direction); direction +1 means the
    # canonical traversal crosses this segment rightward.
    path: list = field(default_factory=list)
    segments: set = field(default_factory=set)


@dataclass
class _OracleTrace:
    """What the previous trace returned: each segment as a dict key."""

    seg_comp: dict  # (gap, slot) -> cid
    seg_dir: dict  # (gap, slot) -> +1 / -1; +1 means traversed rightward
    components: list  # TracedComponent, index cid-1
    counts: list  # strand count per gap


def _slot_maps(events, counts):
    """For each event i return (fwd, bwd) slot maps across it.

    fwd maps a slot in gap i-1 to its slot in gap i (None if capped);
    bwd is the inverse (None if born at the event).
    """
    maps = []
    for i, ev in enumerate(events):
        before = counts[i]
        fwd = {}
        if ev.kind == "L":
            for s in range(1, before + 1):
                fwd[s] = s if s < ev.pos else s + 2
        elif ev.kind == "R":
            for s in range(1, before + 1):
                if s in (ev.pos, ev.pos + 1):
                    fwd[s] = None
                else:
                    fwd[s] = s if s < ev.pos else s - 2
        else:
            for s in range(1, before + 1):
                fwd[s] = s
            fwd[ev.pos] = ev.pos + 1
            fwd[ev.pos + 1] = ev.pos
        bwd = {v: k for k, v in fwd.items() if v is not None}
        maps.append((fwd, bwd))
    return maps


def _oracle_trace_components(d):
    """Trace strand segments into components.

    Deterministic: components are numbered 1..N by their first-touched
    segment, ordered by (gap, slot); each closed component is traversed
    starting at that segment heading rightward.
    """
    counts = strand_counts(d.events, d.left_count)
    nev = len(d.events)
    maps = _slot_maps(d.events, counts)

    all_segs = [(g, s) for g in range(nev + 1) for s in range(1, counts[g] + 1)]
    seg_comp = {}
    seg_dir = {}
    components = []

    def step(gap, slot, direction):
        """Advance one segment in the given direction.

        Returns (gap, slot, direction) of the next segment, or None at a
        wall.  Turning around at a cusp flips the direction.
        """
        if direction > 0:
            if gap == nev:
                return None
            ev = d.events[gap]
            fwd, _ = maps[gap]
            nxt = fwd[slot]
            if nxt is None:
                partner = ev.pos + 1 if slot == ev.pos else ev.pos
                return (gap, partner, -1)
            return (gap + 1, nxt, 1)
        else:
            if gap == 0:
                return None
            ev = d.events[gap - 1]
            _, bwd = maps[gap - 1]
            prev = bwd.get(slot)
            if prev is None:
                partner = ev.pos + 1 if slot == ev.pos else ev.pos
                return (gap, partner, 1)
            return (gap - 1, prev, -1)

    def walk(gap, slot, direction, comp):
        while True:
            key = (gap, slot)
            if key in seg_comp:
                return
            seg_comp[key] = comp.cid
            seg_dir[key] = direction
            comp.segments.add(key)
            comp.path.append((gap, slot, direction))
            nxt = step(gap, slot, direction)
            if nxt is None:
                return
            gap, slot, direction = nxt

    for seg in all_segs:
        if seg in seg_comp:
            continue
        cid = len(components) + 1
        comp = TracedComponent(cid=cid, closed=False)
        components.append(comp)
        # Walk leftward first (without recording) to find an endpoint, so
        # open components are traversed wall to wall.
        g, s, dr = seg[0], seg[1], 1
        seen = set()
        while True:
            back = step(g, s, -dr)
            if back is None:
                break
            bg, bs, bdr = back
            if (bg, bs) == seg or (bg, bs) in seen:
                # closed component: start at the canonical segment rightward
                g, s, dr = seg[0], seg[1], 1
                comp.closed = True
                break
            seen.add((bg, bs))
            g, s, dr = bg, bs, -bdr
        walk(g, s, dr, comp)

    trace = _OracleTrace(
        seg_comp=seg_comp, seg_dir=seg_dir, components=components, counts=counts
    )
    return trace


# ---------------------------------------------------------------------------
# Differential test
# ---------------------------------------------------------------------------


def _outcome(trace, d):
    """Every field of ``trace(d)`` as the oracle has it: each segment's
    component and direction, as dicts, and each component's traversal,
    segment set and first (gap, slot), or the error type and message.  The
    oracle keeps the traversal and the segments; a trace has them from
    ``component_path`` and its accessors."""
    try:
        tr = trace(d)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    if trace is _oracle_trace_components:
        seg_comp, seg_dir = tr.seg_comp, tr.seg_dir
        comps = [
            (c.cid, c.closed, c.path, c.segments, min(c.segments))
            for c in tr.components
        ]
    else:
        seg_comp, seg_dir = segment_maps(tr)
        segments = {c.cid: set() for c in tr.components}
        for seg, cid in seg_comp.items():
            segments[cid].add(seg)
        comps = [
            (c.cid, c.closed, component_path(d, c.cid), segments[c.cid], c.start)
            for c in tr.components
        ]
    return seg_comp, seg_dir, comps, list(tr.counts)


def _random_word(rng, n, top):
    """Events with no replay check: most of these words are invalid."""
    return tuple(
        Event(rng.choice("LXR"), rng.randrange(1, top + 1)) for _ in range(n)
    )


def _inputs():
    rng = random.Random(20260)
    out = list(_corpus(rng, 300))
    for k in range(1500):
        out.append(random_diagram(rng, spin=k % 2, max_events=6 + k % 20))
    for k in range(-2, 3):
        for m in range(1, 41):
            out.append(cieliebak_diagram(k, m))
    out += [torus_knot_2q(51), torus_knot_2q(201)]
    for k in range(300):
        left = rng.randrange(4)
        out.append(
            FrontDiagram(left_count=left, events=_random_word(rng, k % 9, left + 3))
        )
    return out


def test_trace_matches_previous_walk():
    cases = errors = relative = 0
    for d in _inputs():
        got = _outcome(trace_components, d)
        assert got == _outcome(_oracle_trace_components, d), (d.left_count, d.word())
        cases += 1
        errors += isinstance(got[0], str)
        relative += d.left_count > 0
    assert cases > 3000 and errors > 100 and relative > 300


def test_trace_keeps_each_segment_once():
    """The trace of W^1_160's tall canonical form keeps, and peaks at, no
    more than 32 bytes per strand segment (tracemalloc): its rows hold one
    reference per segment.  A trace that kept each segment as a dict key
    kept about 149 and peaked near 310."""
    d = exchange_canonical(cieliebak_diagram(1, 160))
    tracemalloc.start()
    try:
        tr = diagram._trace(d)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    segments = sum(tr.counts)
    assert segments > 150_000
    assert kept / segments <= 32, kept / segments
    assert peak / segments <= 32, peak / segments


def test_accessors_refuse_a_segment_the_word_lacks():
    """``comp`` and ``dir`` raise KeyError at slot 0, at a negative slot
    (never wrapping to the top of a row), at slot count + 1 and at a gap
    outside the word; each move reads a site through ``_strand_comp``,
    which names the segment, and the R3 node check reads a missing strand
    as no strand."""
    d = _two_unknots(0)  # L1 L3 R3 R1
    tr = trace_components(d)
    for g, count in enumerate(tr.counts):
        for s in range(1, count + 1):
            assert tr.comp(g, s) in (1, 2) and tr.dir(g, s) in (1, -1)
        for s in (0, -1, count + 1):
            for read in (tr.comp, tr.dir):
                with pytest.raises(KeyError):
                    read(g, s)
    for g in (-1, len(d.events) + 1):
        for read in (tr.comp, tr.dir):
            with pytest.raises(KeyError):
                read(g, 1)
    with pytest.raises(MoveError, match="^no strand at gap 1, slot 3$"):
        _strand_comp(tr, 1, 3)
    with pytest.raises(MoveError, match="no strand at gap 1, slot 3"):
        stabilize(d, 1, site_at(1, 3))
    # gap 2 has 4 strands: component 1 on slots 1 and 2, 2 on slots 3 and 4
    noded = replace(d, attrs=(d.attrs[0], replace(d.attrs[1], node_plus=True)))
    assert _strands_have_nodes(noded, tr, 2, range(4, 7))
    assert not _strands_have_nodes(noded, tr, 2, range(5, 8))
    assert not _strands_have_nodes(noded, tr, 2, range(0, 3))


def test_component_path_refuses_an_id_the_word_lacks():
    """``component_path`` raises KeyError(cid) for an id outside 1..N, as
    ``comp`` does for a missing segment, never wrapping to the last
    component."""
    d = _two_unknots(0)  # L1 L3 R3 R1
    assert component_path(d, 1)[0] == (1, 1, 1)
    assert component_path(d, 2)[0] == (2, 3, 1)
    for cid in (0, -1, 3):
        with pytest.raises(KeyError) as exc:
            component_path(d, cid)
        assert exc.value.args == (cid,)


# ---------------------------------------------------------------------------
# One trace per word per move
# ---------------------------------------------------------------------------


@pytest.fixture
def traced(computed, empty_memo):
    """Count the traces computed per word in one move, which starts with
    an empty memo."""

    def once(fn, *args, **kwargs):
        computed.clear()
        empty_memo()
        res = fn(*args, **kwargs)
        seen = Counter(computed)
        assert seen and max(seen.values()) == 1, (fn.__name__, dict(seen))
        return res

    return once


def _two_unknots(spin):
    """Unknot 1 below a -1 unknot 2: a palindrome, so valid at any spin."""
    events = (Event("L", 1), Event("L", 3), Event("R", 3), Event("R", 1))
    d = default_attrs(FrontDiagram(spin=spin, events=events))
    return replace(d, attrs=(d.attrs[0], replace(d.attrs[1], coefficient=COEFF_MINUS)))


def _junction(events, width):
    kinds = ("X", "R", "L", "X")[:width]
    return next(
        i
        for i in range(len(events) - width + 1)
        if tuple(e.kind for e in events[i : i + width]) == kinds
        and len({e.pos for e in events[i : i + width]}) == 1
    )


@pytest.mark.parametrize("spin", [0, 1])
def test_no_move_traces_a_word_twice(traced, spin):
    d = _two_unknots(spin)

    out = traced(clasp, d, site_at(1, 1), "clasp").diagram
    assert traced(clasp, out, site_at(1, 1), "unclasp").diagram.events == d.events

    out = traced(stabilize, d, 1, site_at(1, 1), "stabilize").diagram
    back = traced(stabilize, out, 1, site_at(1, 1), "destabilize").diagram
    assert back.events == d.events

    traced(birth_cancel_pair, d, site_at(0, 1), "birth")
    born = traced(birth_cancel_pair, d, site_at(2, 1), "birth")
    plus, minus = sorted(born.fresh, key=lambda c: -born.diagram.attrs[c - 1].coefficient)
    site = site_at(0, 1, components=(plus, minus))
    back = traced(birth_cancel_pair, born.diagram, site, "cancel").diagram
    assert back.events == d.events

    for move, variant, site in (("R1", 1, site_at(1, 1)), ("R2", 1, site_at(1, 2))):
        out = traced(reidemeister, d, move, site, variant=variant).diagram
        back = traced(
            reidemeister, out, move, site, variant=variant, direction="reverse"
        ).diagram
        assert back.events == d.events

    slid = traced(handleslide, d, 1, 2, "minus_up", site_at(2, 2))
    width = 3 if spin == 0 else 4
    j = _junction(slid.diagram.events, width)
    site = site_at(j, slid.diagram.events[j].pos, e1=j + width)
    moving, over = slid.old_to_new[1], slid.old_to_new[2]
    back = traced(handleslide, slid.diagram, moving, over, "minus_down", site).diagram
    assert back.events == d.events and back.attrs == d.attrs

    if spin == 0:
        clasped = clasp(d, site_at(2, 2), "clasp").diagram
        out = traced(crossing_change, clasped, site_at(2, 2)).diagram
        assert traced(crossing_change, out, site_at(2, 2)).diagram == clasped


def test_a_move_traces_only_its_input_and_its_output(computed, empty_memo):
    """From an empty memo, a forward slide traces no push-off diagram and a
    spun clasp no half-done word: each traces its input, then its output."""
    d0, d1 = _two_unknots(0), _two_unknots(1)
    for d, move in (
        (d0, lambda: handleslide(d0, 1, 2, "minus_up", site_at(2, 2))),
        (d1, lambda: clasp(d1, site_at(1, 1), "clasp")),
    ):
        empty_memo()
        computed.clear()
        out = move().diagram
        assert computed == [(d.left_count, d.events), (out.left_count, out.events)]


# ---------------------------------------------------------------------------
# The memo: the last two words asked for
# ---------------------------------------------------------------------------


def _one_event_changed(rng, d):
    """``d`` with one event moved up a slot or given another kind (most such
    words are invalid)."""
    i = rng.randrange(len(d.events))
    e = d.events[i]
    new = rng.choice((Event(e.kind, e.pos + 1), Event("X" if e.kind != "X" else "L", e.pos)))
    return replace(d, events=d.events[:i] + (new,) + d.events[i + 1 :])


def test_memo_returns_what_a_fresh_trace_returns():
    """Every call, hit or miss, gives the fields of a fresh ``_trace``; a hit
    is the stored trace, found also from new Event objects; another wall or
    one changed event misses; one valid other word keeps the stored trace,
    two in a row evict it; an invalid word raises each time and keeps the
    stored trace."""
    rng = random.Random(8080)
    words = _inputs()
    rng.shuffle(words)
    bad = FrontDiagram(events=(Event("R", 1),))
    hits = misses = 0
    for d in words:
        if isinstance(_outcome(diagram._trace, d)[0], str):
            assert _outcome(trace_components, d) == _outcome(diagram._trace, d)
            continue
        tr = trace_components(d)
        copy = replace(d, name="copy", events=tuple(Event(e.kind, e.pos) for e in d.events))
        assert trace_components(copy) is tr
        hits += 1
        walls = [replace(d, left_count=d.left_count + k) for k in (2, 4)]
        others = walls[:1]
        if d.events:
            others.append(_one_event_changed(rng, d))
        for other in others:
            got = _outcome(trace_components, other)
            assert got == _outcome(diagram._trace, other), (other.left_count, other.word())
            assert trace_components(d) is tr
            misses += not isinstance(got[0], str)
        for wall in walls:
            trace_components(wall)
        evicted = trace_components(d)
        assert evicted is not tr
        assert _outcome(trace_components, d) == _outcome(diagram._trace, d)
        for _ in range(2):
            with pytest.raises(ValidationError, match="event 1 \\(R1\\)"):
                trace_components(bad)
        assert trace_components(d) is evicted
    assert hits > 2500 and misses > 4000


@pytest.fixture
def computed(monkeypatch):
    """The words ``diagram._trace`` computes, as (left_count, events)."""
    words = []
    orig = diagram._trace

    def counting(d):
        words.append((d.left_count, d.events))
        return orig(d)

    monkeypatch.setattr(diagram, "_trace", counting)
    return words


@pytest.mark.parametrize("spin", [0, 1])
def test_an_inverse_move_computes_no_trace_of_its_input(computed, spin):
    """Each forward move of the call-count list above leaves its output's
    trace in the memo, so the inverse move applied next traces it for
    free."""
    d = _two_unknots(spin)

    def cancel(born):
        plus, minus = sorted(
            born.fresh, key=lambda c: -born.diagram.attrs[c - 1].coefficient
        )
        site = site_at(0, 1, components=(plus, minus))
        return birth_cancel_pair(born.diagram, site, "cancel")

    def slide_back(slid):
        width = 3 if spin == 0 else 4
        j = _junction(slid.diagram.events, width)
        site = site_at(j, slid.diagram.events[j].pos, e1=j + width)
        moving, over = slid.old_to_new[1], slid.old_to_new[2]
        return handleslide(slid.diagram, moving, over, "minus_down", site)

    trips = [
        (
            lambda: clasp(d, site_at(1, 1), "clasp"),
            lambda r: clasp(r.diagram, site_at(1, 1), "unclasp"),
        ),
        (
            lambda: stabilize(d, 1, site_at(1, 1), "stabilize"),
            lambda r: stabilize(r.diagram, 1, site_at(1, 1), "destabilize"),
        ),
        (lambda: birth_cancel_pair(d, site_at(2, 1), "birth"), cancel),
        (lambda: handleslide(d, 1, 2, "minus_up", site_at(2, 2)), slide_back),
    ]
    for move, variant, site in (("R1", 1, site_at(1, 1)), ("R2", 1, site_at(1, 2))):
        trips.append(
            (
                lambda move=move, variant=variant, site=site: reidemeister(
                    d, move, site, variant=variant
                ),
                lambda r, move=move, variant=variant, site=site: reidemeister(
                    r.diagram, move, site, variant=variant, direction="reverse"
                ),
            )
        )
    start = d
    if spin == 0:
        start = clasp(d, site_at(2, 2), "clasp").diagram
        trips.append(
            (
                lambda: crossing_change(start, site_at(2, 2)),
                lambda r: crossing_change(r.diagram, site_at(2, 2)),
            )
        )
    for forward, inverse in trips:
        res = forward()
        out = res.diagram
        computed.clear()
        back = inverse(res).diagram
        assert (out.left_count, out.events) not in computed, computed
        assert back.events in (d.events, start.events)


def test_invariants_after_normalize_compute_no_trace(computed):
    """normalize leaves the trace of its output in the memo, and the three
    invariants of that output read it."""
    rng = random.Random(2024)
    for k in range(-2, 3):
        for m in (20, 31, 40):
            n = normalize(_kinked(rng, cieliebak_diagram(k, m), 4))
            computed.clear()
            classical_invariants(n, 1)
            linking_matrix(n)
            homology_presentation(n)
            assert computed == []
