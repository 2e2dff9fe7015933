"""Differential test: a move on a spun diagram replaces its site and the
mirror site in one splice, and a forward handleslide puts its junction
into the push-off word in the same rebuild.  The sequential splice and
the forward slide they replaced are kept below verbatim as oracles and
compared with the library on seeded corpora: every splice-based move at
every site of random spin-1 and spin-2 diagrams and births on them, and
every forward slide of a fifth of ``test_tally``'s diagrams and of the
spin-2 trivial-bypass pair and births on it.  A last test counts the
replays and traces of each splice-based move: one trace, of its output.
"""

import random
import re
import sys
from collections import Counter
from dataclasses import replace

from kirbyfront import diagram, moves
from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_NONE,
    DiagramError,
    ValidationError,
    parse_front,
    serialize_front,
    strand_counts,
    trace_components,
)
from kirbyfront.families import trivial_bypass_pair
from kirbyfront.moves import (
    _SLIDE_BACK_WIDTHS,
    _SLIDE_VARIANTS,
    TEMPLATES,
    MoveError,
    _attr,
    _blocks,
    _check_spin,
    _junction_key,
    _merge_union,
    _require,
    _slide_back,
    _strand_comp,
    birth_cancel_pair,
    clasp,
    crossing_change,
    exchange,
    handleslide,
    normalize,
    reidemeister,
    site_at,
    stabilize,
    uplus,
)
from kirbyfront.wordops import MoveResult, _rebuild, double_component, mirror_events

from conftest import random_diagram, segment_maps, segment_runs
from test_tally import DIAGRAMS, _births, _decorate


def _junction_for(d, gap, s):
    """The junction block a forward slide inserts, read from the table."""
    return _blocks(_junction_key(d, gap), s)[1]


# ---------------------------------------------------------------------------
# The sequential splice and the forward slide as they were, kept as oracles
# ---------------------------------------------------------------------------


def _oracle_splice(d, i0, i1, new_events, merge=None):
    if not (0 <= i0 <= i1 <= len(d.events)):
        raise MoveError(f"event range [{i0}, {i1}) outside the word")
    events = d.events[:i0] + tuple(new_events) + d.events[i1:]
    error = "rewrite produces an invalid word"
    try:
        new_counts = strand_counts(events, d.left_count)
    except ValidationError as exc:
        raise MoveError(f"{error}: {exc}") from exc
    old_counts = trace_components(d).counts
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
    return _rebuild(d, events, segment_runs(seg_map), error, merge=merge)


def _oracle_spin_windows(d, i0, i1, new_events):
    """Splice windows realizing a rewrite spin-symmetrically, ordered so
    earlier splices do not shift later windows."""
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
        return [(j0, j1, mev), (i0, i1, tuple(new_events))]
    if i0 >= j1:
        return [(i0, i1, tuple(new_events)), (j0, j1, mev)]
    raise MoveError(
        "mirrored site overlaps the primary site inconsistently (spin symmetry)"
    )


def _oracle_spin_splice(d, i0, i1, new_events, merge=None):
    """:func:`splice` at the site and, on a spun diagram, at its mirror
    site."""
    windows = _oracle_spin_windows(d, i0, i1, new_events)
    cur = d
    old_to_new = None
    fresh_all = []
    for (a, b, evs) in windows:
        rw = _oracle_splice(cur, a, b, evs, merge=merge)
        if old_to_new is None:
            old_to_new = rw.old_to_new
        else:
            old_to_new = {
                k: rw.old_to_new[v]
                for k, v in old_to_new.items()
                if v in rw.old_to_new
            }
            fresh_all = [rw.old_to_new[c] for c in fresh_all if c in rw.old_to_new]
        fresh_all += rw.fresh
        cur = rw.diagram
    _check_spin(cur)
    return MoveResult(cur, old_to_new, fresh_all)


def _oracle_handleslide(d, moving, over, variant, site):
    if variant not in _SLIDE_VARIANTS:
        raise MoveError(f"unknown handleslide variant {variant!r}")
    want_coeff, side = _SLIDE_VARIANTS[variant]
    _require(d.attrs, "handleslide needs decorated components")
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

    push_side = "below" if side == "up" else "above"
    rw, companion, gap_map = double_component(d, over, push_side)
    d2 = rw.diagram
    tr2 = trace_components(d2)
    moving2 = rw.old_to_new[moving]
    gap = gap_map[site.e0]
    # locate the junction slot: the moving strand right next to the companion
    lower, upper = (moving2, companion) if side == "up" else (companion, moving2)
    seg_comp = segment_maps(tr2)[0]
    candidates = [
        slot
        for slot in range(1, tr2.counts[gap] + 1)
        if seg_comp.get((gap, slot)) == lower
        and seg_comp.get((gap, slot + 1)) == upper
    ]
    _require(candidates, "push-off did not land next to the moving strand")
    q = min(candidates, key=lambda slot: abs(slot - s))

    def merge(cids, attrs):
        merged = _merge_union(cids, attrs)
        idx = cids.index(moving2) if moving2 in cids else 0
        keep = attrs[idx]
        return replace(merged, label=keep.label, orientation=keep.orientation)

    res = _oracle_spin_splice(d2, gap, gap, _junction_for(d2, gap, q), merge=merge)
    # off the spin axis the mirrored junction can split what the site joined
    _require(len(res.diagram.attrs) <= len(d.attrs),
             f"the mirrored junction splits component {moving} (spin symmetry)")
    res.old_to_new = {
        k: res.old_to_new[v] for k, v in rw.old_to_new.items() if v in res.old_to_new
    }
    return res


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """What a call returned, or the type and message of what it raised."""
    try:
        return fn(*args)
    except DiagramError as exc:
        return type(exc).__name__, str(exc)


def _refusal(got):
    """A refusal's text with its numbers left out, or None for a result."""
    if isinstance(got, tuple) and isinstance(got[0], str):
        assert got[0] == "MoveError", got
        return re.sub(r"\d+", "#", got[1])
    return None


_INVALID = "rewrite produces an invalid word: "
_NOT_OWN_MIRROR = "component # is not its own mirror image (spin symmetry)"


def _spun_calls(d):
    """Every splice-based move of ``d`` at every site, and normalize."""
    tr = trace_components(d)
    # uplus refuses to merge two coefficients, so it also runs without them
    free = replace(d, attrs=tuple(replace(a, coefficient=COEFF_NONE) for a in d.attrs))
    calls = [(normalize, d)]
    for g, count in enumerate(tr.counts):
        calls.append((exchange, d, site_at(g, 1)))
        for s in range(1, count + 2):
            site = site_at(g, s)
            calls += [
                (clasp, d, site, "clasp"),
                (clasp, d, site, "unclasp"),
                (birth_cancel_pair, d, site, "birth"),
            ]
            for move, variant in [k for k in TEMPLATES if k[0] in ("R1", "R2", "R3")]:
                for direction in ("forward", "reverse"):
                    calls.append((reidemeister, d, move, site, variant, direction))
            if s > count:
                continue
            cid = tr.comp(g, s)
            calls += [
                (stabilize, d, cid, site, "stabilize"),
                (stabilize, d, cid, site, "destabilize"),
            ]
            if s < count:
                up = tr.comp(g, s + 1)
                calls += [(uplus, d, cid, up, site), (uplus, free, cid, up, site)]
    return calls


def test_spun_moves_match_the_sequential_splice(monkeypatch):
    """Each success equals the sequential oracle's: word, decorations,
    ``old_to_new`` and ``fresh``.  A refusal stays a refusal; its text may
    name another invalid event (the leftmost one of the final word, not of
    the half-done word)."""
    rng = random.Random(2626)
    ds = [
        _decorate(rng, random_diagram(rng, spin=1 + k % 2, max_events=8))
        for k in range(16)
    ]
    ds += [b for d in ds[:6] for b in _births(rng, d, 1)]
    calls = [c for d in ds for c in _spun_calls(d)]
    new = [_outcome(*c) for c in calls]
    monkeypatch.setattr(moves, "_spin_splice", _oracle_spin_splice)
    old = [_outcome(*c) for c in calls]
    hits = Counter()
    for c, got, want in zip(calls, new, old):
        if isinstance(want, MoveResult):
            # one rebuild lists the born components in id order; the
            # sequential splices listed the later window's first
            fresh = sorted(want.fresh)
            assert got == MoveResult(want.diagram, want.old_to_new, fresh), c
            hits[c[0].__name__] += 1
        elif _refusal(want) is None:  # normalize's diagram
            assert got == want, c
            hits[c[0].__name__] += 1
        elif _refusal(got) == _refusal(want):
            hits["refused alike"] += 1
        else:
            # one splice names the first invalid event of the final word,
            # the sequential splices that of the half-done word
            assert _refusal(got).startswith(_INVALID), (c, got)
            assert _refusal(want).startswith(_INVALID), (c, want)
            hits["names another invalid event"] += 1
    assert min(hits.values()) >= 5, hits


def _pushed_gap(d, tr, over, e0):
    """Gap ``e0`` of ``d`` in the word with ``over`` pushed off, and that
    word's length: a cusp of ``over`` becomes three events, a crossing of
    two of its strands four, a crossing with one of them two."""

    def width(i, ev):
        if ev.kind != "X":
            return 3 if tr.comp(i + (ev.kind == "L"), ev.pos) == over else 1
        lo = tr.comp(i, ev.pos) == over
        hi = tr.comp(i, ev.pos + 1) == over
        return 1 + lo + hi + (lo and hi)

    widths = [width(i, ev) for i, ev in enumerate(d.events)]
    return sum(widths[:e0]), sum(widths)


def _slide_cases(d):
    """Every forward slide site of ``d``: (moving, over, variant, site, the
    junction block at the site's moving strand, and its event index)."""
    tr = trace_components(d)
    out = []
    for g, count in enumerate(tr.counts):
        for s in range(1, count):
            for variant, (coeff, side) in _SLIDE_VARIANTS.items():
                dm = side == "down"
                moving, over = tr.comp(g, s + dm), tr.comp(g, s + 1 - dm)
                if moving == over or d.attrs[over - 1].coefficient != coeff:
                    continue
                gap, n = _pushed_gap(d, tr, over, g)
                # the moving strand moves up by the strands of `over` below it
                q = s + sum(tr.comp(g, t) == over for t in range(1, s + dm))
                block = _blocks(("uplus", 2 if d.spin and 2 * gap == n else 1), q)[1]
                # right of the axis, the mirrored junction comes first
                j = gap + len(block) if d.spin and 2 * gap > n else gap
                out.append((moving, over, variant, site_at(g, s), block, j))
    return out


def test_forward_slides_put_the_junction_at_the_site_strand():
    """Each forward slide puts its junction at the image of the site's
    moving strand in the push-off word.  Where the oracle's junction is
    there too, the slides are equal; where the oracle took another strand
    of ``moving`` nearer the site's slot number, the slide succeeds as the
    oracle's did.  Where the oracle refuses, so does the slide, though on
    a spun diagram another check may come first."""
    pair = trivial_bypass_pair(spin=2)[0]
    hits = Counter()
    for d in DIAGRAMS[::5] + [pair] + _births(random.Random(2627), pair, 4):
        for moving, over, variant, site, block, j in _slide_cases(d):
            got = _outcome(handleslide, d, moving, over, variant, site)
            want = _outcome(_oracle_handleslide, d, moving, over, variant, site)
            if isinstance(want, MoveResult):
                assert isinstance(got, MoveResult), (d, moving, over, variant, site)
                assert got.diagram.events[j : j + len(block)] == block
                if want.diagram.events[j].pos == block[0].pos:
                    assert got == want
                    hits[d.spin, "equal"] += 1
                else:
                    hits[d.spin, "junction moved"] += 1
            elif _refusal(got) == _refusal(want):
                hits[d.spin, "refused alike"] += 1
            elif _refusal(got) == _NOT_OWN_MIRROR:
                assert d.spin and _refusal(want) is not None, (got, want)
                hits[d.spin, "over is not its own mirror"] += 1
            else:
                assert d.spin and _refusal(got) is not None, (got, want)
                hits[d.spin, "refused first by another check"] += 1
    assert hits[0, "junction moved"] > 0, hits
    assert hits[0, "equal"] > 1000, hits
    assert hits[1, "equal"] > 0 and hits[2, "equal"] > 0, hits
    assert hits[1, "refused alike"] > 10 and hits[2, "refused alike"] > 100, hits
    assert hits[1, "over is not its own mirror"] > 1000, hits
    assert hits[2, "over is not its own mirror"] > 100, hits


def _own_mirror(d, cid):
    """Whether every segment (g, s) of component ``cid`` has its mirror
    segment (len(events) - g, s) in ``cid`` too."""
    seg_comp = segment_maps(trace_components(d))[0]
    nev = len(d.events)
    return all(
        seg_comp[(nev - g, s)] == cid for (g, s), c in seg_comp.items() if c == cid
    )


def test_a_spun_slide_over_a_component_not_its_own_mirror_is_refused_first():
    """On a spun diagram, a forward slide over a component whose mirror
    image is another component is refused before the push-off, naming the
    spin symmetry; the forward slide it replaced refused each of these
    too, after building the pushed word.  A slide over a component that is
    its own mirror image never gets that refusal."""
    pair = trivial_bypass_pair(spin=2)[0]
    spun = [d for d in DIAGRAMS if d.spin] + [pair] + _births(random.Random(2627), pair, 4)
    hits = Counter()
    for d in spun:
        own = {c.cid: _own_mirror(d, c.cid) for c in trace_components(d).components}
        for moving, over, variant, site, _block, _j in _slide_cases(d):
            got = _refusal(_outcome(handleslide, d, moving, over, variant, site))
            if own[over]:
                assert got != _NOT_OWN_MIRROR, (d, moving, over, variant, site)
                hits[d.spin, "own mirror"] += 1
                continue
            assert got == _NOT_OWN_MIRROR, (d, moving, over, variant, site, got)
            want = _outcome(_oracle_handleslide, d, moving, over, variant, site)
            assert _refusal(want) is not None, (d, moving, over, variant, site)
            hits[d.spin, "refused first"] += 1
    assert hits[1, "refused first"] > 5000 and hits[2, "refused first"] > 100, hits
    assert hits[1, "own mirror"] > 100 and hits[2, "own mirror"] > 100, hits


# ---------------------------------------------------------------------------
# One replay per rewrite
# ---------------------------------------------------------------------------


def _counted(monkeypatch, module, name):
    """Rebind every kirbyfront module's name for ``module.name`` to a
    wrapper that records its calls; return the list of calls."""
    calls = []
    orig = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return orig(*args)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "kirbyfront" and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_a_rewrite_replays_only_its_output(monkeypatch, empty_memo):
    """``parse_front`` replays its word once with ``strand_counts``; no
    move does.  Every splice-based move of ``test_tally``'s random
    diagrams, at spin 0 and 1, from a memo that holds only its input,
    computes one trace if it succeeds, of its output: its input and its
    spin checks read the memo."""
    replays = _counted(monkeypatch, diagram, "strand_counts")
    traced = _counted(monkeypatch, diagram, "_trace")
    parse_front(serialize_front(DIAGRAMS[0]))
    assert len(replays) == 1 and len(traced) == 1
    hits = Counter()
    for d in DIAGRAMS[:120]:
        calls = [c for c in _spun_calls(d) if c[0] is not normalize]
        if d.spin == 0:
            calls += [(crossing_change, d, site_at(g, 1)) for g in range(len(d.events))]
        for c in calls:
            empty_memo()
            trace_components(d)
            replays.clear()
            traced.clear()
            got = _outcome(*c)
            assert replays == [], c
            if isinstance(got, MoveResult):
                out = got.diagram
                assert [(t.left_count, t.events) for (t,) in traced] == [
                    (out.left_count, out.events)
                ], c
                hits[d.spin, c[0].__name__] += 1
            else:
                assert len(traced) <= 1, c
                hits[d.spin, "refused"] += 1
    assert min(hits.values()) >= 5 and len(hits) == 15, hits
