"""Differential test: the classical invariants, the linking and homology
data and the move preconditions read one cusp and crossing tally per
trace.  The scans they replaced are kept below verbatim as oracles and
compared with the library on a seeded corpus: random diagrams at spin 0
and 1, the plane-bundle family, Mazur and the trivial-bypass pair, births
on those, every slid state a handleslide makes of them and its slide back.
"""

import random
import re
from collections import Counter
from dataclasses import replace

from kirbyfront import moves
from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_NONE,
    COEFF_PLUS,
    ComponentAttr,
    DiagramError,
    FrontDiagram,
    default_attrs,
    strand_counts,
    trace_components,
)
from kirbyfront.families import cieliebak_diagram, mazur_diagram, trivial_bypass_pair
from kirbyfront.invariants import (
    ClassicalInvariants,
    InvariantError,
    LinkingData,
    _classify,
    all_classical_invariants,
    classical_invariants,
    crossing_data,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from kirbyfront.moves import (
    MoveError,
    _attr,
    _check_spin,
    _require,
    _slide_back_blocks,
    _spin_splice,
    _spin_windows,
    _strand_comp,
    birth_cancel_pair,
    cancel_trivial_bypass,
    handleslide,
    site_at,
    witness_subcritical,
)
from kirbyfront.smith import smith_normal_form
from kirbyfront.wordops import (
    MoveResult,
    double_component,
    erase_components,
    erase_segments,
)

from conftest import random_diagram, segment_maps

# ---------------------------------------------------------------------------
# The scans as they were, kept as oracles
# ---------------------------------------------------------------------------


def _orient(d, cid):
    if d.attrs:
        return d.attrs[cid - 1].orientation
    return 1


def _cusp_direction(d, tr, i):
    """+1 for an up cusp, -1 for a down cusp, at event index i."""
    ev = d.events[i]
    if ev.kind == "L":
        lower = (i + 1, ev.pos)
        upper = (i + 1, ev.pos + 1)
    else:
        lower = (i, ev.pos)
        upper = (i, ev.pos + 1)
    cid = tr.comp(*lower)
    orient = _orient(d, cid)
    # Leaving a left cusp rightward along the lower strand means the
    # traversal came down through the cusp; at a right cusp arriving
    # rightward along the lower strand means it goes up.
    if ev.kind == "L":
        up = tr.dir(*upper) * orient > 0
    else:
        up = tr.dir(*lower) * orient > 0
    return 1 if up else -1


def _oracle_classical_invariants(d, cid):
    if d.spin != 0:
        raise InvariantError("classical invariants are defined for spin 0 only")
    tr = trace_components(d)
    if not 1 <= cid <= len(tr.components):
        raise InvariantError(f"no component {cid}")
    comp = tr.components[cid - 1]
    if not comp.closed:
        raise InvariantError(f"component {cid} is open")

    left = right = up = down = 0
    for i, ev in enumerate(d.events):
        if ev.kind == "X":
            continue
        gap = i + 1 if ev.kind == "L" else i
        if tr.comp(gap, ev.pos) != cid:
            continue
        if ev.kind == "L":
            left += 1
        else:
            right += 1
        if _cusp_direction(d, tr, i) > 0:
            up += 1
        else:
            down += 1
    writhe = sum(
        sign for (_i, cf, cb, sign) in crossing_data(d) if cf == cid and cb == cid
    )
    return ClassicalInvariants(
        tb=writhe - right,
        rot=(down - up) // 2,
        writhe=writhe,
        left_cusps=left,
        right_cusps=right,
        up_cusps=up,
        down_cusps=down,
    )


def _oracle_all_classical_invariants(d):
    tr = trace_components(d)
    return {
        c.cid: _oracle_classical_invariants(d, c.cid)
        for c in tr.components
        if c.closed
    }


def _oracle_surgery_data(d, what):
    if d.spin != 0:
        raise InvariantError(f"{what} data is defined for spin 0 only")
    if not d.attrs:
        d = default_attrs(d)
    tr = trace_components(d)
    minus = [
        c.cid for c in tr.components if d.attrs[c.cid - 1].coefficient == COEFF_MINUS
    ]
    plus_sub = [
        c.cid
        for c in tr.components
        if d.attrs[c.cid - 1].coefficient == COEFF_PLUS and _classify(d, c.cid) == "n-1"
    ]
    lk = {}
    geo = {}
    for (_i, cf, cb, sign) in crossing_data(d):
        if cf == cb:
            continue
        key = (min(cf, cb), max(cf, cb))
        lk[key] = lk.get(key, 0) + sign
        geo[key] = geo.get(key, 0) + 1
    linking = {key: v // 2 for key, v in lk.items()}
    passes = {key: v // 2 for key, v in geo.items()}
    return d, tr, minus, plus_sub, linking, passes


def _oracle_linking_matrix(d):
    d, tr, minus, plus_sub, linking, passes = _oracle_surgery_data(d, "linking")
    for cid in minus:
        if not tr.components[cid - 1].closed:
            raise InvariantError(f"-1 component {cid} is open")

    size = len(minus)
    matrix = [[0] * size for _ in range(size)]
    for a in range(size):
        inv = _oracle_classical_invariants(d, minus[a])
        matrix[a][a] = inv.tb - 1
        for b in range(a + 1, size):
            key = (min(minus[a], minus[b]), max(minus[a], minus[b]))
            matrix[a][b] = matrix[b][a] = linking.get(key, 0)
    over = {
        (mc, pc): passes.get((min(mc, pc), max(mc, pc)), 0)
        for mc in minus
        for pc in plus_sub
    }
    return LinkingData(
        minus_ids=tuple(minus),
        matrix=tuple(tuple(row) for row in matrix),
        over_ones=over,
    )


def _oracle_homology_presentation(d):
    d, tr, minus, plus_sub, linking, _passes = _oracle_surgery_data(d, "homology")
    order = plus_sub + minus
    index = {cid: k for k, cid in enumerate(order)}
    size = len(order)
    if size == 0:
        return []

    m = [[0] * size for _ in range(size)]
    for cid in minus:
        if not tr.components[cid - 1].closed:
            raise InvariantError(f"-1 component {cid} is open")
        inv = _oracle_classical_invariants(d, cid)
        m[index[cid]][index[cid]] = inv.tb - 1
    for a in range(size):
        for b in range(a + 1, size):
            ca, cb_ = order[a], order[b]
            if ca in plus_sub and cb_ in plus_sub:
                continue
            key = (min(ca, cb_), max(ca, cb_))
            m[a][b] = m[b][a] = linking.get(key, 0)

    diag = smith_normal_form(m)
    factors = [x for x in diag if x > 1]
    factors += [0] * sum(1 for x in diag if x == 0)
    return factors


def _oracle_invariant_fingerprint(d):
    census = handle_census(d)
    finger = [tuple(sorted(census.counts.items())), census.euler]
    if d.spin == 0:
        tr = trace_components(d)
        if all(c.closed for c in tr.components):
            per = sorted(
                (inv.tb, inv.rot, d.attrs[cid - 1].coefficient if d.attrs else 0)
                for cid, inv in _oracle_all_classical_invariants(d).items()
            )
            finger.append(tuple(per))
    return tuple(finger)


def _component_cusp_counts(d, tr, cid):
    left = right = 0
    for i, ev in enumerate(d.events):
        if ev.kind == "X":
            continue
        gap = i + 1 if ev.kind == "L" else i
        if tr.comp(gap, ev.pos) == cid:
            if ev.kind == "L":
                left += 1
            else:
                right += 1
    return left, right


def _pair_crossings(d, tr, a, b):
    """(mutual crossing indices, self crossing count, third-party count)."""
    mutual, selfc, third = [], 0, 0
    for i, ev in enumerate(d.events):
        if ev.kind != "X":
            continue
        ca = tr.comp(i, ev.pos)
        cb = tr.comp(i, ev.pos + 1)
        if {ca, cb} == {a, b} and ca != cb:
            mutual.append(i)
        elif ca == cb and ca in (a, b):
            selfc += 1
        elif (ca in (a, b)) != (cb in (a, b)):
            third += 1
    return mutual, selfc, third


def _oracle_cancel_trivial_bypass(d, n_handle, np1_handle):
    _require(d.attrs, "cancel_trivial_bypass needs decorated components")
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
    for cid in (n_handle, np1_handle):
        _require(tr.components[cid - 1].closed, f"component {cid} is open (TB pattern)")
        left, right = _component_cusp_counts(d, tr, cid)
        _require(
            left == 1 and right == 1,
            f"component {cid} is not a plain unknot front (TB pattern)",
        )
    mutual, selfc, third = _pair_crossings(d, tr, n_handle, np1_handle)
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
    return MoveResult(rw.diagram, rw.old_to_new)


def _oracle_cancel_pair(d, site):
    """The cancel branch of ``birth_cancel_pair``."""
    _require(
        len(site.components) == 2,
        "cancel needs site.components = (plus unknot, minus component)",
    )
    plus, minus = site.components
    _require(d.attrs, "cancel needs decorated components")
    ap, am = _attr(d, plus), _attr(d, minus)
    _require(
        ap.coefficient == COEFF_PLUS and not (ap.node_plus or ap.node_minus),
        f"component {plus} is not a subcritical +1 unknot",
    )
    _require(am.coefficient == COEFF_MINUS, f"component {minus} is not a -1 handle")
    tr = trace_components(d)
    left, right = _component_cusp_counts(d, tr, plus)
    _require(
        left == 1 and right == 1 and tr.components[plus - 1].closed,
        f"component {plus} is not a plain unknot front",
    )
    mutual, selfc, third = _pair_crossings(d, tr, plus, minus)
    _require(third == 0, "a third component interleaves the cancelling pair")
    _require(
        len(mutual) == 2,
        f"the -1 component passes over the unknot {len(mutual) // 2} times,"
        " not once",
    )
    rw = erase_components(d, [plus, minus])
    _check_spin(rw.diagram)
    return MoveResult(rw.diagram, rw.old_to_new)


def _oracle_witness_subcritical(d, cid):
    _require(d.attrs, "witness needs decorated components")
    a = _attr(d, cid)
    _require(
        a.coefficient == COEFF_PLUS and not (a.node_plus or a.node_minus),
        f"component {cid} is not a subcritical +1 unknot",
    )
    tr = trace_components(d)
    left, right = _component_cusp_counts(d, tr, cid)
    _require(left == 1 and right == 1, f"component {cid} is not an unknot front")
    return MoveResult(d, {c.cid: c.cid for c in tr.components})


def _oracle_slide_back(d, moving, over, site):
    i = site.e0
    width = site.e1 - site.e0
    _require(
        tuple(d.events[i : i + width]) in _slide_back_blocks(site.s0),
        "slide-back site does not match a junction",
    )
    tr = trace_components(d)
    _require(
        _strand_comp(tr, i, site.s0) == moving
        and _strand_comp(tr, i, site.s0 + 1) == moving,
        "junction strands do not belong to the moving component",
    )
    before = handle_census(d).euler
    windows = _spin_windows(d, i, i + width, ())
    res = _spin_splice(d, i, i + width, ())
    d2 = res.diagram
    tr2 = trace_components(d2)
    # removing the junction splits `moving`: one lane continues as the
    # surviving component, the other belongs to the freed parallel circuit
    i_final = i - sum(b - a for (a, b, _e) in windows if a < i)
    lane0 = _strand_comp(tr2, i_final, site.s0)
    lane1 = _strand_comp(tr2, i_final, site.s0 + 1)
    _require(lane0 != lane1, "removing the junction did not free a circuit")
    over2 = res.old_to_new.get(over)
    _require(over2 is not None, "the surgery component vanished")

    def profile(cid):
        left, right = _component_cusp_counts(d2, tr2, cid)
        selfx = withover = 0
        for k, ev in enumerate(d2.events):
            if ev.kind != "X":
                continue
            ca = tr2.comp(k, ev.pos)
            cb = tr2.comp(k, ev.pos + 1)
            if ca == cb == cid:
                selfx += 1
            elif {ca, cb} == {cid, over2}:
                withover += 1
        return left, right, selfx, withover

    oleft, oright, oself, _ = profile(over2)
    want = (oleft, oright, oself, oleft + oright + 2 * oself)
    out = None
    keep = None
    for circuit, kept in ((lane1, lane0), (lane0, lane1)):
        if not tr2.components[circuit - 1].closed:
            continue
        # the freed circuit is a vertical push-off of `over`: same cusp and
        # self-crossing counts, one mutual crossing per cusp of `over` and
        # two per self-crossing
        if profile(circuit) != want:
            continue
        try:
            segs = {seg for seg, c in segment_maps(tr2)[0].items() if c == circuit}
            rw = erase_segments(d2, segs)
        except MoveError:
            continue
        if handle_census(rw.diagram).euler != before:
            continue
        out, keep = rw, kept
        break
    _require(out is not None, "site does not span a slide junction (no parallel"
             " circuit of the surgery component is freed)")
    _check_spin(out.diagram)
    mapping = {}
    for k, v in res.old_to_new.items():
        if k == moving:
            continue
        if v in out.old_to_new:
            mapping[k] = out.old_to_new[v]
    mapping[moving] = out.old_to_new[keep]
    return MoveResult(out.diagram, mapping)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """What a call returned, or the type and message of what it raised."""
    try:
        return fn(*args)
    except DiagramError as exc:
        return type(exc).__name__, str(exc)


def _decorate(rng, d):
    """Random coefficients, nodes, orientations and dashed links to -1
    components; now and then a +1 component with one node, which the
    handle classification refuses."""
    attrs = []
    for k in range(len(d.attrs)):
        coeff = rng.choice((COEFF_MINUS, COEFF_MINUS, COEFF_PLUS, COEFF_NONE))
        nodes = coeff == COEFF_PLUS and rng.random() < 0.4
        one_node = coeff == COEFF_PLUS and rng.random() < 0.05
        attrs.append(
            ComponentAttr(
                label=f"c{k + 1}",
                coefficient=coeff,
                node_plus=nodes or one_node,
                node_minus=nodes,
                orientation=rng.choice((1, -1)),
            )
        )
    minus = [k + 1 for k, a in enumerate(attrs) if a.coefficient == COEFF_MINUS]
    for k, a in enumerate(attrs):
        if a.node_plus and a.node_minus and minus:
            attrs[k] = replace(a, dashed_links=(rng.choice(minus),))
    return replace(d, attrs=tuple(attrs))


def _births(rng, d, n):
    """``d`` with a cancelling pair born at ``n`` random insertion points."""
    counts = strand_counts(d.events, d.left_count)
    out = []
    for _ in range(n):
        g = rng.randrange(len(d.events) + 1)
        got = _outcome(
            birth_cancel_pair, d, site_at(g, rng.randrange(1, counts[g] + 2)), "birth"
        )
        if isinstance(got, MoveResult):
            out.append(got.diagram)
    return out


_VARIANTS = {
    "minus_up": (COEFF_MINUS, 0, 1),
    "minus_down": (COEFF_MINUS, 1, 0),
    "plus_up": (COEFF_PLUS, 0, 1),
    "plus_down": (COEFF_PLUS, 1, 0),
}


def _slides(d):
    """Every forward handleslide of ``d``: (slid result, moving, over)."""
    tr = trace_components(d)
    out = []
    for g, count in enumerate(tr.counts):
        for s in range(1, count):
            for variant, (coeff, dm, do) in _VARIANTS.items():
                moving = tr.comp(g, s + dm)
                over = tr.comp(g, s + do)
                if moving == over or d.attrs[over - 1].coefficient != coeff:
                    continue
                got = _outcome(handleslide, d, moving, over, variant, site_at(g, s))
                if isinstance(got, MoveResult):
                    out.append((got, moving, over))
    return out


def _slide_back_sites(d):
    """Every site whose window is a block a slide back removes."""
    sites = []
    for i in range(len(d.events)):
        for s in {d.events[i].pos, d.events[i].pos - 1, d.events[i].pos - 2}:
            if s < 1:
                continue
            for block in _slide_back_blocks(s):
                if tuple(d.events[i : i + len(block)]) == block:
                    sites.append(site_at(i, s, e1=i + len(block)))
    return sites


def _corpus():
    """(diagrams, slid states).  The diagrams are random ones, the family
    W^k_m for k = -2..2 and m = 1..20, Mazur, the trivial-bypass pair at
    spin 0 and 1, and births on all of them.  The slid states are every
    forward slide, as (diagram, result, moving, over), of Mazur, the pair,
    the births on those and on W^k_1, and a few random diagrams; a larger
    m only lengthens the zigzag runs a slide crosses."""
    rng = random.Random(8808)
    randoms = [
        _decorate(rng, random_diagram(rng, spin=k % 2, max_events=6 + k % 14))
        for k in range(120)
    ]
    family = [cieliebak_diagram(k, m) for m in range(1, 21) for k in range(-2, 3)]
    named = [mazur_diagram(), trivial_bypass_pair()[0], trivial_bypass_pair(spin=1)[0]]
    births = [(d, _births(rng, d, 2)) for d in randoms + family + named]
    born = [b for _d, bs in births for b in bs]
    slid_births = [b for d, bs in births if d in family[:5] + named for b in bs]
    to_slide = randoms[:12] + named + slid_births
    slid = [(d, *hit) for d in to_slide for hit in _slides(d)]
    return randoms + family + named + born, slid


def _cuts(rng, ds):
    """Relative cuts of closed spin-0 words, so components run wall to wall."""
    out = []
    for d in ds:
        if d.spin or len(d.events) < 2:
            continue
        counts = strand_counts(d.events, 0)
        lo, hi = sorted(rng.sample(range(len(d.events) + 1), 2))
        for a, b in ((lo, len(d.events)), (0, hi), (lo, hi)):
            cut = FrontDiagram(left_count=counts[a], events=d.events[a:b])
            out.append(_decorate(rng, default_attrs(cut)))
    return out


DIAGRAMS, SLID = _corpus()


def _same(hits, new, old, *args):
    """The outcome ``new`` and ``old`` agree on for ``args``, counted in
    ``hits`` under the function name or, for an error, under its message
    with the ids left out."""
    got = _outcome(new, *args)
    assert got == _outcome(old, *args), (new.__name__, args)
    _hit(hits, new.__name__, got)
    return got


def _hit(hits, name, got):
    if isinstance(got, tuple) and isinstance(got[0], str):
        hits[re.sub(r"(?<= )\d+", "#", got[1])] += 1
    else:
        hits[name] += 1


def _check_invariants(d, hits):
    for cid in range(0, len(trace_components(d).components) + 2):
        _same(hits, classical_invariants, _oracle_classical_invariants, d, cid)
    _same(hits, all_classical_invariants, _oracle_all_classical_invariants, d)
    _same(hits, linking_matrix, _oracle_linking_matrix, d)
    _same(hits, homology_presentation, _oracle_homology_presentation, d)
    _same(hits, moves._invariant_fingerprint, _oracle_invariant_fingerprint, d)


def _cancel(d, site):
    return birth_cancel_pair(d, site, "cancel")


def _check_moves(d, hits):
    for a in range(1, len(d.attrs) + 1):
        _same(hits, witness_subcritical, _oracle_witness_subcritical, d, a)
        for b in range(1, len(d.attrs) + 1):
            if a == b:
                continue
            site = site_at(0, 1, components=(a, b))
            _same(hits, cancel_trivial_bypass, _oracle_cancel_trivial_bypass, d, a, b)
            _same(hits, _cancel, _oracle_cancel_pair, d, site)


def test_invariants_and_cancellations_match_the_scans():
    cuts = _cuts(random.Random(9909), DIAGRAMS[:200])
    hits = Counter()
    for d in DIAGRAMS + cuts + [res.diagram for _d, res, _m, _o in SLID]:
        _check_invariants(d, hits)
        _check_moves(d, hits)
    # each answer and each refusal that reads the tally occurs
    for key in (
        "classical_invariants",
        "all_classical_invariants",
        "linking_matrix",
        "homology_presentation",
        "_invariant_fingerprint",
        "witness_subcritical",
        "cancel_trivial_bypass",
        "_cancel",
        "component # is open",
        "-1 component # is open",
        "component # is not an unknot front",
        "component # is not a plain unknot front",
        "component # is not a plain unknot front (TB pattern)",
        "a third component interleaves the cancelling pair",
        "the -1 component passes over the unknot # times, not once",
        "TB pair must be embedded parallel push-offs",
        "a third component interleaves the TB pair",
        "TB pair must cross exactly twice (push-off clasp)",
    ):
        assert hits[key] >= 10, (key, hits[key])


def _slide_back_change(new, old, d):
    """(what the slide back did, what the oracle did) where their outcomes
    ``new`` and ``old`` for a state slid from ``d`` differ; the slide back
    may only restore the pre-slide word or refuse where the oracle went
    wrong."""
    if isinstance(old, MoveResult):
        oracle = "other decorations" if old.diagram.events == d.events else "another word"
    else:
        oracle = old[0]
    if isinstance(new, MoveResult) and new.diagram.events == d.events:
        change = "restores"
        if oracle == "other decorations":
            assert new.diagram.attrs == d.attrs
    elif isinstance(new, tuple) and new[0] == "MoveError":
        change = "refuses"
    else:
        change = "something else"
    assert (change, oracle) in {
        ("restores", "another word"),
        ("restores", "InvariantError"),
        ("restores", "other decorations"),
        ("refuses", "another word"),
        ("refuses", "InvariantError"),
    }, (new, old)
    return change, oracle


def test_slide_backs_match_the_scans():
    """Each slid state is slid back at every junction-shaped window, over
    the surgery component of the slide and over every other component of
    its coefficient.  The oracle picked the freed circuit by its cusp and
    crossing profile and checked the Euler characteristic; the slide back
    rebuilds the push-off instead, so it differs from the oracle only where
    the oracle was wrong."""
    hits = Counter()
    changes = Counter()
    restored = set()
    for d, res, moving, over in SLID:
        slid = res.diagram
        coeff = d.attrs[over - 1].coefficient
        overs = [c + 1 for c, a in enumerate(slid.attrs) if a.coefficient == coeff]
        for site in _slide_back_sites(slid):
            for o in overs:
                args = (slid, res.old_to_new[moving], o, site)
                got = _outcome(moves._slide_back, *args)
                old = _outcome(_oracle_slide_back, *args)
                if got == old:
                    _hit(hits, "_slide_back", got)
                else:
                    changes[_slide_back_change(got, old, d)] += 1
                if isinstance(got, MoveResult) and got.diagram.events == d.events:
                    restored.add(id(res))
    assert sum(hits.values()) == 1049
    assert changes == {
        ("restores", "another word"): 120,
        ("restores", "InvariantError"): 23,
        ("restores", "other decorations"): 12,
        ("refuses", "another word"): 95,
        ("refuses", "InvariantError"): 24,
    }
    assert len(SLID) > 500 and len(restored) > 400
    assert hits["site does not span a slide junction (no parallel circuit of the"
                " surgery component is freed)"] > 100


def _slid_junction(d, res, over):
    """The site of the junction the slide ``res`` of ``d`` over ``over``
    put in: the window whose removal, with its mirror, leaves the push-off
    word of ``over``."""
    doubled = double_component(d, over, "below")[0].diagram.events
    slid = res.diagram
    for site in _slide_back_sites(slid):
        events = list(slid.events)
        try:
            windows = _spin_windows(slid, site.e0, site.e1, ())
        except MoveError:
            continue
        for a, b, _new in reversed(windows):
            del events[a:b]
        if tuple(events) == doubled:
            return site
    raise AssertionError("no junction of the slide")


def _spun_slides():
    """Every forward slide of random spin-2 diagrams, the spin-2 pair and
    one birth on each."""
    rng = random.Random(77)
    ds = [_decorate(rng, random_diagram(rng, spin=2, max_events=10)) for _ in range(60)]
    ds.append(trivial_bypass_pair(spin=2)[0])
    ds += [b for d in ds for b in _births(rng, d, 1)]
    return [(d, *hit) for d in ds for hit in _slides(d)]


def test_every_slide_back_at_its_junction_restores_the_word():
    """Slid back at the junction it put in, every forward slide of the
    corpus, in all four variants and at spins 0 to 2, returns the exact
    pre-slide word."""
    spun = _spun_slides()
    assert len(spun) == 48
    variants = Counter()
    for d, res, moving, over in SLID + spun:
        site = _slid_junction(d, res, over)
        coeff = d.attrs[over - 1].coefficient
        back = handleslide(
            res.diagram,
            res.old_to_new[moving],
            res.old_to_new[over],
            "minus_down" if coeff == COEFF_MINUS else "plus_down",
            site,
        )
        assert back.diagram.events == d.events, (d, moving, over, site)
        variants[(d.spin, coeff, site.e1 - site.e0)] += 1
    assert len(SLID) == 641
    assert {spin for spin, _c, _w in variants} == {0, 1, 2}
    assert {coeff for _s, coeff, _w in variants} == {COEFF_MINUS, COEFF_PLUS}
    assert {width for _s, _c, width in variants} == {3, 4}
