"""Differential test: a slide back is one rewrite of its input.  It removes
the junction and erases the freed lane in one word edit, and rebuilds
once per lane it tries.  The slide back it replaced, a splice followed by
an erasure of the spliced word, is kept below verbatim as an oracle and
compared with the library at every junction-shaped window of
``test_tally``'s slid states and of the spin-2 slides, over every
component of the slide's coefficient.  A last test counts the traces and
rebuilds of each slide back at its own junction.
"""

import re
from collections import Counter
from dataclasses import replace

import pytest

from kirbyfront import diagram, moves, wordops
from kirbyfront.diagram import (
    COEFF_MINUS,
    Event,
    FrontDiagram,
    default_attrs,
    trace_components,
)
from kirbyfront.moves import (
    _check_spin,
    _require,
    _slide_back_blocks,
    _spin_windows,
    _strand_comp,
    handleslide,
    site_at,
)
from kirbyfront.wordops import MoveError, MoveResult, _push_off, erase_segments, splice

from test_one_rebuild import _counted
from test_tally import SLID, _outcome, _slid_junction, _slide_back_sites, _spun_slides

# ---------------------------------------------------------------------------
# The slide back as it was, kept as an oracle
# ---------------------------------------------------------------------------


def _segments(tr, cids):
    """The (gap, slot) of every segment of the components ``cids``."""
    comp = tr.code_comp
    return {
        (g, s)
        for g, row in enumerate(tr.rows)
        for s, code in enumerate(row, 1)
        if comp[code] in cids
    }


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
    windows = _spin_windows(d, i, i + width, ())
    res = splice(d, windows)
    d2 = _check_spin(res.diagram)
    tr2 = trace_components(d2)
    # removing the junction splits `moving`: one lane continues as the
    # surviving component, the other belongs to the freed parallel circuit
    i_final = i - sum(b - a for (a, b, _e) in windows if a < i)
    lane0 = _strand_comp(tr2, i_final, site.s0)
    lane1 = _strand_comp(tr2, i_final, site.s0 + 1)
    _require(lane0 != lane1, "removing the junction did not free a circuit")
    over2 = res.old_to_new.get(over)
    _require(over2 is not None, "the surgery component vanished")

    out = None
    keep = None
    for circuit, kept in ((lane1, lane0), (lane0, lane1)):
        if circuit == over2 or not tr2.components[circuit - 1].closed:
            continue
        # dashed links to `moving` follow the lane that stays
        relink = {circuit: kept}
        attrs = tuple(
            replace(a, dashed_links=tuple(relink.get(t, t) for t in a.dashed_links))
            for a in d2.attrs
        )
        try:
            rw = erase_segments(replace(d2, attrs=attrs), _segments(tr2, {circuit}))
            # the freed circuit is the push-off of `over`: pushing `over`
            # off again (the same word on either side) rebuilds d2
            rebuilt = _push_off(rw.diagram, rw.old_to_new[over2], "below")[0]
        except MoveError:
            continue
        if tuple(rebuilt) == d2.events:
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
# Tests
# ---------------------------------------------------------------------------


def _slide_back_calls(slid_states):
    """(slid diagram, moving, over, site) at every junction-shaped window of
    each slid state, over every component of the slide's coefficient."""
    calls = []
    for d, res, moving, over in slid_states:
        slid = res.diagram
        coeff = d.attrs[over - 1].coefficient
        overs = [c + 1 for c, a in enumerate(slid.attrs) if a.coefficient == coeff]
        for site in _slide_back_sites(slid):
            calls += [(slid, res.old_to_new[moving], o, site) for o in overs]
    return calls


def test_slide_backs_match_the_oracle():
    """Every outcome, each result and each refusal text, is the oracle's."""
    hits = Counter()
    for name, states in (("slid", SLID), ("spun", _spun_slides())):
        for args in _slide_back_calls(states):
            got = _outcome(moves._slide_back, *args)
            assert got == _outcome(_oracle_slide_back, *args), args
            hits[name, isinstance(got, MoveResult)] += 1
    assert sum(n for (name, _ok), n in hits.items() if name == "slid") == 1323
    assert min(hits.values()) >= 20, hits


def test_a_slide_back_rebuilds_once_per_lane_it_tries(monkeypatch, empty_memo):
    """Slid back at its own junction from a memo that holds only its input,
    each of the corpus slides rebuilds once per lane it tries and computes
    at most one trace per rebuild plus one of the junction-free word: at
    most two where the first lane succeeds, three otherwise.  It never splices and
    never calls an erasure entry point."""
    traced = _counted(monkeypatch, diagram, "_trace")
    rebuilds = _counted(monkeypatch, wordops, "_rebuild")
    entries = [
        _counted(monkeypatch, wordops, name)
        for name in ("splice", "erase_segments", "erase_components")
    ]
    lanes = Counter()
    for d, res, moving, over in SLID:
        site = _slid_junction(d, res, over)
        coeff = d.attrs[over - 1].coefficient
        args = (
            res.diagram,
            res.old_to_new[moving],
            res.old_to_new[over],
            "minus_down" if coeff == COEFF_MINUS else "plus_down",
            site,
        )
        empty_memo()
        trace_components(res.diagram)
        traced.clear()
        rebuilds.clear()
        back = handleslide(*args)
        assert back.diagram.events == d.events
        assert 1 <= len(rebuilds) <= 2 and len(traced) <= 1 + len(rebuilds), args
        lanes[len(rebuilds)] += 1
    assert entries == [[], [], []]
    # where the first lane fails, the slide back it replaced traced the
    # junction-free word twice: four traces
    assert len(SLID) == 641 and lanes == {1: 327, 2: 314}, lanes


def _word(text):
    return tuple(Event(t[0], int(t[1:])) for t in text.split())


def test_a_junction_whose_strands_leave_for_another_component_is_refused():
    """Where the strands leaving a junction-shaped window belong to another
    component, removing the window would join the two.  The slide back
    refuses with the junction text; the oracle passed on its splice's merge
    refusal.  On the spun word, the first cusp of component 5 is in the
    mirrored window, where the gap map has no entry."""
    unknots = default_attrs(FrontDiagram(events=_word("L1 X1 R1 L1 R1")))
    spun = default_attrs(
        FrontDiagram(spin=1, left_count=4, events=_word("X3 R3 L3 L5 R4 R1 L1 L4 R5 R3 L3 X3"))
    )
    for d, moving, over, site, merged in (
        (unknots, 1, 2, site_at(1, 1, e1=4), [1, 2]),
        (spun, 2, 5, site_at(0, 3, e1=3), [2, 3, 5]),
    ):
        with pytest.raises(MoveError, match="^junction strands do not belong to the moving"):
            moves._slide_back(d, moving, over, site)
        with pytest.raises(MoveError, match=re.escape(f"merged components {merged} without")):
            _oracle_slide_back(d, moving, over, site)
