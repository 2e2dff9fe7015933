import random
from dataclasses import replace

import pytest

from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_PLUS,
    ComponentAttr,
    Event,
    FrontDiagram,
    check_spin_symmetry,
    default_attrs,
    parse_front,
    trace_components,
    validate_diagram,
)
from kirbyfront.families import cieliebak_diagram, trivial_bypass_pair, unknot
from kirbyfront.invariants import classical_invariants, crossing_data, handle_census
from kirbyfront.moves import (
    MoveError,
    birth_cancel_pair,
    cancel_trivial_bypass,
    clasp,
    crossing_change,
    equivalent_up_to_normalization,
    exchange,
    handleslide,
    normalize,
    reidemeister,
    site_at,
    stabilize,
    uplus,
    witness_subcritical,
)
from kirbyfront.wordops import same_diagram

from conftest import random_diagram, strand_sites


def word(*kp):
    return tuple(Event(k, p) for k, p in kp)


def minus_unknot_over_plain():
    d = FrontDiagram(events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)))
    d = default_attrs(d)
    return replace(
        d,
        attrs=(d.attrs[0], replace(d.attrs[1], coefficient=COEFF_MINUS, label="O")),
    )


# ---------------------------------------------------------------------------
# clasp
# ---------------------------------------------------------------------------


def test_clasp_unclasp_exact_inverse():
    d = minus_unknot_over_plain()
    c = clasp(d, site_at(2, 2), "clasp").diagram
    assert sum(1 for e in c.events if e.kind == "X") == 2
    back = clasp(c, site_at(2, 2), "unclasp").diagram
    assert back.events == d.events and back.attrs == d.attrs


def test_clasp_writhe_delta_same_component():
    d = unknot()
    c = clasp(d, site_at(1, 1), "clasp").diagram
    a, b = classical_invariants(d, 1), classical_invariants(c, 1)
    assert abs(b.writhe - a.writhe) == 2
    assert (a.left_cusps, a.right_cusps) == (b.left_cusps, b.right_cusps)


def test_clasp_needs_two_strands():
    with pytest.raises(MoveError, match="two adjacent strands"):
        clasp(unknot(), site_at(0, 1), "clasp")


def test_unclasp_template_mismatch():
    with pytest.raises(MoveError, match="does not match"):
        clasp(unknot(), site_at(0, 1, e1=2), "unclasp")


# ---------------------------------------------------------------------------
# stabilize
# ---------------------------------------------------------------------------


def test_stabilize_deltas_and_inverse():
    d = unknot(coefficient=COEFF_MINUS)
    s = stabilize(d, 1, site_at(1, 1), "stabilize").diagram
    a, b = classical_invariants(d, 1), classical_invariants(s, 1)
    assert b.tb - a.tb == -2
    assert b.rot == a.rot
    back = stabilize(s, 1, site_at(1, 1), "destabilize").diagram
    assert back.events == d.events


def test_stabilize_spin_preserves_symmetry():
    d = default_attrs(FrontDiagram(spin=1, events=word(("L", 1), ("R", 1))))
    s = stabilize(d, 1, site_at(1, 1), "stabilize").diagram
    assert check_spin_symmetry(s)
    back = stabilize(s, 1, site_at(1, 1), "destabilize").diagram
    assert back.events == d.events


# ---------------------------------------------------------------------------
# uplus
# ---------------------------------------------------------------------------


def nested_unknots():
    return default_attrs(
        FrontDiagram(events=word(("L", 1), ("L", 2), ("R", 2), ("R", 1)))
    )


def test_uplus_merges():
    d = nested_unknots()
    r = uplus(d, 1, 2, site_at(2, 1))
    assert len(trace_components(r.diagram).components) == 1
    assert sum(1 for e in r.diagram.events if e.kind == "X") == 1


def test_uplus_order_matters():
    d = nested_unknots()
    # inner component 2 sits between the strands of component 1:
    # both adjacencies (1 below 2) and (2 below 1) exist
    ab = uplus(d, 1, 2, site_at(2, 1)).diagram
    ba = uplus(d, 2, 1, site_at(2, 3)).diagram
    assert not equivalent_up_to_normalization(ab, ba)


def test_uplus_coefficient_conflict():
    d = nested_unknots()
    d = replace(
        d,
        attrs=(
            replace(d.attrs[0], coefficient=COEFF_MINUS),
            replace(d.attrs[1], coefficient=COEFF_MINUS),
        ),
    )
    with pytest.raises(MoveError, match="coefficient"):
        uplus(d, 1, 2, site_at(2, 1))


def test_uplus_nonadjacent_rejected():
    d = default_attrs(
        FrontDiagram(events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)))
    )
    with pytest.raises(MoveError):
        uplus(d, 1, 2, site_at(2, 1))  # strands 1,2 both belong to component 1


# ---------------------------------------------------------------------------
# handleslide
# ---------------------------------------------------------------------------


def test_handleslide_round_trip_exact():
    d = minus_unknot_over_plain()
    r = handleslide(d, 1, 2, "minus_up", site_at(2, 2))
    out = r.diagram
    assert validate_diagram(out) == []
    evs = out.events
    j = next(
        i
        for i in range(len(evs) - 2)
        if tuple(e.kind for e in evs[i : i + 3]) == ("X", "R", "L")
        and len({e.pos for e in evs[i : i + 3]}) == 1
    )
    back = handleslide(
        out, r.old_to_new[1], r.old_to_new[2], "minus_down",
        site_at(j, evs[j].pos, e1=j + 3),
    )
    assert back.diagram.events == d.events
    assert back.diagram.attrs == d.attrs


def test_handleslide_changes_linking_by_tb():
    d = minus_unknot_over_plain()
    r = handleslide(d, 1, 2, "minus_up", site_at(2, 2))
    xs = crossing_data(r.diagram)
    pair = {r.old_to_new[1], r.old_to_new[2]}
    lk = sum(s for (_i, a, b, s) in xs if {a, b} == pair) // 2
    assert lk == -1  # tb of the -1 unknot


def test_handleslide_coefficient_gate():
    d = nested_unknots()
    with pytest.raises(MoveError, match="coefficient"):
        handleslide(d, 1, 2, "minus_up", site_at(2, 1))


def test_handleslide_plus_variant():
    d = nested_unknots()
    d = replace(d, attrs=(d.attrs[0], replace(d.attrs[1], coefficient=COEFF_PLUS)))
    r = handleslide(d, 1, 2, "plus_up", site_at(2, 1))
    assert validate_diagram(r.diagram) == []
    assert len(trace_components(r.diagram).components) == 2


def test_handleslide_spun_round_trip():
    sp = default_attrs(
        FrontDiagram(spin=1, events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)))
    )
    sp = replace(
        sp, attrs=(sp.attrs[0], replace(sp.attrs[1], coefficient=COEFF_MINUS))
    )
    r = handleslide(sp, 1, 2, "minus_up", site_at(2, 2))
    assert check_spin_symmetry(r.diagram)
    evs = r.diagram.events
    j = next(
        i
        for i in range(len(evs) - 3)
        if tuple(e.kind for e in evs[i : i + 4]) == ("X", "R", "L", "X")
        and len({e.pos for e in evs[i : i + 4]}) == 1
    )
    back = handleslide(
        r.diagram, r.old_to_new[1], r.old_to_new[2], "minus_down",
        site_at(j, evs[j].pos, e1=j + 4),
    )
    assert back.diagram.events == sp.events


def test_handleslide_round_trip_keeps_dashed_links_to_the_moving_component():
    """Removing the junction splits the moving component in two; links to
    it follow the lane that stays, not the freed circuit."""
    tb_pair, n, np1 = trivial_bypass_pair()
    d = birth_cancel_pair(tb_pair, site_at(2, 2), "birth").diagram
    assert d.attrs[np1 - 1].dashed_links == (n,) == (2,)
    r = handleslide(d, 2, 3, "plus_up", site_at(3, 1))
    back = handleslide(
        r.diagram, r.old_to_new[2], r.old_to_new[3], "plus_up", site_at(5, 1, e1=8)
    )
    assert back.diagram.events == d.events and back.diagram.attrs == d.attrs
    # the pair still meets convention (3), so it cancels
    assert len(cancel_trivial_bypass(back.diagram, n, np1).diagram.attrs) == 2


def test_slide_back_erases_the_push_off_not_the_moving_component():
    """The moving +1 unknot has the cusp and crossing profile of the
    push-off of the +1 unknot it slid over; the slide back still erases
    the push-off."""
    d = birth_cancel_pair(cieliebak_diagram(0, 1), site_at(3, 2), "birth").diagram
    assert " ".join(f"{e.kind}{e.pos}" for e in d.events) == (
        "L1 L1 R2 L2 L3 X4 X4 R3 R2 L2 R1 R1"
    )
    r = handleslide(d, 3, 2, "plus_down", site_at(5, 2))
    assert (r.old_to_new[3], r.old_to_new[2]) == (2, 3)
    back = handleslide(r.diagram, 2, 3, "plus_down", site_at(7, 3, e1=10))
    assert back.diagram == d


def test_handleslide_refuses_an_off_axis_spun_split():
    """Off the spin axis the site's junction and its mirror join the moving
    strand to one push-off twice, which would leave three components where
    the input had two."""
    d = trivial_bypass_pair(spin=1)[0]
    assert len(d.attrs) == 2
    with pytest.raises(MoveError, match="mirrored junction splits component 1"):
        handleslide(d, 1, 2, "minus_down", site_at(2, 2))


def test_a_forward_slide_puts_the_junction_at_the_site_strand():
    """After c is pushed off, the moving component m runs through the
    site's gap twice, each time right above the companion.  The junction
    joins the site's own strand of m (slot 8 there) to the companion, not
    the other one (slot 3), which is nearer the site's slot 4; the slide
    back at that junction restores the input."""
    d = parse_front(
        "events\nL1 L1 L5 R3 R1 L2 L3 X4 X1 R5 R2 R1\nend\n"
        "component a coeff -1\ncomponent b\ncomponent c coeff -1\ncomponent m\n"
    )
    r = handleslide(d, 4, 3, "minus_down", site_at(7, 4))
    assert r.diagram.word() == (
        "L1 L1 L5 L5 X6 R3 R1 L3 L4 L4 X5 X7 R7 L7 X7 X6 X2 X1 X8 R7 R7 X3 R2 R2 R1"
    )
    back = handleslide(
        r.diagram, r.old_to_new[4], r.old_to_new[3], "minus_up", site_at(11, 7, e1=14)
    )
    assert back.diagram.events == d.events and back.diagram.attrs == d.attrs


# ---------------------------------------------------------------------------
# crossing change
# ---------------------------------------------------------------------------


def trefoil():
    return default_attrs(
        FrontDiagram(
            events=word(
                ("L", 1), ("L", 3), ("X", 2), ("X", 2), ("X", 2), ("R", 3), ("R", 1)
            )
        )
    )


def test_crossing_change_involution():
    t = trefoil()
    c = crossing_change(t, site_at(3, 2, e1=4)).diagram
    back = crossing_change(c, site_at(3, 2, e1=8)).diagram
    assert back.events == t.events


def test_crossing_change_deltas():
    t = trefoil()
    a = classical_invariants(t, 1)
    c = crossing_change(t, site_at(3, 2, e1=4)).diagram
    b = classical_invariants(c, 1)
    assert b.writhe - a.writhe == -2
    assert b.rot == a.rot
    assert b.tb - a.tb == -4  # crossing flip plus the double stabilization


def test_crossing_change_needs_spin_zero():
    d = default_attrs(
        FrontDiagram(spin=1, events=word(("L", 1), ("X", 1), ("R", 1)))
    )
    with pytest.raises(MoveError, match="spin 0"):
        crossing_change(d, site_at(1, 1, e1=2))


# ---------------------------------------------------------------------------
# trivial bypass cancellation
# ---------------------------------------------------------------------------


def test_cancel_trivial_bypass_tb1():
    d, nid, np1 = trivial_bypass_pair()
    out = cancel_trivial_bypass(d, nid, np1).diagram
    assert out.events == ()
    assert handle_census(out).euler == 1


def test_cancel_trivial_bypass_tb2_mirror():
    from kirbyfront.diagram import mirror

    d, nid, np1 = trivial_bypass_pair()
    m = mirror(d)
    tr = trace_components(m)
    nid2 = next(
        c.cid for c in tr.components if m.attrs[c.cid - 1].coefficient == COEFF_MINUS
    )
    np2 = next(
        c.cid for c in tr.components if m.attrs[c.cid - 1].coefficient == COEFF_PLUS
    )
    out = cancel_trivial_bypass(m, nid2, np2).diagram
    assert out.events == ()


def test_cancel_trivial_bypass_missing_node():
    d, nid, np1 = trivial_bypass_pair()
    attrs = list(d.attrs)
    attrs[np1 - 1] = replace(attrs[np1 - 1], node_minus=False)
    d = replace(d, attrs=tuple(attrs))
    with pytest.raises(MoveError, match=r"convention \(2\)"):
        cancel_trivial_bypass(d, nid, np1)


def test_cancel_trivial_bypass_component_count_delta():
    d, nid, np1 = trivial_bypass_pair()
    before = len(trace_components(d).components)
    out = cancel_trivial_bypass(d, nid, np1).diagram
    after = len(trace_components(out).components)
    assert before - after == 2


# ---------------------------------------------------------------------------
# birth / cancel
# ---------------------------------------------------------------------------


def test_birth_cancel_round_trip():
    d = FrontDiagram(name="e")
    b = birth_cancel_pair(d, site_at(0, 1), "birth").diagram
    assert len(trace_components(b).components) == 2
    out = birth_cancel_pair(b, site_at(0, 1, components=(1, 2)), "cancel").diagram
    assert out.events == ()


def test_cancel_rejects_double_threading():
    d = FrontDiagram(name="e")
    b = birth_cancel_pair(d, site_at(0, 1), "birth").diagram
    twice = clasp(b, site_at(3, 3), "clasp").diagram
    with pytest.raises(MoveError, match="times, not once"):
        birth_cancel_pair(twice, site_at(0, 1, components=(1, 2)), "cancel")


def test_cancel_refuses_a_minus_component_open_at_the_right_wall():
    # a +1 unknot clasped once by a -1 arc that runs from the right wall
    # back to it: every pair precondition holds, but the arc cannot erase
    events = word(("L", 1), ("L", 3), ("X", 2), ("X", 2), ("R", 3))
    d = default_attrs(FrontDiagram(events=events))
    minus, plus = d.attrs
    d = replace(
        d,
        attrs=(
            replace(minus, coefficient=COEFF_MINUS),
            replace(plus, coefficient=COEFF_PLUS),
        ),
    )
    with pytest.raises(MoveError, match="component 1 is open"):
        birth_cancel_pair(d, site_at(0, 1, components=(2, 1)), "cancel")


def test_witness_subcritical():
    d = FrontDiagram(name="e")
    b = birth_cancel_pair(d, site_at(0, 1), "birth").diagram
    out = witness_subcritical(b, 1).diagram
    assert out.events == b.events
    with pytest.raises(MoveError):
        witness_subcritical(b, 2)


def test_component_ids_out_of_range_rejected():
    d, nid, _np1 = trivial_bypass_pair()
    born = birth_cancel_pair(FrontDiagram(name="e"), site_at(0, 1), "birth").diagram
    calls = (
        lambda c: witness_subcritical(born, c),
        lambda c: handleslide(d, nid, c, "minus_up", site_at(1, 1)),
        lambda c: cancel_trivial_bypass(d, nid, c),
        lambda c: birth_cancel_pair(born, site_at(0, 1, components=(1, c)), "cancel"),
    )
    for call in calls:
        for cid in (0, 3):
            with pytest.raises(MoveError, match=f"no component {cid}"):
                call(cid)


# ---------------------------------------------------------------------------
# Reidemeister moves and normalize
# ---------------------------------------------------------------------------


def test_r1_round_trips_and_reduction():
    u = unknot()
    for v in (1, 2):
        r = reidemeister(u, "R1", site_at(1, 1), variant=v, direction="forward")
        assert classical_invariants(r.diagram, 1).tb == -1
        back = reidemeister(r.diagram, "R1", site_at(1, 1), variant=v, direction="reverse")
        assert back.diagram.events == u.events
        assert normalize(r.diagram).events == normalize(u).events


def test_r2_round_trips():
    d = minus_unknot_over_plain()
    r = reidemeister(d, "R2", site_at(1, 2), variant=1, direction="forward")
    back = reidemeister(r.diagram, "R2", site_at(1, 2), variant=1, direction="reverse")
    assert back.diagram.events == d.events
    assert normalize(r.diagram).events == normalize(d).events


def test_r3_round_trip():
    d = default_attrs(
        FrontDiagram(
            events=word(
                ("L", 1), ("L", 3), ("L", 5),
                ("X", 2), ("X", 3), ("X", 2), ("X", 4),
                ("R", 5), ("R", 3), ("R", 1),
            )
        )
    )
    r = reidemeister(d, "R3", site_at(3, 2), variant=1, direction="forward")
    back = reidemeister(r.diagram, "R3", site_at(3, 2), variant=1, direction="reverse")
    assert back.diagram.events == d.events


def test_r3_refuses_node_strands():
    d = default_attrs(
        FrontDiagram(
            events=word(
                ("L", 1), ("L", 3), ("L", 5),
                ("X", 2), ("X", 3), ("X", 2), ("X", 4),
                ("R", 5), ("R", 3), ("R", 1),
            )
        )
    )
    attrs = list(d.attrs)
    attrs[0] = replace(attrs[0], node_plus=True)
    d = replace(d, attrs=tuple(attrs))
    with pytest.raises(MoveError, match="node"):
        reidemeister(d, "R3", site_at(3, 2), variant=1, direction="forward")


def test_normalize_idempotent_and_preserves_invariants():
    rng = random.Random(23)
    for _ in range(30):
        d = random_diagram(rng)
        n = normalize(d)
        assert validate_diagram(n) == []
        assert normalize(n).events == n.events
        assert handle_census(n).euler == handle_census(d).euler


def test_normalize_reduces_spurious_bigon():
    d = minus_unknot_over_plain()
    bigger = reidemeister(d, "R2", site_at(1, 2), variant=1, direction="forward")
    assert len(bigger.diagram.events) == len(d.events) + 2
    assert equivalent_up_to_normalization(bigger.diagram, d)


def test_equivalence_detects_tb_difference():
    u = unknot(coefficient=COEFF_MINUS)
    s = stabilize(u, 1, site_at(1, 1), "stabilize").diagram
    assert not equivalent_up_to_normalization(u, s)


@pytest.mark.parametrize("spin", [0, 1, 2])
def test_an_undecorated_unknot_is_its_bare_decoration(spin):
    d = FrontDiagram(spin=spin, events=word(("L", 1), ("R", 1)))
    assert equivalent_up_to_normalization(d, default_attrs(d))


def test_exchange_involution():
    d = default_attrs(
        FrontDiagram(events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)))
    )
    # the two right cusps cap disjoint strand pairs and commute
    e = exchange(d, site_at(2, 1, e1=4)).diagram
    assert validate_diagram(e) == []
    assert e.events != d.events
    back = exchange(e, site_at(2, 1, e1=4)).diagram
    assert back.events == d.events


def test_exchange_rejects_dependent_events():
    d = default_attrs(
        FrontDiagram(events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)))
    )
    with pytest.raises(MoveError, match="commute"):
        exchange(d, site_at(1, 1, e1=3))


# ---------------------------------------------------------------------------
# chi preservation across every move (spot form of the acceptance property)
# ---------------------------------------------------------------------------


def test_chi_preserved_by_all_moves():
    d = minus_unknot_over_plain()
    chi = handle_census(d).euler
    out = clasp(d, site_at(2, 2), "clasp").diagram
    assert handle_census(out).euler == chi
    out = stabilize(d, 2, site_at(2, 3), "stabilize").diagram
    assert handle_census(out).euler == chi
    out = handleslide(d, 1, 2, "minus_up", site_at(2, 2)).diagram
    assert handle_census(out).euler == chi
    out = reidemeister(d, "R2", site_at(1, 2), variant=1, direction="forward").diagram
    assert handle_census(out).euler == chi


def test_uplus_stacked_unknots_connected_sum():
    d = default_attrs(
        FrontDiagram(events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)))
    )
    before = len(d.events)
    r = uplus(d, 1, 2, site_at(2, 2))
    assert len(trace_components(r.diagram).components) == 1
    assert len(r.diagram.events) == before + 3  # the junction template delta
    merged = r.diagram.attrs[0]
    assert merged.coefficient == 0


def test_reidemeister_preserves_classical_invariants():
    rng = random.Random(515)
    from kirbyfront.invariants import all_classical_invariants

    done = 0
    while done < 60:
        d = random_diagram(rng, max_events=10)
        before = sorted(
            (v.tb, v.rot) for v in all_classical_invariants(d).values()
        )
        applied = None
        for _ in range(30):
            kind = rng.choice(("R1", "R2", "R3"))
            i = rng.randrange(len(d.events) + 1)
            s = rng.randrange(1, 5)
            v = rng.choice((1, 2)) if kind == "R1" else rng.choice((1, 2, 3, 4))
            if kind == "R3":
                v = 1
            try:
                applied = reidemeister(
                    d, kind, site_at(i, s), variant=v,
                    direction=rng.choice(("forward", "reverse")),
                )
                break
            except MoveError:
                continue
        if applied is None:
            continue
        after = sorted(
            (v.tb, v.rot)
            for v in all_classical_invariants(applied.diagram).values()
        )
        assert after == before
        done += 1


def test_birth_cancel_chi_neutral():
    d = minus_unknot_over_plain()
    chi = handle_census(d).euler
    b = birth_cancel_pair(d, site_at(2, 1), "birth").diagram
    assert handle_census(b).euler == chi
    pair = sorted(
        cid
        for cid in range(1, len(b.attrs) + 1)
        if b.attrs[cid - 1].label[:1] in ("g", "y")
        and b.attrs[cid - 1].label[1:].isdigit()
    )
    out = birth_cancel_pair(
        b, site_at(0, 1, components=tuple(pair)), "cancel"
    ).diagram
    assert handle_census(out).euler == chi
    assert out.events == d.events


def test_normalize_preserves_spin_palindrome():
    rng = random.Random(5)
    for _ in range(100):
        d = random_diagram(rng, spin=rng.choice((1, 2)), max_events=10)
        n = normalize(d)
        assert check_spin_symmetry(n)
        assert validate_diagram(n) == []
        assert normalize(n).events == n.events


def test_exchange_ambiguous_cap_case_stays_equivalent():
    # [L3, R1] and [L1, R3] both swap to [R1, L1]: an insertion can sit
    # above or below a capped pair; the representatives share a canonical
    # exchange form, so equivalence is unaffected.
    from kirbyfront.wordops import exchange_canonical

    a = default_attrs(FrontDiagram(events=word(("L", 1), ("L", 3), ("R", 1), ("R", 1))))
    e = exchange(a, site_at(1, 1, e1=3)).diagram
    back = exchange(e, site_at(1, 1, e1=3)).diagram
    assert exchange_canonical(back).events == exchange_canonical(a).events


def _lk(d, a, b):
    from kirbyfront.invariants import crossing_data

    return (
        sum(s for (_i, cf, cb, s) in crossing_data(d) if {cf, cb} == {a, b}) // 2
    )


def test_clasp_between_components_changes_linking_by_one():
    d = minus_unknot_over_plain()
    before = _lk(d, 1, 2)
    tb_before = [classical_invariants(d, c).tb for c in (1, 2)]
    c = clasp(d, site_at(2, 2), "clasp").diagram
    after = _lk(c, 1, 2)
    assert abs(after - before) == 1
    assert [classical_invariants(c, x).tb for x in (1, 2)] == tb_before


def test_crossing_change_between_components_changes_linking_by_one():
    d = minus_unknot_over_plain()
    c = clasp(d, site_at(2, 2), "clasp").diagram
    before = _lk(c, 1, 2)
    out = crossing_change(c, site_at(2, 2, e1=3)).diagram
    after = _lk(out, 1, 2)
    assert abs(after - before) == 1
