import random

import pytest

from kirbyfront.diagram import (
    COEFF_PLUS,
    ComponentAttr,
    Event,
    FrontDiagram,
    ParseError,
    ValidationError,
    check_spin_symmetry,
    component_path,
    default_attrs,
    mirror,
    parse_front,
    serialize_front,
    strand_counts,
    trace_components,
    validate_diagram,
)

from conftest import random_diagram


def word(*kp):
    return tuple(Event(k, p) for k, p in kp)


UNKNOT_TEXT = "diagram u\nspin 0\nleft 0\nevents\n L1\n R1\nend\n"


def test_parse_minimal_closed_front():
    d = parse_front(UNKNOT_TEXT)
    assert len(d.events) == 2
    assert len(trace_components(d).components) == 1
    assert strand_counts(d.events, d.left_count)[-1] == 0


def test_parse_rejects_replay_violation():
    with pytest.raises(ParseError, match="crossing at position 1 with 0 strands"):
        parse_front("diagram bad\nspin 0\nleft 0\nevents\n X1\nend\n")


def test_parse_rejects_event_at_slot_zero():
    with pytest.raises(ParseError, match="line 5: bad event token 'X0'"):
        parse_front("diagram bad\nspin 0\nleft 2\nevents\n X0\nend\n")


def test_parse_serialize_fixed_point():
    d = parse_front(UNKNOT_TEXT)
    text = serialize_front(d)
    again = parse_front(text)
    assert again.events == d.events
    assert serialize_front(again) == text


def test_round_trip_on_random_corpus():
    rng = random.Random(7)
    for _ in range(40):
        d = random_diagram(rng)
        text = serialize_front(d)
        again = parse_front(text)
        assert again.events == d.events
        assert again.attrs == d.attrs
        assert serialize_front(again) == text


def test_component_attribute_lines():
    text = (
        "diagram two\nspin 0\nleft 0\nevents\n L1\n L3\n R3\n R1\nend\n"
        "component a coeff -1\n"
        "component b coeff +1 node+ node- dashed a\n"
    )
    d = parse_front(text)
    assert d.attrs[0].coefficient == -1
    assert d.attrs[1].node_plus and d.attrs[1].node_minus
    assert d.attrs[1].dashed_links == (1,)


def test_unknown_dashed_label_rejected():
    text = (
        "diagram two\nspin 0\nleft 0\nevents\n L1\n L3\n R3\n R1\nend\n"
        "component a coeff -1\n"
        "component b dashed zz\n"
    )
    with pytest.raises(ParseError, match="unknown component label"):
        parse_front(text)


def test_trace_nested_unknots():
    d = FrontDiagram(events=word(("L", 1), ("L", 2), ("R", 2), ("R", 1)))
    tr = trace_components(d)
    assert len(tr.components) == 2
    assert all(c.closed for c in tr.components)


def test_trace_open_chart():
    # two through-strands with a clasp: open components
    d = FrontDiagram(left_count=2, events=word(("X", 1), ("X", 1)))
    tr = trace_components(d)
    assert len(tr.components) == 2
    assert not any(c.closed for c in tr.components)


def test_trace_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        d = random_diagram(rng)
        a = trace_components(d)
        b = trace_components(d)
        assert (a.rows, a.code_comp, a.code_dir) == (b.rows, b.code_comp, b.code_dir)
        assert [component_path(d, c.cid) for c in a.components] == [
            component_path(d, c.cid) for c in b.components
        ]


def test_mirror_involution():
    rng = random.Random(13)
    for _ in range(30):
        d = random_diagram(rng)
        m = mirror(mirror(d))
        assert m.events == d.events
        assert m.attrs == d.attrs


def test_spin_symmetry_examples():
    assert check_spin_symmetry(
        FrontDiagram(spin=1, events=word(("L", 1), ("R", 1)))
    )
    assert check_spin_symmetry(
        FrontDiagram(spin=1, events=word(("L", 1), ("X", 1), ("R", 1)))
    )
    assert not check_spin_symmetry(
        FrontDiagram(
            spin=1,
            events=word(("L", 1), ("L", 2), ("R", 2), ("X", 1), ("R", 1)),
        )
    )


def test_validate_dashed_link_needs_minus_target():
    d = FrontDiagram(
        events=word(("L", 1), ("L", 3), ("R", 3), ("R", 1)),
        attrs=(
            ComponentAttr(label="a"),
            ComponentAttr(label="b", dashed_links=(1,)),
        ),
    )
    problems = validate_diagram(d)
    assert any("convention (3)" in p for p in problems)


def test_validate_plus_component_needs_both_nodes_or_none():
    events = word(("L", 1), ("R", 1))
    for plus, minus in ((True, False), (False, True), (True, True), (False, False)):
        attr = ComponentAttr(coefficient=COEFF_PLUS, node_plus=plus, node_minus=minus)
        problems = validate_diagram(FrontDiagram(events=events, attrs=(attr,)))
        one = ["component 1: +1 surgery with only one node decoration (convention (2))"]
        assert problems == (one if plus != minus else [])


def test_validate_spin_palindrome():
    d = FrontDiagram(
        spin=1,
        events=word(("L", 1), ("L", 2), ("R", 2), ("X", 1), ("R", 1)),
    )
    problems = validate_diagram(default_attrs(d))
    assert any("palindromic" in p for p in problems)


def test_replay_validation_names_offender():
    with pytest.raises(ValidationError, match="event 2"):
        strand_counts(word(("L", 1), ("X", 2)), 0)


def test_clasped_chart_crossings_join_both_components():
    d = FrontDiagram(left_count=2, events=word(("X", 1), ("X", 1)))
    tr = trace_components(d)
    assert len(tr.components) == 2
    for i, ev in enumerate(d.events):
        pair = {tr.comp(i, ev.pos), tr.comp(i, ev.pos + 1)}
        assert pair == {1, 2}
