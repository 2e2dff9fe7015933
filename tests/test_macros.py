import random
from dataclasses import replace

import pytest

from kirbyfront.diagram import (
    COEFF_MINUS,
    Event,
    FrontDiagram,
    default_attrs,
    trace_components,
)
from kirbyfront.families import stabilized_unknot, torus_knot_2q, unknot
from kirbyfront.macros import crossing_change_macro, destabilize_macro
from kirbyfront.moves import (
    MoveError,
    crossing_change,
    equivalent_up_to_normalization,
    site_at,
    stabilize,
)
from kirbyfront.scripts import ScriptError, run_script

from conftest import random_diagram


PANELS = [
    "birth",
    "handleslide",
    "witness",
    "r2",
    "unclasp",
    "handleslide",
    "normalize",
    "cancel",
]


def test_destab_macro_on_stabilized_unknot():
    d = stabilized_unknot()
    script = destabilize_macro(d, 1, site_at(1, 1))
    moves = [s.move for s in script.steps if s.move != "exchange"]
    assert moves == PANELS
    final, log = run_script(script)
    assert equivalent_up_to_normalization(final, unknot(coefficient=COEFF_MINUS))
    plain = stabilize(d, 1, site_at(1, 1), "destabilize").diagram
    assert equivalent_up_to_normalization(final, plain)


def test_destab_macro_event_count_asserts_frozen():
    d = stabilized_unknot()
    script = destabilize_macro(d, 1, site_at(1, 1))
    for step in script.steps:
        assert "events" in step.asserts
    # replay re-checks each frozen count
    run_script(script)


def test_destab_macro_rejects_unstabilized_site():
    d = unknot(coefficient=COEFF_MINUS)
    with pytest.raises(MoveError, match="zigzag template"):
        destabilize_macro(d, 1, site_at(0, 1))


@pytest.mark.parametrize("c", [0, 2, 5])
def test_destab_macro_rejects_unknown_component(c):
    with pytest.raises(MoveError, match=f"^no component {c}$"):
        destabilize_macro(stabilized_unknot(), c, site_at(1, 1))


def test_destab_macro_in_ambient_diagram():
    # stabilized -1 unknot next to a spectator unknot
    d = default_attrs(
        FrontDiagram(
            events=(
                Event("L", 1),
                Event("R", 1),
                Event("L", 1),
                Event("R", 1),
            )
        )
    )
    d = replace(d, attrs=(d.attrs[0], replace(d.attrs[1], coefficient=COEFF_MINUS)))
    d = stabilize(d, 2, site_at(3, 1), "stabilize").diagram
    script = destabilize_macro(d, 2, site_at(3, 1))
    final, _ = run_script(script)
    want = default_attrs(
        FrontDiagram(
            events=(Event("L", 1), Event("R", 1), Event("L", 1), Event("R", 1))
        )
    )
    want = replace(
        want, attrs=(want.attrs[0], replace(want.attrs[1], coefficient=COEFF_MINUS))
    )
    assert equivalent_up_to_normalization(final, want)


def test_crossing_macro_exact_on_trefoil():
    t = torus_knot_2q(3)
    prim = crossing_change(t, site_at(3, 2, e1=4)).diagram
    script = crossing_change_macro(t, site_at(3, 2))
    final, _ = run_script(script)
    assert final.events == prim.events
    assert [s.move for s in script.steps] == [
        "stabilize",
        "r2",
        "exchange",
        "unclasp",
    ]


def test_crossing_macro_via_mode_argument():
    t = torus_knot_2q(3)
    script = crossing_change(t, site_at(3, 2), mode="macro")
    final, _ = run_script(script)
    prim = crossing_change(t, site_at(3, 2, e1=4)).diagram
    assert equivalent_up_to_normalization(final, prim)


def test_crossing_macro_randomized_agreement():
    rng = random.Random(4242)
    checked = 0
    while checked < 50:
        d = random_diagram(rng, max_events=12)
        xs = [i for i, e in enumerate(d.events) if e.kind == "X"]
        if not xs:
            continue
        i = rng.choice(xs)
        s = d.events[i].pos
        try:
            prim = crossing_change(d, site_at(i, s, e1=i + 1)).diagram
            script = crossing_change_macro(d, site_at(i, s))
        except MoveError:
            continue
        final, _ = run_script(script)
        assert final.events == prim.events
        assert equivalent_up_to_normalization(final, prim)
        checked += 1


def test_script_error_carries_step_index():
    d = stabilized_unknot()
    script = destabilize_macro(d, 1, site_at(1, 1))
    # corrupt a middle step's site
    steps = list(script.steps)
    bad = replace(steps[3], site=site_at(0, 1, e1=2))
    steps[3] = bad
    from kirbyfront.scripts import MoveScript

    with pytest.raises(ScriptError) as err:
        run_script(MoveScript(initial=script.initial, steps=tuple(steps)))
    assert err.value.step == 4
