import re
from importlib.resources import files

import pytest

from kirbyfront.diagram import (
    COEFF_MINUS,
    Event,
    FrontDiagram,
    default_attrs,
    serialize_front,
)
from kirbyfront.families import (
    cieliebak_diagram,
    mazur_diagram,
    stabilized_unknot,
    trivial_bypass_pair,
    unknot,
)
from kirbyfront.scripts import (
    MoveScript,
    MoveStep,
    ScriptError,
    format_script,
    parse_script,
    run_script,
)
from kirbyfront.moves import MoveError, site_at


def test_empty_script_returns_initial():
    d = unknot()
    final, log = run_script(MoveScript(initial=d))
    assert final is d
    assert log == []


def test_step_failure_reports_index():
    d = unknot(coefficient=COEFF_MINUS)
    steps = (
        MoveStep(move="stabilize", site=site_at(1, 1), args={"comp": "1"}),
        MoveStep(move="stabilize", site=site_at(1, 1), args={"comp": "1"}),
        MoveStep(move="unclasp", site=site_at(0, 1, e1=2)),
    )
    with pytest.raises(ScriptError) as err:
        run_script(MoveScript(initial=d, steps=steps))
    assert err.value.step == 3


def test_assert_failure_reports_index():
    d = unknot(coefficient=COEFF_MINUS)
    steps = (
        MoveStep(
            move="stabilize",
            site=site_at(1, 1),
            args={"comp": "1"},
            asserts={"events": "99"},
        ),
    )
    with pytest.raises(ScriptError, match="step 1.*events=99"):
        run_script(MoveScript(initial=d, steps=steps))


def test_tb_assertions():
    d = unknot(coefficient=COEFF_MINUS)
    steps = (
        MoveStep(
            move="stabilize",
            site=site_at(1, 1),
            args={"comp": "1"},
            asserts={"tb:1": "-3", "rot:1": "0", "chi": "2"},
        ),
    )
    final, log = run_script(MoveScript(initial=d, steps=steps))
    assert len(final.events) == 6


def test_parse_format_round_trip():
    text = (
        "stabilize site=1..1/1..1 comp=1 assert events=6 tb:1=-3\n"
        "destabilize site=1..1/1..1 comp=1 assert events=2\n"
    )
    script = parse_script(text, initial=unknot(coefficient=COEFF_MINUS))
    final, log = run_script(script)
    assert len(final.events) == 2
    out = format_script(script)
    again = parse_script(out, initial=script.initial)
    assert again.steps == script.steps


def test_use_header_with_loader():
    d = mazur_diagram()
    store = {"mazur.front": serialize_front(d)}
    text = (files("kirbyfront") / "data" / "mazur.script").read_text()
    script = parse_script(text, loader=store.__getitem__)
    final, _ = run_script(script)
    assert final.events == ()


def test_bundled_data_files_replay():
    import importlib.resources as res

    pkg = res.files("kirbyfront") / "data"
    front = (pkg / "mazur.front").read_text()
    script_text = (pkg / "mazur.script").read_text()
    script = parse_script(
        script_text, loader=lambda name: (pkg / name).read_text()
    )
    final, _ = run_script(script)
    assert final.events == ()
    # the bundled diagram is the canonical serialization of the generator
    assert front == serialize_front(mazur_diagram())


def test_bundled_front_files_are_their_builders():
    builders = {
        "mazur.front": mazur_diagram(),
        "cancelling_pair.front": trivial_bypass_pair()[0],
        "cieliebak_k0_m1.front": cieliebak_diagram(0, 1),
    }
    pkg = files("kirbyfront") / "data"
    assert sorted(p.name for p in pkg.iterdir() if p.name.endswith(".front")) == sorted(builders)
    for name, d in builders.items():
        assert (pkg / name).read_text() == serialize_front(d), name


@pytest.mark.parametrize(
    "line, message",
    [
        ("stabilize site=a..1/1..1 comp=1", "line 1: site=a..1/1..1: 'a' is not an integer"),
        ("cancel site=0..0/1..1 components=1,b", "line 1: components=1,b: 'b' is not"),
        ("cancel components=", "line 1: components=: '' is not an integer"),
        ("unclasp", "line 1: move unclasp needs a site"),
        ("frobnicate site=1..1/1..1", "line 1: unknown move 'frobnicate'"),
    ],
)
def test_parse_script_rejects_malformed_steps(line, message):
    with pytest.raises(MoveError, match=re.escape(message)):
        parse_script(line + "\n", initial=unknot())


@pytest.mark.parametrize(
    "asserts, message",
    [
        ("events=x", "step 1: assertion events=x: 'x' is not an integer"),
        ("tb:x=1", "step 1: assertion tb:x=1: 'x' is not an integer"),
        ("rot:1=y", "step 1: assertion rot:1=y: 'y' is not an integer"),
        ("tb:9=1", "step 1: no component 9"),
        ("tb:0=-3", "step 1: no component 0"),
    ],
)
def test_malformed_assertions_fail_as_script_errors(asserts, message):
    text = f"stabilize site=1..1/1..1 comp=1 assert {asserts}\n"
    script = parse_script(text, initial=unknot(coefficient=COEFF_MINUS))
    with pytest.raises(ScriptError, match=re.escape(message)) as err:
        run_script(script)
    assert err.value.step == 1


def test_invariant_assertion_on_spun_diagram_is_a_script_error():
    spun = default_attrs(FrontDiagram(spin=1, events=(Event("L", 1), Event("R", 1))))
    script = parse_script("normalize assert tb:1=-1\n", initial=spun)
    with pytest.raises(ScriptError, match="step 1: classical invariants are defined"):
        run_script(script)
