import time
from pathlib import Path

from kirbyfront.diagram import Event, FrontDiagram, default_attrs
from kirbyfront.families import mazur_diagram, unknot
from kirbyfront.moves import clasp, site_at
from kirbyfront.render import render_svg

GOLDEN = Path(__file__).parent / "golden" / "mazur.svg"


def test_unknot_counts():
    svg = render_svg(unknot())
    assert svg.count("<path") == 1
    assert svg.count('class="gap"') == 0


def test_clasp_has_two_gaps():
    d = default_attrs(
        FrontDiagram(events=(Event("L", 1), Event("L", 3), Event("R", 3), Event("R", 1)))
    )
    c = clasp(d, site_at(2, 2), "clasp").diagram
    svg = render_svg(c)
    assert svg.count('class="gap"') == 2


def test_spin_axis_marker():
    d = default_attrs(FrontDiagram(spin=1, events=(Event("L", 1), Event("R", 1))))
    assert 'class="axis"' in render_svg(d)
    assert 'class="axis"' not in render_svg(unknot())


def test_deterministic():
    a = render_svg(mazur_diagram())
    b = render_svg(mazur_diagram())
    assert a == b


def test_golden_mazur_render():
    svg = render_svg(mazur_diagram())
    if not GOLDEN.exists():
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(svg)
    assert svg == GOLDEN.read_text()


def test_render_is_linear_in_the_components():
    """20,000 disjoint unknots render in well under 5 s, one path each: the
    paths are read off the rows of one trace, where a walk per component
    over the whole word took over 20 s."""
    d = default_attrs(FrontDiagram(events=(Event("L", 1), Event("R", 1)) * 20_000))
    start = time.perf_counter()
    svg = render_svg(d)
    assert time.perf_counter() - start < 5
    assert svg.count("<path") == 20_000
