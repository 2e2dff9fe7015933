"""Differential test: a diagram with empty ``attrs`` is the diagram whose
every component carries a bare :class:`ComponentAttr`.  Each move at each
site, each invariant, normalization and the SVG give the two the same
outcome: equal results, or refusals with identical texts."""

import random
from dataclasses import replace
from itertools import product

import pytest

from kirbyfront.diagram import ComponentAttr, DiagramError, trace_components
from kirbyfront.invariants import (
    all_classical_invariants,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from kirbyfront.moves import (
    _SLIDE_VARIANTS,
    equivalent_up_to_normalization,
    normalize,
    site_at,
)
from kirbyfront.render import render_svg
from kirbyfront.scripts import MOVES, MoveStep, apply_step
from kirbyfront.wordops import MoveResult, same_diagram

from conftest import random_diagram


def _values(move, arg, ids):
    """The values tried for argument ``arg`` of ``move``; ``ids`` are the
    component ids tried at the site."""
    if arg == "variant":
        return sorted(_SLIDE_VARIANTS) if move == "handleslide" else (1, 2, 3, 4)
    if arg == "direction":
        return ("forward", "reverse")
    return ids


def _pair(d):
    """The diagram with its ``attrs`` stripped, and with a bare attribute
    per component."""
    n = len(trace_components(d).components)
    return replace(d, attrs=()), replace(d, attrs=(ComponentAttr(),) * n)


def _corpus():
    rng = random.Random(30303)
    return [_pair(random_diagram(rng, spin=spin)) for spin in (0, 1, 2) for _ in range(6)]


CORPUS = _corpus()


def _outcome(fn, *args):
    """A result read through the accessor, or the refusal's type and text."""
    try:
        got = fn(*args)
    except DiagramError as exc:
        return "refused", type(exc).__name__, str(exc)
    if isinstance(got, MoveResult):
        x = got.diagram
        attrs = [x.attr(c.cid) for c in trace_components(x).components]
        return ("moved", x.name, x.spin, x.left_count, x.events, attrs,
                got.old_to_new, got.fresh)
    return got


def _steps(d):
    """Every step of every move at every site of ``d``: the ids tried at a
    site are the components of its two strands, and 0 and one past the
    last, which name no component."""
    tr = trace_components(d)
    n = len(tr.components)
    out = []
    for move, spec in MOVES.items():
        if not spec.needs_site or move == "cancel":
            # the cancel pair is named by the site's components
            ids = range(n + 2)
            sites = [None]
            if move == "cancel":
                sites = [site_at(0, 1, components=c) for c in product(ids, ids)]
            places = [(site, ids) for site in sites]
        else:
            places = []
            for g, count in enumerate(tr.counts):
                for s in range(1, count + 2):
                    near = {tr.comp(g, t) for t in (s, s + 1) if t <= count}
                    ids = sorted(near | {0, n + 1})
                    places += [(site_at(g, s, e1=g + w), ids) for w in (0, 1, 3)]
        for site, ids in places:
            values = [_values(move, arg, ids) for arg in spec.args]
            for combo in product(*values):
                out.append(MoveStep(move, site, dict(zip(spec.args, map(str, combo)))))
    return out


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_every_move_reads_empty_attrs_as_bare_components(k):
    bare, dec = CORPUS[k]
    outcomes = set()
    for step in _steps(bare):
        got = _outcome(apply_step, bare, step)
        assert got == _outcome(apply_step, dec, step), step
        outcomes.add(got[0])
    assert outcomes == {"moved", "refused"}


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_invariants_normalize_and_svg_read_empty_attrs_as_bare_components(k):
    bare, dec = CORPUS[k]
    for fn in (handle_census, all_classical_invariants, linking_matrix,
               homology_presentation, render_svg):
        assert _outcome(fn, bare) == _outcome(fn, dec), fn.__name__
    assert same_diagram(normalize(bare), normalize(dec))
    assert equivalent_up_to_normalization(bare, dec)
