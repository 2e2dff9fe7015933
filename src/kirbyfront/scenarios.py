"""Bundled machine-checked scenarios.

Each scenario replays a move sequence on a bundled diagram and checks a
final-state predicate plus per-step assertions.  All scenarios run from a
clean checkout with no network access and are deterministic.

=================  ========================================================
example-2-1        trivial-bypass cancellation empties the cancelling pair
fig-destab         scripted destabilization of the stabilized unknot
fig-crossing-macro crossing change macro agrees with the primitive rewrite
mazur              crossing change unties the 2-handle sphere, the extra
                   passes slide off the 1-handle, the pair cancels
cieliebak          plane-bundle family invariants and stabilization deltas
ribbon-heegaard    disk-band normalization to planar and connected targets
=================  ========================================================
"""

from __future__ import annotations

import time

from .diagram import COEFF_MINUS, DiagramError
from .families import (
    cieliebak_diagram,
    mazur_diagram,
    stabilized_unknot,
    torus_knot_2q,
    trivial_bypass_pair,
    unknot,
)
from .invariants import (
    classical_invariants,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from .macros import destabilize_macro
from .moves import (
    cancel_trivial_bypass,
    crossing_change,
    equivalent_up_to_normalization,
    site_at,
    stabilize,
)
from .ribbon import (
    clasp_transpose,
    normalize_surface,
    parse_ribbon,
    surface_invariants,
)
from .scripts import parse_script, run_script

__all__ = ["SCENARIOS", "verify_scenario"]


class ScenarioFailure(Exception):
    pass


def _check(cond, message):
    if not cond:
        raise ScenarioFailure(message)


def _scenario_example_2_1():
    log = []
    d, nid, np1 = trivial_bypass_pair()
    before = handle_census(d)
    _check(before.euler == 1, f"chi before = {before.euler}, want 1")
    log.append(("census before", dict(before.counts)))
    out = cancel_trivial_bypass(d, nid, np1).diagram
    _check(len(out.events) == 0, "cancellation left events behind")
    after = handle_census(out)
    _check(after.euler == 1, f"chi after = {after.euler}, want 1")
    log.append(("census after", dict(after.counts)))
    return log


def _scenario_fig_destab():
    log = []
    d = stabilized_unknot()
    base = unknot(coefficient=COEFF_MINUS)
    inv = classical_invariants(d, 1)
    _check((inv.tb, inv.rot) == (-3, 0), f"stabilized unknot has tb {inv.tb}")
    script = destabilize_macro(d, 1, site_at(1, 1))
    moves = [s.move for s in script.steps if s.move != "exchange"]
    _check(
        moves
        == [
            "birth",
            "handleslide",
            "witness",
            "r2",
            "unclasp",
            "handleslide",
            "normalize",
            "cancel",
        ],
        f"unexpected panel sequence {moves}",
    )
    final, steplog = run_script(script)
    log.extend(("step", m, n) for (_i, m, n) in steplog)
    _check(
        equivalent_up_to_normalization(final, base),
        "macro final state differs from the destabilized diagram",
    )
    plain = stabilize(d, 1, site_at(1, 1), "destabilize").diagram
    _check(
        equivalent_up_to_normalization(final, plain),
        "macro disagrees with the one-step destabilization",
    )
    return log


def _scenario_fig_crossing_macro():
    log = []
    t = torus_knot_2q(3, coefficient=COEFF_MINUS)
    site = site_at(3, 2, e1=4)
    prim = crossing_change(t, site).diagram
    script = crossing_change(t, site_at(3, 2), mode="macro")
    final, steplog = run_script(script)
    log.extend(("step", m, n) for (_i, m, n) in steplog)
    _check(final.events == prim.events, "macro does not reproduce the primitive")
    _check(
        equivalent_up_to_normalization(final, prim),
        "macro not equivalent to the primitive",
    )
    # involution while we are here
    back = crossing_change(prim, site_at(3, 2, e1=8)).diagram
    _check(back.events == t.events, "primitive crossing change is not an involution")
    return log


def _scenario_mazur():
    from importlib.resources import files

    log = []
    d = mazur_diagram()
    h1 = homology_presentation(d)
    _check(h1 == [], f"H1 invariant factors {h1}, want none (contractible)")
    census = handle_census(d)
    _check(census.euler == 1, f"chi = {census.euler}, want 1")
    lk = linking_matrix(d)
    log.append(("linking", lk.matrix, dict(lk.over_ones)))
    _check(
        list(lk.over_ones.values()) == [3],
        "the 2-handle sphere should pass over the 1-handle three times",
    )
    text = (files(__package__) / "data" / "mazur.script").read_text(encoding="utf-8")
    script = parse_script(text, initial=d)
    final, steplog = run_script(script)
    log.extend(("step", m, n) for (_i, m, n) in steplog)
    _check(len(final.events) == 0, "Mazur script did not empty the diagram")
    return log


def _scenario_cieliebak():
    log = []
    for k in (-1, 0, 1):
        for m in (1, 2, 3):
            d = cieliebak_diagram(k, m)
            inv = classical_invariants(d, 1)
            want_tb = 1 - 2 * (k + 1 + m)
            want_rot = 2 * k
            _check(
                (inv.tb, inv.rot) == (want_tb, want_rot),
                f"(k,m)=({k},{m}): got (tb,rot)=({inv.tb},{inv.rot}),"
                f" want ({want_tb},{want_rot})",
            )
            lk = linking_matrix(d)
            _check(
                lk.matrix[0][0] == want_tb - 1,
                f"(k,m)=({k},{m}): framing {lk.matrix[0][0]}",
            )
            # one stabilization moves (k, m) to (k, m+1)
            st = stabilize(d, 1, site_at(1, 1), "stabilize").diagram
            nxt = classical_invariants(st, 1)
            _check(
                (nxt.tb, nxt.rot) == (want_tb - 2, want_rot),
                f"(k,m)=({k},{m}): stabilization delta wrong",
            )
            log.append(("family", k, m, inv.tb, inv.rot))
    return log


RIBBON_HEEGAARD = """\
disk d
band a d.0 d.2
band b d.1 d.3
band c d.4 d.5
"""


def _scenario_ribbon_heegaard():
    log = []
    s = parse_ribbon(RIBBON_HEEGAARD)
    inv = surface_invariants(s, require_connected=True)
    log.append(("initial", inv.genus, inv.boundary_components, inv.euler))
    _check(inv.orientable, "handlebody surface should be orientable")
    steps = normalize_surface(s, "planar")
    cur = s
    for (disk, slot) in steps:
        cur = clasp_transpose(cur, disk, slot)
    planar = surface_invariants(cur)
    _check(planar.genus == 0, f"planar target missed: genus {planar.genus}")
    log.append(("planar", len(steps), planar.boundary_components))
    if inv.euler % 2 == 1:
        steps2 = normalize_surface(s, "connected")
        cur = s
        for (disk, slot) in steps2:
            cur = clasp_transpose(cur, disk, slot)
        conn = surface_invariants(cur)
        _check(
            conn.boundary_components == 1,
            f"connected target missed: b = {conn.boundary_components}",
        )
        log.append(("connected", len(steps2), conn.genus))
    return log


SCENARIOS = {
    "example-2-1": _scenario_example_2_1,
    "fig-destab": _scenario_fig_destab,
    "fig-crossing-macro": _scenario_fig_crossing_macro,
    "mazur": _scenario_mazur,
    "cieliebak": _scenario_cieliebak,
    "ribbon-heegaard": _scenario_ribbon_heegaard,
}


def verify_scenario(scenario_id):
    """Replay one bundled scenario.

    Returns a report dict: {id, pass, log, error, wall_time}.
    """
    if scenario_id not in SCENARIOS:
        return {
            "id": scenario_id,
            "pass": False,
            "log": [],
            "error": f"unknown scenario {scenario_id!r}",
            "wall_time": 0.0,
        }
    t0 = time.perf_counter()
    try:
        log = SCENARIOS[scenario_id]()
        err = None
        ok = True
    except (ScenarioFailure, DiagramError) as exc:
        log = []
        err = f"{type(exc).__name__}: {exc}"
        ok = False
    dt = time.perf_counter() - t0
    return {
        "id": scenario_id,
        "pass": ok,
        "log": [list(map(_plain, entry)) for entry in log],
        "error": err,
        "wall_time": dt,
    }


def _plain(x):
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x
