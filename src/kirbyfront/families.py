"""Bundled diagram families and fixtures.

Builders for the diagrams the scenario library replays: the plane-bundle
unknot family, the contractible two-component pattern with a knotted
2-handle, the trivial-bypass pair, and small standard pieces (unknot,
torus knots, stabilized unknots).
"""

from __future__ import annotations

from dataclasses import replace

from .diagram import (
    COEFF_MINUS,
    COEFF_PLUS,
    ComponentAttr,
    Event,
    FrontDiagram,
)
from .moves import birth_cancel_pair, clasp, reidemeister, site_at, stabilize
from .wordops import double_component

__all__ = [
    "unknot",
    "torus_knot_2q",
    "stabilized_unknot",
    "cieliebak_diagram",
    "trivial_bypass_pair",
    "mazur_diagram",
]


def unknot(coefficient=0, name="unknot", spin=0):
    return FrontDiagram(
        name=name,
        spin=spin,
        events=(Event("L", 1), Event("R", 1)),
        attrs=(ComponentAttr(label="u", coefficient=coefficient),),
    )


def torus_knot_2q(q, coefficient=0):
    """Front of the (2, q) torus knot (q odd >= 3): tb = q - 2, rot = 0."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be odd and >= 3")
    events = [Event("L", 1), Event("L", 3)]
    events += [Event("X", 2)] * q
    events += [Event("R", 3), Event("R", 1)]
    return FrontDiagram(
        name=f"t2_{q}",
        events=tuple(events),
        attrs=(ComponentAttr(label="k", coefficient=coefficient),),
    )


def stabilized_unknot():
    """The -1 unknot with one double stabilization: tb -3, rot 0."""
    u = unknot(coefficient=COEFF_MINUS, name="stab_unknot")
    return stabilize(u, 1, site_at(1, 1), "stabilize").diagram


def _down_zigzag(s):
    return (Event("L", s), Event("R", s + 1))


def _up_zigzag(s):
    return (Event("L", s + 1), Event("R", s))


def cieliebak_diagram(k, m):
    """The plane-bundle family member W^k_m: a -1 unknot with m zigzags of
    one kind and 2k + m of the other, so tb = 1 - 2(k + 1 + m) and
    rot = 2k.

    For 2k + m < 0 the unknot realization does not exist (the Legendrian
    unknot mountain range has |rot| <= -tb - 1), so the generator falls
    back to a (2, q) torus-knot base carrying the same tb and rot; the
    surgery bookkeeping of the family is unchanged.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    down = 2 * k + m
    up = m
    if down >= 0:
        events = [Event("L", 1)]
        base_right = [Event("R", 1)]
    else:
        deficit = -down
        q = 2 * deficit + 3
        down = (q - 1) // 2 + 2 * k + m
        up = (q - 1) // 2 + m
        events = [Event("L", 1), Event("L", 3)] + [Event("X", 2)] * q
        base_right = [Event("R", 3), Event("R", 1)]
    for _ in range(down):
        events += list(_down_zigzag(1))
    for _ in range(up):
        events += list(_up_zigzag(1))
    events += base_right
    return FrontDiagram(
        name=f"w_{k}_{m}",
        events=tuple(events),
        attrs=(ComponentAttr(label="w", coefficient=COEFF_MINUS),),
    )


def trivial_bypass_pair(spin=0):
    """The cancelling handle pair: a -1 unknot with a parallel +1 push-off
    carrying both nodes and a dashed link back (pattern TB1)."""
    u = unknot(coefficient=COEFF_MINUS, name="tb_pair", spin=spin)
    rw, companion, _ = double_component(u, 1, "above")
    d = rw.diagram
    nid = rw.old_to_new[1]
    attrs = list(d.attrs)
    attrs[companion - 1] = ComponentAttr(
        label="np1",
        coefficient=COEFF_PLUS,
        node_plus=True,
        node_minus=True,
        dashed_links=(nid,),
    )
    attrs[nid - 1] = replace(attrs[nid - 1], label="n")
    return replace(d, attrs=tuple(attrs)), nid, companion


def mazur_diagram():
    """A contractible two-component pattern: a subcritical +1 unknot (the
    1-handle) and a -1 knot passing over it geometrically three times but
    algebraically once, with a clasped double-back.

    Word ``L1 L1 X2 X1 X2 X2 X3 X3 X3 X2 R3 R1``: the two extra passes
    thread the 2-handle sphere through its own cusps (one sign each), and
    the self-clasp between them knots the pattern.  The presented domain
    is contractible: chi = 1 and the extended linking matrix
    [[0, 1], [1, -4]] is unimodular.
    """
    d = birth_cancel_pair(FrontDiagram(name="mazur"), site_at(0, 1), "birth").diagram
    d = reidemeister(d, "R2", site_at(1, 1), variant=1, direction="forward").diagram
    d = clasp(d, site_at(4, 2), "clasp").diagram
    d = reidemeister(d, "R2", site_at(8, 2), variant=4, direction="forward").diagram
    attrs = (
        replace(d.attrs[0], label="g"),
        replace(d.attrs[1], label="k"),
    )
    return replace(d, attrs=attrs)
