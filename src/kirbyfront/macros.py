"""Scripted macro moves: the crossing change and the destabilization as
compositions of births, handleslides, Reidemeister moves and unclasps.

Both macros construct their step lists by actually performing the moves,
so every site in the returned script has been validated once; the scripts
replay deterministically through :func:`kirbyfront.scripts.run_script`.

The crossing change macro realizes the primitive template in four moves:
stabilize the front strand just before the crossing, push the new lower
zigzag through the other strand (one forward through-cusp move), carry
the original crossing past the zigzag cap, and unclasp the crossing pair
this creates.  What remains is exactly the primitive rewrite.

The destabilization macro removes a double zigzag at the cost of a
cancelling handle pair: birth the pair right after the zigzag, carry the
zigzag between the pair's two threading crossings (planar exchanges),
slide the strand down across the -1 unknot, turn the zigzag plus the
junction crossing into an adjacent clasp with one through-cusp move,
unclasp it (the destabilizing bypass), slide back across the changed
junction, normalize, and cancel the pair.
"""

from __future__ import annotations

from .diagram import COEFF_MINUS, COEFF_PLUS, trace_components
from .moves import (
    MoveError,
    _attr,
    _blocks,
    _require,
    birth_cancel_pair,
    site_at,
)
from .scripts import MoveScript, MoveStep, apply_step

__all__ = ["crossing_change_macro", "destabilize_macro"]


class _Builder:
    """Applies moves while recording the equivalent script steps."""

    def __init__(self, d):
        self.initial = d
        self.cur = d
        self.steps = []

    def apply(self, move, site=None, **args):
        args = {k: str(v) for k, v in args.items()}
        res = apply_step(self.cur, MoveStep(move=move, site=site, args=args))
        self.cur = res.diagram
        self.steps.append(
            MoveStep(move, site, args, asserts={"events": str(len(self.cur.events))})
        )
        return res

    def script(self):
        return MoveScript(initial=self.initial, steps=tuple(self.steps))


def crossing_change_macro(d, site):
    """The crossing change as stabilize, isotope, unclasp.

    ``site`` addresses a single crossing; the returned script's final
    diagram is the primitive crossing change output on the nose.
    """
    _require(d.spin == 0, "the crossing change move needs spin 0 (dimension 5)")
    i, s = site.e0, site.s0
    _require(
        d.events[i : i + 1] == _blocks(("crossing_change", 1), s)[0],
        "macro site does not address a crossing",
    )
    tr = trace_components(d)
    upper = tr.comp(i, s + 1)

    b = _Builder(d)
    b.apply("stabilize", site_at(i, s + 1), comp=upper)
    b.apply("r2", site_at(i + 2, s), variant=1, direction="forward")
    b.apply("exchange", site_at(i + 5, s, e1=i + 7))
    b.apply("unclasp", site_at(i + 4, s, e1=i + 6))
    return b.script()


def _find_junction(d):
    """The unique slide junction in the word."""
    ev = d.events
    hits = [
        j for j in range(len(ev) - 2) if ev[j : j + 3] == _blocks(("uplus", 1), ev[j].pos)[1]
    ]
    _require(len(hits) == 1, f"expected one slide junction, found {len(hits)}")
    return hits[0], ev[hits[0]].pos


def destabilize_macro(d, c, site):
    """Destabilize the double zigzag at ``site`` through a bypass sequence.

    The input must match the zigzag template on component ``c`` carrying
    -1 surgery, at spin 0.  Returns the validated script whose final
    diagram equals the destabilized one up to normalization; the panel
    steps carry frozen event-count assertions.
    """
    _require(d.spin == 0, "the scripted destabilization works at spin 0")
    i, s = site.e0, site.s0
    _require(
        d.events[i : i + 4] == _blocks(("stabilize", 1), s)[1],
        "macro site does not match the zigzag template",
    )
    _require(
        _attr(d, c).coefficient == COEFF_MINUS,
        f"component {c} does not carry -1 surgery",
    )
    tr = trace_components(d)
    _require(
        tr.comp(i, s) == c,
        f"zigzag at the site does not belong to component {c}",
    )

    b = _Builder(d)

    # panel 2: birth the cancelling pair right after the zigzag block
    res = b.apply("birth", site_at(i + 4, s))
    fresh = sorted(res.fresh)
    gid, yid = fresh[0], fresh[1]

    # carry the zigzag past the pair's three opening events (12 exchanges)
    for rnd in range(3):
        for k in range(i + 3 + rnd, i + rnd - 1, -1):
            b.apply("exchange", site_at(k, s, e1=k + 2))

    # panel 3: slide the zigzag strand down across the -1 unknot
    slide_gap = i + 7
    tr2 = trace_components(b.cur)
    comps = [tr2.code_comp[code] for code in tr2.rows[slide_gap]]
    over_slot = None
    for slot in range(1, len(comps)):
        if comps[slot - 1] == yid and comps[slot] not in (yid, gid):
            over_slot = slot
            kid = comps[slot]
    _require(over_slot is not None, "zigzag strand did not land above the -1 unknot")
    res = b.apply(
        "handleslide",
        site_at(slide_gap, over_slot),
        moving=kid,
        over=yid,
        variant="minus_down",
    )
    kid = res.old_to_new[kid]
    gid = res.old_to_new[gid]
    yid = res.old_to_new[yid]

    # panel 5: the subcritical handle is already presented as a +1 unknot
    b.apply("witness", comp=gid)

    # panels 4/6: one through-cusp move plus one exchange turn the zigzag
    # and the junction crossing into an adjacent clasp
    jidx, q = _find_junction(b.cur)
    b.apply("r2", site_at(jidx - 2, q), variant=1, direction="forward")
    b.apply("exchange", site_at(jidx + 1, q, e1=jidx + 3))

    # panel 7: the unclasping bypass is the destabilization
    b.apply("unclasp", site_at(jidx, q, e1=jidx + 2))

    # panel 8: slide back across the changed junction
    res = b.apply(
        "handleslide",
        site_at(jidx - 4, q, e1=jidx + 3),
        moving=kid,
        over=yid,
        variant="minus_up",
    )
    kid = res.old_to_new[kid]
    gid = res.old_to_new[gid]
    yid = res.old_to_new[yid]

    # panel 9: simplify
    b.apply("normalize")

    # panels 10-11: cancel the pair
    plus = [k + 1 for k, a in enumerate(b.cur.attrs) if a.coefficient == COEFF_PLUS]
    minus = [k + 1 for k, a in enumerate(b.cur.attrs) if a.coefficient == COEFF_MINUS]
    _require(len(plus) == 1, "expected exactly one +1 unknot before cancelling")
    target = None
    for mc in minus:
        try:
            birth_cancel_pair(
                b.cur, site_at(0, 1, components=(plus[0], mc)), "cancel"
            )
            target = mc
            break
        except MoveError:
            continue
    _require(target is not None, "no cancellable pair at the end of the macro")
    b.apply("cancel", site_at(0, 1, components=(plus[0], target)))

    return b.script()
