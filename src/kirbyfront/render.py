"""Deterministic SVG rendering of front diagrams.

Layout: event index maps to x, strand slot to y (slot 1 at the bottom),
with smooth cubic interpolation between slots.  Cusps are drawn as
semicubical points by joining the two strands of the cusp at the event
x-coordinate.  At a crossing the strand moving upward is the back strand
and is drawn with a gap (class="gap" marker); the downward strand runs
unbroken, which is the front convention.  Spun diagrams include a dashed
central axis (class="axis").
"""

from __future__ import annotations

from .diagram import COEFF_MINUS, COEFF_PLUS, component_paths, trace_components

__all__ = ["render_svg"]

XSTEP = 48
YSTEP = 36
MARGIN = 40
GAP_RADIUS = 6

_PALETTE = ["#1f1f1f", "#b22222", "#1f5fb2", "#1f8f3f", "#8f1fb2", "#b28f1f"]


def _xy(gap, slot, height):
    x = MARGIN + gap * XSTEP
    y = height - (MARGIN + slot * YSTEP)
    return x, y


def render_svg(d):
    """Render the diagram to an SVG document string.

    One ``<path>`` per maximal strand run between cusps, a ``gap`` circle
    marker on the back strand of every crossing, component labels with
    surgery coefficients and node decorations, and the spin axis when
    spin > 0.
    """
    tr = trace_components(d)
    counts = tr.counts
    nev = len(d.events)
    maxslot = max(counts) if counts else 1
    height = 2 * MARGIN + (maxslot + 1) * YSTEP
    width = 2 * MARGIN + (nev + 1) * XSTEP

    paths = []
    gaps = []
    labels = []
    walks = component_paths(d)

    # one path per component, following the traversal through cusp turns
    for comp in tr.components:
        color = _PALETTE[(comp.cid - 1) % len(_PALETTE)]
        pts = []
        prev = None
        for (gap, slot, direction) in walks[comp.cid]:
            x0, y = _xy(gap, slot, height)
            x1, _ = _xy(gap + 1, slot, height)
            seg = [(x0, y), (x1, y)] if direction > 0 else [(x1, y), (x0, y)]
            if prev is not None and prev[2] != direction:
                # cusp turn: apex midway between the joined slots
                ax = seg[0][0]
                ay = (pts[-1][1] + seg[0][1]) / 2.0
                pts.append((ax, ay))
            pts += seg
            prev = (gap, slot, direction)
        if comp.closed:
            ax = pts[0][0]
            ay = (pts[-1][1] + pts[0][1]) / 2.0
            pts.append((ax, ay))
        path = [f"M {pts[0][0]:.1f} {pts[0][1]:.1f}"]
        for k in range(1, len(pts)):
            xa, ya = pts[k - 1]
            xb, yb = pts[k]
            if ya == yb:
                path.append(f"L {xb:.1f} {yb:.1f}")
            else:
                xm = (xa + xb) / 2.0
                path.append(
                    f"C {xm:.1f} {ya:.1f} {xm:.1f} {yb:.1f} {xb:.1f} {yb:.1f}"
                )
        if comp.closed:
            path.append("Z")
        paths.append(
            f'<path class="strand c{comp.cid}" fill="none" stroke="{color}"'
            f' stroke-width="2" d="{" ".join(path)}"/>'
        )

    for i, ev in enumerate(d.events):
        if ev.kind != "X":
            continue
        # the strand moving upward (slot p to p+1) is behind
        x = MARGIN + (i + 0.5) * XSTEP
        y = height - (MARGIN + (ev.pos + 0.5) * YSTEP)
        gaps.append(
            f'<circle class="gap" cx="{x:.1f}" cy="{y:.1f}" r="{GAP_RADIUS}"'
            f' fill="white" stroke="none"/>'
        )

    seen = set()
    for comp in tr.components:
        attr = d.attr(comp.cid)
        text = attr.label or f"c{comp.cid}"
        marks = []
        if attr.coefficient == COEFF_PLUS:
            marks.append("(+1)")
        elif attr.coefficient == COEFF_MINUS:
            marks.append("(-1)")
        if attr.node_plus:
            marks.append("⊕")
        if attr.node_minus:
            marks.append("⊖")
        gap, slot, _dir = walks[comp.cid][0]
        x, y = _xy(gap + 1, slot, height)
        label = f"{text} {' '.join(marks)}".strip()
        if (x, y) in seen:
            y -= 12
        seen.add((x, y))
        labels.append(
            f'<text class="label c{comp.cid}" x="{x:.1f}" y="{y - 8:.1f}"'
            f' font-size="12" font-family="monospace">{label}</text>'
        )
    for comp in tr.components:
        attr = d.attr(comp.cid)
        for target in attr.dashed_links:
            g0, s0, _ = walks[comp.cid][0]
            g1, s1, _ = walks[target][0]
            x0, y0 = _xy(g0 + 1, s0, height)
            x1, y1 = _xy(g1 + 1, s1, height)
            labels.append(
                f'<line class="dashed-link" x1="{x0:.1f}" y1="{y0:.1f}"'
                f' x2="{x1:.1f}" y2="{y1:.1f}" stroke="#777"'
                f' stroke-dasharray="3 3" stroke-width="1"/>'
            )

    axis = ""
    if d.spin > 0:
        x = MARGIN + (nev / 2.0) * XSTEP
        axis = (
            f'<line class="axis" x1="{x:.1f}" y1="{MARGIN / 2.0:.1f}"'
            f' x2="{x:.1f}" y2="{height - MARGIN / 2.0:.1f}"'
            f' stroke="#999" stroke-dasharray="6 4" stroke-width="1"/>'
        )

    body = "\n".join(paths + gaps + labels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n'
        f"{axis}\n{body}\n</svg>\n"
    )
