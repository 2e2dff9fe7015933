"""Classical invariants, handle census, linking and homology data.

Sign conventions.  With the front resolution (downward strand in front), a
crossing is positive exactly when the two strands are traversed in the same
x-direction.  The rotation number is (down cusps - up cusps) / 2 and the
Thurston-Bennequin number is writhe - (right cusps), both computed per
closed component of a spin-0 diagram.

Cusps and crossings are tallied once per trace: one walk of the word
counts every component's cusps and files every crossing under its
component pair, and the invariants, the linking data and the move
preconditions all read that tally.  The linking matrix and the homology
presentation share one extended linking matrix, over the subcritical +1
unknots and then the -1 components; the linking matrix is its -1 block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    COEFF_MINUS,
    COEFF_PLUS,
    DiagramError,
    trace_components,
)
from .smith import smith_normal_form

__all__ = [
    "ClassicalInvariants",
    "HandleCensus",
    "LinkingData",
    "InvariantError",
    "classical_invariants",
    "all_classical_invariants",
    "crossing_data",
    "linking_matrix",
    "handle_census",
    "homology_presentation",
]


class InvariantError(DiagramError):
    pass


@dataclass(frozen=True)
class ClassicalInvariants:
    tb: int
    rot: int
    writhe: int
    left_cusps: int
    right_cusps: int
    up_cusps: int
    down_cusps: int


@dataclass(frozen=True)
class HandleCensus:
    counts: dict  # handle index -> count, 0-handle included
    euler: int


@dataclass(frozen=True)
class LinkingData:
    minus_ids: tuple  # component ids carrying -1 surgery, in canonical order
    matrix: tuple  # tuple of tuples; diagonal tb - 1, off-diagonal linking
    over_ones: dict  # (minus id, plus-unknot id) -> geometric passes


def crossing_data(d):
    """Per crossing event: (component of front strand, component of back
    strand, sign).  The front strand is the one moving downward."""
    tr = trace_components(d)
    out = []
    for i, ev in enumerate(d.events):
        if ev.kind != "X":
            continue
        back = tr.rows[i][ev.pos - 1]  # moves up across the event
        front = tr.rows[i][ev.pos]  # moves down: in front
        cb = tr.code_comp[back]
        cf = tr.code_comp[front]
        eps_b = tr.code_dir[back] * d.attr(cb).orientation
        eps_f = tr.code_dir[front] * d.attr(cf).orientation
        out.append((i, cf, cb, eps_f * eps_b))
    return out


def _tally(d, tr):
    """One walk of the word ``d`` traced as ``tr``: per component id its
    ``[left, right, up, down]`` cusp counts, and per unordered component
    pair ``(a, b)``, ``a <= b``, the ``(event index, sign)`` of each
    crossing between them in word order; self-crossings file under
    ``(a, a)``.  Signs are those of :func:`crossing_data`."""
    rows, comp, dirs = tr.rows, tr.code_comp, tr.code_dir
    cusps = {c.cid: [0, 0, 0, 0] for c in tr.components}
    orient = [None] + [d.attr(c.cid).orientation for c in tr.components]  # by id
    pairs = {}
    for i, ev in enumerate(d.events):
        p = ev.pos
        if ev.kind == "X":
            back, front = rows[i][p - 1], rows[i][p]
            cb, cf = comp[back], comp[front]
            sign = dirs[back] * orient[cb] * dirs[front] * orient[cf]
            pairs.setdefault((cb, cf) if cb <= cf else (cf, cb), []).append((i, sign))
            continue
        left = ev.kind == "L"
        row = rows[i + 1] if left else rows[i]
        cid = comp[row[p - 1]]
        # Leaving a left cusp rightward along the lower strand means the
        # traversal came down through the cusp; at a right cusp arriving
        # rightward along the lower strand means it goes up.
        up = dirs[row[p] if left else row[p - 1]] * orient[cid] > 0
        counts = cusps[cid]
        counts[0 if left else 1] += 1
        counts[2 if up else 3] += 1
    return cusps, pairs


def _classical(tally, cid):
    """The :class:`ClassicalInvariants` of component ``cid`` in a tally."""
    cusps, pairs = tally
    left, right, up, down = cusps[cid]
    writhe = sum(sign for _i, sign in pairs.get((cid, cid), ()))
    return ClassicalInvariants(
        tb=writhe - right,
        rot=(down - up) // 2,
        writhe=writhe,
        left_cusps=left,
        right_cusps=right,
        up_cusps=up,
        down_cusps=down,
    )


def classical_invariants(d, cid):
    """tb, rot and the cusp/crossing counts of one closed component.

    Defined for spin-0 diagrams only; open components are rejected.
    """
    if d.spin != 0:
        raise InvariantError("classical invariants are defined for spin 0 only")
    tr = trace_components(d)
    if not 1 <= cid <= len(tr.components):
        raise InvariantError(f"no component {cid}")
    if not tr.components[cid - 1].closed:
        raise InvariantError(f"component {cid} is open")
    return _classical(_tally(d, tr), cid)


def all_classical_invariants(d):
    """The :func:`classical_invariants` of every closed component, by id."""
    tr = trace_components(d)
    closed = [c.cid for c in tr.components if c.closed]
    if closed and d.spin != 0:
        raise InvariantError("classical invariants are defined for spin 0 only")
    tally = _tally(d, tr)
    return {cid: _classical(tally, cid) for cid in closed}


def _classify(d, cid):
    """Handle index class of a component: 'n' (critical), 'n+1', 'n-1'
    (subcritical), or None for an undecorated Legendrian."""
    a = d.attr(cid)
    if a.coefficient == COEFF_MINUS:
        return "n"
    if a.coefficient == COEFF_PLUS:
        if a.node_plus and a.node_minus:
            return "n+1"
        if a.node_plus or a.node_minus:
            raise InvariantError(
                f"component {cid}: +1 surgery with only one node decoration"
            )
        return "n-1"
    return None


def handle_census(d):
    """Handle counts by index (the implicit 0-handle included) and Euler
    characteristic of the presented domain; n = spin + 2."""
    n = d.spin + 2
    counts = {0: 1}
    for comp in trace_components(d).components:
        cls = _classify(d, comp.cid)
        if cls is None:
            continue
        k = {"n": n, "n+1": n + 1, "n-1": n - 1}[cls]
        counts[k] = counts.get(k, 0) + 1
    euler = sum((-1) ** k * v for k, v in counts.items())
    return HandleCensus(counts=counts, euler=euler)


def _surgery_data(d, what):
    """The pass that linking and homology data share: the subcritical +1
    ids and the -1 ids in canonical order, the extended linking matrix over
    those ids in that order, and the tally's crossing pairs.  The matrix
    has tb - 1 on the diagonal of a -1 component, 0 on that of a +1 unknot
    and between two of them, and the signed linking number everywhere
    else."""
    if d.spin != 0:
        raise InvariantError(f"{what} data is defined for spin 0 only")
    tr = trace_components(d)
    classes = [_classify(d, c.cid) for c in tr.components]
    plus_sub = [cid for cid, cls in enumerate(classes, 1) if cls == "n-1"]
    minus = [cid for cid, cls in enumerate(classes, 1) if cls == "n"]
    for cid in minus:
        if not tr.components[cid - 1].closed:
            raise InvariantError(f"-1 component {cid} is open")
    tally = _tally(d, tr)
    pairs = tally[1]
    order = plus_sub + minus

    def entry(a, b):
        if a == b:
            return _classical(tally, a).tb - 1 if classes[a - 1] == "n" else 0
        if classes[a - 1] == classes[b - 1] == "n-1":
            return 0
        return sum(sign for _i, sign in pairs.get((min(a, b), max(a, b)), ())) // 2

    matrix = [[entry(a, b) for b in order] for a in order]
    return plus_sub, minus, matrix, pairs


def linking_matrix(d):
    """Surgery linking data of a spin-0 diagram.

    Diagonal entries are tb - 1 (the Weinstein 2-handle framing), the
    off-diagonal ones signed linking numbers between the -1 components, and
    ``over_ones`` counts geometric passes of each -1 component over each
    subcritical +1 unknot (crossings with it / 2).
    """
    plus_sub, minus, matrix, pairs = _surgery_data(d, "linking")
    k = len(plus_sub)
    over = {
        (mc, pc): len(pairs.get((min(mc, pc), max(mc, pc)), ())) // 2
        for mc in minus
        for pc in plus_sub
    }
    return LinkingData(
        minus_ids=tuple(minus),
        matrix=tuple(tuple(row[k:]) for row in matrix[k:]),
        over_ones=over,
    )


def homology_presentation(d):
    """Invariant factors of the first homology presented by the diagram.

    Generators are the meridians of the -1 components together with the
    subcritical +1 unknots (0-framed dotted circles); relations are the
    rows of the extended linking matrix.  An empty list means trivial
    torsion and full rank; degenerate presentations report their free rank
    as trailing zeros.
    """
    diag = smith_normal_form(_surgery_data(d, "homology")[2])
    factors = [x for x in diag if x > 1]
    factors += [0] * sum(1 for x in diag if x == 0)
    return factors
