"""Front diagrams as Morse event words.

A diagram is a left-to-right word of events acting on a stack of horizontal
strands.  Strand slots are numbered from 1 at the bottom.  The three event
kinds are

* ``L`` (left cusp at slot p): births a pair of strands occupying slots
  p and p+1, pushing every strand at slot >= p up by two;
* ``R`` (right cusp at slot p): caps the adjacent strands at slots p, p+1,
  which join and leave the diagram;
* ``X`` (crossing at slot p): transposes the strands at slots p and p+1.

A word together with ``left_count`` (strands entering at the left wall)
determines the planar front completely.  Front conventions: at a crossing
the strand moving downward (the one of lesser slope) is in front; cusps are
the only other singularities.  Spun diagrams store the whole symmetric
planar profile plus a spin parameter; spin symmetry is the mirror-palindrome
condition checked by :func:`check_spin_symmetry`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

__all__ = [
    "COEFF_NONE",
    "COEFF_PLUS",
    "COEFF_MINUS",
    "Event",
    "ComponentAttr",
    "FrontDiagram",
    "TracedComponent",
    "Trace",
    "DiagramError",
    "MoveError",
    "ParseError",
    "ValidationError",
    "strand_counts",
    "right_count",
    "trace_components",
    "component_path",
    "component_paths",
    "mirror",
    "mirror_events",
    "check_spin_symmetry",
    "validate_diagram",
    "parse_front",
    "serialize_front",
    "default_attrs",
]

COEFF_NONE = 0
COEFF_PLUS = 1
COEFF_MINUS = -1

_COEFF_TEXT = {COEFF_PLUS: "+1", COEFF_MINUS: "-1"}


class DiagramError(Exception):
    """Base class for all diagram-level errors."""


class ParseError(DiagramError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(DiagramError):
    pass


class MoveError(DiagramError):
    """A move precondition or template match failed."""


@dataclass(frozen=True)
class Event:
    """One front singularity: kind is 'L', 'R' or 'X'; pos is 1-based."""

    kind: str
    pos: int

    def __post_init__(self):
        if self.kind not in ("L", "R", "X"):
            raise ValidationError(f"unknown event kind {self.kind!r}")
        if self.pos < 1:
            raise ValidationError(f"event position must be >= 1, got {self.pos}")

    def __str__(self):
        return f"{self.kind}{self.pos}"


@dataclass(frozen=True)
class ComponentAttr:
    """Decorations attached to one traced component.

    ``coefficient`` is the contact surgery coefficient (+1, -1 or 0 for
    none).  ``node_plus``/``node_minus`` are the circular node decorations;
    a component carrying +1 surgery together with both nodes presents a
    top-index handle, while an undecorated +1 unknot presents a subcritical
    handle.  ``dashed_links`` lists component ids whose handle cocores the
    preferred disk fillings intersect.  ``orientation`` (+1 forward, -1
    backward) fixes the traversal used for signed counts.
    """

    label: str = ""
    coefficient: int = COEFF_NONE
    node_plus: bool = False
    node_minus: bool = False
    dashed_links: tuple[int, ...] = ()
    orientation: int = 1

    def __post_init__(self):
        if self.coefficient not in (COEFF_NONE, COEFF_PLUS, COEFF_MINUS):
            raise ValidationError(f"bad coefficient {self.coefficient!r}")
        if self.orientation not in (1, -1):
            raise ValidationError(f"bad orientation {self.orientation!r}")
        object.__setattr__(self, "dashed_links", tuple(sorted(set(self.dashed_links))))


@dataclass(frozen=True)
class FrontDiagram:
    """A (possibly relative) front diagram.

    ``left_count`` strands enter at the left wall; a closed diagram has
    ``left_count == 0`` and derived right count 0.  ``attrs[i]`` decorates
    the component with canonical id ``i + 1``; empty ``attrs`` means every
    component is bare.  Read a component's decorations with :meth:`attr`.
    """

    name: str = "d"
    spin: int = 0
    left_count: int = 0
    events: tuple[Event, ...] = ()
    attrs: tuple[ComponentAttr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "attrs", tuple(self.attrs))
        if self.spin < 0:
            raise ValidationError("spin must be >= 0")
        if self.left_count < 0:
            raise ValidationError("left_count must be >= 0")

    def word(self):
        return " ".join(str(e) for e in self.events)

    def attr(self, cid):
        """The decorations of component ``cid`` (from 1)."""
        return self.attrs[cid - 1] if self.attrs else _BARE


_BARE = ComponentAttr()


_KIND_AT = dict(L="left cusp at", X="crossing at position", R="right cusp at position")


def _replay_error(i, ev, cur):
    """The error for event ``i`` (from 0), ``ev``, on ``cur`` strands."""
    what = _KIND_AT[ev.kind]
    return ValidationError(f"event {i + 1} ({ev}): {what} {ev.pos} with {cur} strands")


def strand_counts(events, left_count):
    """Strand count in every gap; gap i sits just after event i.

    Raises :class:`ValidationError` naming the first offending event if the
    word does not replay.  :func:`parse_front` bounds a word's size with it
    before the trace, from which every other reader takes the counts.
    """
    counts = [left_count]
    cur = left_count
    for i, ev in enumerate(events):
        if ev.pos > (cur + 1 if ev.kind == "L" else cur - 1):
            raise _replay_error(i, ev, cur)
        cur += 2 if ev.kind == "L" else -2 if ev.kind == "R" else 0
        counts.append(cur)
    return counts


def right_count(d):
    return len(trace_components(d).rows[-1])


# ---------------------------------------------------------------------------
# Component tracing
# ---------------------------------------------------------------------------

# A strand segment is addressed (gap, slot): it spans gap `gap` (the region
# after event `gap`; gap 0 is the left wall region) at vertical slot `slot`.


@dataclass
class TracedComponent:
    """Its segments are those whose code has component ``cid``."""

    cid: int
    closed: bool
    start: tuple  # first-touched (gap, slot); the traversal heads right there


@dataclass
class Trace:
    """The component structure of one word, as per-gap rows of strand codes.

    A code names one strand from cusp or wall to cusp or wall; a crossing
    keeps it.  ``rows[g]`` holds the codes of gap ``g``, slot s at index
    s - 1; ``code_comp`` and ``code_dir`` give each code's component id and
    direction (+1 where the canonical traversal runs rightward).  The sweep
    that builds the rows, checking each event against its row, is the one
    replay of the word.  One segment is read with :meth:`comp` and
    :meth:`dir`, each component's traversal with :func:`component_paths`.

    A trace is shared only through the memo of :func:`trace_components`,
    which keeps the traces of the last two words asked for and hands each
    to every later call on its word; no function takes or returns one
    otherwise.  A shared trace must not be mutated.
    """

    rows: list  # per gap, a tuple of codes
    code_comp: list  # code -> cid
    code_dir: list  # code -> +1 / -1
    components: list  # TracedComponent, index cid-1
    counts: list  # strand count per gap, len(rows[g])

    def _code(self, gap, slot):
        if 0 <= gap < len(self.rows) and 0 < slot <= len(self.rows[gap]):
            return self.rows[gap][slot - 1]
        raise KeyError((gap, slot))

    def comp(self, gap, slot):
        """The component id of segment (gap, slot); KeyError if none."""
        return self.code_comp[self._code(gap, slot)]

    def dir(self, gap, slot):
        """The direction of segment (gap, slot); KeyError if none."""
        return self.code_dir[self._code(gap, slot)]


def component_paths(d):
    """Each component of ``d`` in traversal order, as (gap, slot, direction)
    triples by id, read off the rows of its trace: a cusp turns the
    traversal from the code heading into it onto the other.  An open
    component runs from the wall where it heads into the word, a closed one
    from its start, heading rightward."""
    tr = trace_components(d)
    rows, code_comp, code_dir = tr.rows, tr.code_comp, tr.code_dir
    segments = [[] for _ in code_comp]  # per code, its (gap, slot) in gap order
    for g, row in enumerate(rows):
        for s, code in enumerate(row, 1):
            segments[code].append((g, s))
    nxt = {}  # code -> the code the traversal turns onto at its cusp
    for i, ev in enumerate(d.events):
        if ev.kind != "X":
            # a right cusp is entered heading right, a left one heading left
            row, into = (rows[i], 1) if ev.kind == "R" else (rows[i + 1], -1)
            a, b = row[ev.pos - 1], row[ev.pos]
            if code_dir[a] != into:
                a, b = b, a
            nxt[a] = b
    # the code each open component starts on, no cusp leading to it
    starts = {code_comp[c]: c for c in rows[0] if code_dir[c] > 0}
    starts.update((code_comp[c], c) for c in rows[-1] if code_dir[c] < 0)
    paths = {}
    for comp in tr.components:
        g, s = comp.start
        first = code = rows[g][s - 1] if comp.closed else starts[comp.cid]
        path = paths[comp.cid] = []
        while not path or code != first:  # until a wall, or round a circle
            dr = code_dir[code]
            segs = segments[code] if dr > 0 else reversed(segments[code])
            path += [(g, s, dr) for g, s in segs]
            code = nxt.get(code, first)
    return paths


def component_path(d, cid):
    """Component ``cid`` of :func:`component_paths`; KeyError if none."""
    return component_paths(d)[cid]


# The words trace_components returned last, each as (left_count, events,
# trace), the latest first: a rewrite that traces a word of its own
# between its input and its output keeps its input's trace
_MEMO_SIZE = 2
_recent = ()


def trace_components(d):
    """Trace strand segments into components.

    Deterministic: components are numbered 1..N by their first-touched
    segment, ordered by (gap, slot); each closed component is traversed
    starting at that segment heading rightward, each open one from wall to
    wall through that segment heading rightward.

    The traces of the last two words asked for are kept, so tracing one of
    them again, as the next move does with the previous move's output,
    returns that same trace.  A word that does not replay raises
    :class:`ValidationError` naming its first offending event.
    """
    global _recent
    for entry in _recent:
        left_count, events, tr = entry
        if left_count == d.left_count and (events is d.events or events == d.events):
            if entry is not _recent[0]:
                _recent = (entry, *(e for e in _recent if e is not entry))
            return tr
    tr = _trace(d)
    _recent = ((d.left_count, d.events, tr), *_recent[: _MEMO_SIZE - 1])
    return tr


def _trace(d):
    """One sweep of the word.  Piece k is a left-wall strand with code 2k,
    or the strand born at a left cusp, with code 2k at its lower end and
    2k + 1 at its upper one.  A right cusp joins its two pieces in a
    union-find whose parity bit says whether a piece runs against its
    root, so that the two ends of the cusp run in opposite directions
    (Tarjan 1975)."""
    events = d.events
    row = list(range(0, 2 * d.left_count, 2))
    rows = [tuple(row)]
    parent = list(range(d.left_count))
    parity = [0] * d.left_count
    size = [1] * d.left_count
    # A component's first-touched segment is at the left wall or is the
    # lower strand born at its leftmost cusp: the start of its first piece.
    starts = [(0, s) for s in range(1, d.left_count + 1)]

    def find(k):
        bit = 0
        while parent[k] != k:
            bit ^= parity[k]
            k = parent[k]
        return k, bit

    for i, ev in enumerate(events):
        p = ev.pos
        if p > (len(row) + 1 if ev.kind == "L" else len(row) - 1):
            raise _replay_error(i, ev, len(row))
        if ev.kind == "X":
            row[p - 1], row[p] = row[p], row[p - 1]
        elif ev.kind == "L":
            k = len(parent)
            row[p - 1 : p - 1] = (2 * k, 2 * k + 1)
            parent.append(k)
            parity.append(0)
            size.append(1)
            starts.append((i + 1, p))
        else:
            a, b = row[p - 1], row[p]
            del row[p - 1 : p + 1]
            (ra, xa), (rb, xb) = find(a >> 1), find(b >> 1)
            if ra != rb:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                parity[rb] = 1 ^ (a & 1) ^ (b & 1) ^ xa ^ xb
                size[ra] += size[rb]
        rows.append(tuple(row))

    # number the components by their first piece and orient each so that
    # its start reads +1
    cid_of = {}
    firsts = []
    code_comp = []
    code_dir = []
    for k in range(len(parent)):
        root, bit = find(k)
        if root not in cid_of:
            firsts.append(starts[k])
            cid_of[root] = (len(firsts), bit)
        cid, flip = cid_of[root]
        code_comp += (cid, cid)
        code_dir += (-1, 1) if bit ^ flip else (1, -1)
    open_cids = {code_comp[c] for c in rows[0] + rows[-1]}
    components = [
        TracedComponent(cid=cid, closed=cid not in open_cids, start=start)
        for cid, start in enumerate(firsts, start=1)
    ]
    return Trace(rows, code_comp, code_dir, components, [len(r) for r in rows])


def _attrs_from_map(d, old_trace, new_trace, runs, merge=None):
    """Transport attributes along a partial segment map old->new.

    ``old_trace`` is the trace of ``d``.  The map is a list of runs
    ``(gap, new_gap, slots)``: ``slots`` is None where every segment of
    ``gap`` keeps its slot, else a tuple of (slot, new slot) pairs.
    Returns (attrs, old_to_new, fresh): new components no old segment maps
    to are fresh and get a bare attribute.  ``merge`` resolves several old
    attributes landing on one new component; without it a merge is an
    error.  An orientation keeps the direction of travel along the first
    mapped segment of its component, so it flips where the new canonical
    traversal runs that segment the other way.
    """
    ncomp = len(new_trace.components)
    old_rows, new_rows = old_trace.rows, new_trace.rows
    old_comp, old_dir = old_trace.code_comp, old_trace.code_dir
    new_comp, new_dir = new_trace.code_comp, new_trace.code_dir
    # the (old code, new code) of each mapped segment, in run order
    pairs = chain.from_iterable(
        zip(old_rows[g], new_rows[ng])
        if slots is None
        else [(old_rows[g][s - 1], new_rows[ng][t - 1]) for s, t in slots]
        for g, ng, slots in runs
    )
    # per new component: old component -> +1, or -1 where its traversal flips
    sources = [{} for _ in range(ncomp)]
    # every segment of one code pair reads the same components and directions
    for o, n in dict.fromkeys(pairs):
        oc = old_comp[o]
        src = sources[new_comp[n] - 1]
        if oc not in src:
            src[oc] = old_dir[o] * new_dir[n]

    old_to_new = {}
    for nc0, src in enumerate(sources):
        for oc in src:
            old_to_new[oc] = nc0 + 1

    def old_attr(src, oc):
        a = d.attr(oc)
        return a if src[oc] > 0 else replace(a, orientation=-a.orientation)

    attrs = []
    fresh = []
    for nc0, src in enumerate(sources):
        if not src:
            fresh.append(nc0 + 1)
            attrs.append(_BARE)
        elif len(src) == 1:
            attrs.append(old_attr(src, next(iter(src))))
        else:
            if merge is None:
                raise MoveError(
                    f"rewrite merged components {sorted(src)} without a merge rule"
                )
            attrs.append(merge(sorted(src), [old_attr(src, i) for i in sorted(src)]))
    fixed = []
    for a in attrs:
        links = tuple(old_to_new[t] for t in a.dashed_links if t in old_to_new)
        fixed.append(replace(a, dashed_links=links))
    return tuple(fixed), old_to_new, fresh


_MIRROR_KIND = {"L": "R", "R": "L", "X": "X"}


def mirror_events(events):
    """Mirror a block: reverse order, swap cusp kinds, keep positions."""
    return tuple(Event(_MIRROR_KIND[e.kind], e.pos) for e in reversed(events))


def mirror(d):
    """The mirror diagram: word reversed, cusps swapped, positions kept."""
    mirrored = FrontDiagram(
        name=d.name,
        spin=d.spin,
        left_count=right_count(d),
        events=mirror_events(d.events),
    )
    # Segment (g, s) of d is segment (nev - g, s) of the mirror.
    nev = len(d.events)
    runs = [(g, nev - g, None) for g in range(nev + 1)]
    old = trace_components(d)
    attrs, _, _ = _attrs_from_map(d, old, trace_components(mirrored), runs)
    # the mirror reverses x, so the direction of travel reverses with it
    attrs = tuple(replace(a, orientation=-a.orientation) for a in attrs)
    return replace(mirrored, attrs=attrs)


def check_spin_symmetry(d):
    """True iff the event word equals its mirror and the wall counts agree.

    For spin > 0 this is a diagram invariant every move must preserve.
    """
    if d.left_count != right_count(d):
        return False
    # compared in place: building the mirrored word costs an Event per event
    return all(
        e.kind == _MIRROR_KIND[m.kind] and e.pos == m.pos
        for e, m in zip(d.events, reversed(d.events))
    )


def validate_diagram(d):
    """All invariant violations as strings; empty list iff valid."""
    violations = []
    try:
        tr = trace_components(d)
    except ValidationError as exc:
        return [str(exc)]
    ncomp = len(tr.components)
    if d.attrs and len(d.attrs) != ncomp:
        violations.append(
            f"{len(d.attrs)} component attributes for {ncomp} traced components"
        )
    for i, attr in enumerate(d.attrs):
        if attr.coefficient == COEFF_PLUS and attr.node_plus != attr.node_minus:
            violations.append(
                f"component {i + 1}: +1 surgery with only one node decoration "
                "(convention (2))"
            )
        for target in attr.dashed_links:
            if target < 1 or target > ncomp:
                violations.append(
                    f"component {i + 1}: dashed link to unknown component {target}"
                )
            elif d.attrs[target - 1].coefficient != COEFF_MINUS:
                violations.append(
                    f"component {i + 1}: dashed link target {target} does not "
                    "carry -1 surgery (convention (3))"
                )
    if d.spin > 0 and not check_spin_symmetry(d):
        violations.append("spin > 0 but the event word is not mirror-palindromic")
    return violations


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_EVENT_LETTERS = {"L", "X", "R"}

# The most strand segments, summed over the gaps, that a parsed word may
# have.  A trace keeps about 8 bytes per segment, one reference in a row,
# and peaks near that while it is built; the limit also bounds the time of
# a parse and of each move on the parsed word.
MAX_SEGMENTS = 1_000_000


def parse_front(text):
    """Parse the line-oriented ``.front`` format.

    Grammar::

        diagram <name>
        spin <k>
        left <m>
        events
          (L|X|R) <i>      # one per line, left to right; inline words allowed
        end
        component <label> [coeff (+1|-1)] [node+] [node-]
                          [dashed <label> ...] [orient (fwd|bwd)]

    Component lines bind positionally: the i-th line decorates the i-th
    component in canonical trace order.  A word with more than
    :data:`MAX_SEGMENTS` strand segments is refused before it is traced.
    """
    dname = "d"
    spin = 0
    left = 0
    events = []
    comp_lines = []
    in_events = False
    seen_events = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if in_events:
            if head == "end":
                in_events = False
                continue
            for tok in tokens:
                kind, num = tok[0].upper(), tok[1:]
                if kind not in _EVENT_LETTERS or not num.isdigit() or int(num) < 1:
                    raise ParseError(f"bad event token {tok!r}", lineno)
                events.append(Event(kind, int(num)))
            # each event borders a gap of at least two strands, and each
            # gap borders at most two events: a word has no more events
            # than segments, so a longer one is refused before it is read
            if len(events) > MAX_SEGMENTS:
                raise ParseError(f"more than {MAX_SEGMENTS} events", lineno)
            continue
        if head == "diagram":
            if len(tokens) != 2:
                raise ParseError("expected: diagram <name>", lineno)
            dname = tokens[1]
        elif head == "spin":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("expected: spin <k>", lineno)
            spin = int(tokens[1])
        elif head == "left":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("expected: left <m>", lineno)
            left = int(tokens[1])
        elif head == "events":
            in_events = True
            seen_events = True
        elif head == "component":
            if len(tokens) < 2:
                raise ParseError("component line needs a label", lineno)
            comp_lines.append((lineno, tokens[1], tokens[2:]))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if in_events:
        raise ParseError("events block not closed with 'end'")
    if not seen_events:
        raise ParseError("missing events block")

    base = FrontDiagram(name=dname, spin=spin, left_count=left, events=tuple(events))
    try:
        segments = sum(strand_counts(base.events, left))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
    if segments > MAX_SEGMENTS:
        raise ParseError(
            f"the word has {segments} strand segments, more than {MAX_SEGMENTS}"
        )
    tr = trace_components(base)
    ncomp = len(tr.components)
    if len(comp_lines) > ncomp:
        raise ParseError(
            f"{len(comp_lines)} component lines but only {ncomp} traced components"
        )

    labels = {}
    for idx, (lineno, label, _rest) in enumerate(comp_lines):
        if label in labels:
            raise ParseError(f"duplicate component label {label!r}", lineno)
        labels[label] = idx + 1

    attrs = []
    for idx in range(ncomp):
        if idx < len(comp_lines):
            lineno, label, rest = comp_lines[idx]
        else:
            lineno, label, rest = None, f"c{idx + 1}", []
        coeff = COEFF_NONE
        node_plus = node_minus = False
        dashed = []
        orient = 1
        i = 0
        while i < len(rest):
            tok = rest[i]
            if tok == "coeff":
                if i + 1 >= len(rest) or rest[i + 1] not in ("+1", "-1"):
                    raise ParseError("coeff must be +1 or -1", lineno)
                coeff = COEFF_PLUS if rest[i + 1] == "+1" else COEFF_MINUS
                i += 2
            elif tok == "node+":
                node_plus = True
                i += 1
            elif tok == "node-":
                node_minus = True
                i += 1
            elif tok == "dashed":
                i += 1
                if i >= len(rest):
                    raise ParseError("dashed needs at least one label", lineno)
                while i < len(rest) and rest[i] not in ("coeff", "node+", "node-", "orient"):
                    target = rest[i]
                    if target not in labels:
                        raise ParseError(
                            f"unknown component label {target!r} in dashed list", lineno
                        )
                    dashed.append(labels[target])
                    i += 1
            elif tok == "orient":
                if i + 1 >= len(rest) or rest[i + 1] not in ("fwd", "bwd"):
                    raise ParseError("orient must be fwd or bwd", lineno)
                orient = 1 if rest[i + 1] == "fwd" else -1
                i += 2
            else:
                raise ParseError(f"unknown component attribute {tok!r}", lineno)
        attrs.append(
            ComponentAttr(
                label=label,
                coefficient=coeff,
                node_plus=node_plus,
                node_minus=node_minus,
                dashed_links=tuple(dashed),
                orientation=orient,
            )
        )

    d = replace(base, attrs=tuple(attrs))
    problems = validate_diagram(d)
    if problems:
        raise ParseError("; ".join(problems))
    return d


def serialize_front(d):
    """Canonical text: events one per line, components in trace order."""
    lines = [f"diagram {d.name}", f"spin {d.spin}", f"left {d.left_count}", "events"]
    for e in d.events:
        lines.append(f"  {e.kind}{e.pos}")
    lines.append("end")
    for i, attr in enumerate(d.attrs):
        parts = [f"component {attr.label or f'c{i + 1}'}"]
        if attr.coefficient != COEFF_NONE:
            parts.append(f"coeff {_COEFF_TEXT[attr.coefficient]}")
        if attr.node_plus:
            parts.append("node+")
        if attr.node_minus:
            parts.append("node-")
        if attr.dashed_links:
            labels = [d.attrs[t - 1].label or f"c{t}" for t in attr.dashed_links]
            parts.append("dashed " + " ".join(labels))
        if attr.orientation == -1:
            parts.append("orient bwd")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def default_attrs(d):
    """Fill in bare attributes for every traced component."""
    tr = trace_components(d)
    attrs = tuple(ComponentAttr(label=f"c{i + 1}") for i in range(len(tr.components)))
    return replace(d, attrs=attrs)
