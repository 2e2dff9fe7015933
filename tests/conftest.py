import random

import pytest

from kirbyfront.diagram import (
    COEFF_MINUS,
    ComponentAttr,
    Event,
    FrontDiagram,
    default_attrs,
    strand_counts,
    trace_components,
)


def random_closed_word(rng, max_events=14, max_strands=6):
    """A random valid closed event word built by replay."""
    events = []
    cur = 0
    for _ in range(rng.randrange(2, max_events)):
        choices = []
        if cur + 2 <= max_strands:
            choices.append("L")
        if cur >= 2:
            choices += ["X", "R"]
        kind = rng.choice(choices)
        if kind == "L":
            pos = rng.randrange(1, cur + 2)
            cur += 2
        elif kind == "X":
            pos = rng.randrange(1, cur)
        else:
            pos = rng.randrange(1, cur)
            cur -= 2
        events.append(Event(kind, pos))
    while cur > 0:
        pos = rng.randrange(1, cur)
        events.append(Event("R", pos))
        cur -= 2
    return tuple(events)


def random_diagram(rng, spin=0, max_events=14, minus_fraction=0.5):
    """A random valid diagram; for spin > 0 the word is a palindrome."""
    events = random_closed_word(rng, max_events=max_events)
    if spin > 0:
        from kirbyfront.wordops import mirror_events

        events = events + mirror_events(events)
    d = default_attrs(FrontDiagram(name="rand", spin=spin, events=events))
    attrs = []
    for a in d.attrs:
        coeff = COEFF_MINUS if rng.random() < minus_fraction else 0
        attrs.append(ComponentAttr(label=a.label, coefficient=coeff))
    return FrontDiagram(name="rand", spin=spin, events=events, attrs=tuple(attrs))


def strand_sites(d):
    """All (gap, slot) pairs with a strand."""
    tr = trace_components(d)
    return [(g, s) for g in range(len(d.events) + 1) for s in range(1, tr.counts[g] + 1)]


@pytest.fixture
def rng():
    return random.Random(1729)


def segment_maps(tr):
    """A trace's segments as two dicts, (gap, slot) -> component id and
    (gap, slot) -> direction, read through its accessors."""
    segs = [(g, s) for g, n in enumerate(tr.counts) for s in range(1, n + 1)]
    return {seg: tr.comp(*seg) for seg in segs}, {seg: tr.dir(*seg) for seg in segs}


def segment_map(runs, counts):
    """A segment map given as runs ``(gap, new_gap, slots)`` as one dict
    (gap, slot) -> (new gap, new slot); ``counts`` are the strand counts
    of the word it maps from, and ``slots`` None keeps every slot."""
    out = {}
    for g, ng, slots in runs:
        if slots is None:
            slots = [(s, s) for s in range(1, counts[g] + 1)]
        for s, t in slots:
            out[(g, s)] = (ng, t)
    return out


def segment_runs(seg_map):
    """A dict (gap, slot) -> (new gap, new slot) as runs, one per segment,
    in the dict's order."""
    return [(g, ng, ((s, t),)) for (g, s), (ng, t) in seg_map.items()]
