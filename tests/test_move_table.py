"""Differential test: clasp, stabilize, uplus, the primitive crossing
change, birth and the Reidemeister moves rewrite through one table of
templates.  The moves as they were, each with its own template helper
and its own match and guard code, are kept below verbatim as oracles and
compared with the library at every gap and slot of a seeded corpus, with
three site ends, every component id in and out of range, and both
directions.  The two site rules the one rewrite changed are pinned."""

import random
import re
from collections import Counter
from dataclasses import replace

from kirbyfront import moves
from kirbyfront.cli import main
from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_NONE,
    COEFF_PLUS,
    ComponentAttr,
    Event,
    parse_front,
    trace_components,
)
from kirbyfront.families import cieliebak_diagram, mazur_diagram, trivial_bypass_pair, unknot
from kirbyfront.moves import (
    _REDUCTIONS,
    TEMPLATES,
    MoveError,
    _blocks,
    _merge_union,
    _require,
    _spin_splice,
    _strand_comp,
    _strands_have_nodes,
    birth_cancel_pair,
    clasp,
    crossing_change,
    reidemeister,
    site_at,
    stabilize,
    uplus,
)

from conftest import random_diagram
from test_tally import _decorate

# ---------------------------------------------------------------------------
# The moves as they were, kept as oracles
# ---------------------------------------------------------------------------


def _clasp_template(s):
    return (Event("X", s), Event("X", s))


def _oracle_clasp(d, site, direction="clasp"):
    s = site.s0
    if direction == "clasp":
        _require(site.e0 == site.e1, "clasp site is an insertion point")
        counts = trace_components(d).counts
        _require(site.e0 <= len(d.events), "site beyond the word")
        _require(counts[site.e0] >= s + 1, "clasp needs two adjacent strands")
        return _spin_splice(d, site.e0, site.e0, _clasp_template(s))
    if direction == "unclasp":
        _require(
            tuple(d.events[site.e0 : site.e0 + 2]) == _clasp_template(s),
            "unclasp site does not match the clasped template",
        )
        return _spin_splice(d, site.e0, site.e0 + 2, ())
    raise MoveError(f"unknown clasp direction {direction!r}")


def _stab_template(s):
    return (Event("L", s + 1), Event("R", s), Event("L", s), Event("R", s + 1))


def _oracle_stabilize(d, cid, site, direction="stabilize"):
    s = site.s0
    tr = trace_components(d)
    if direction == "stabilize":
        _require(site.e0 == site.e1, "stabilize site is an insertion point")
        _require(
            _strand_comp(tr, site.e0, s) == cid,
            f"strand {s} at gap {site.e0} is not component {cid}",
        )
        return _spin_splice(d, site.e0, site.e0, _stab_template(s))
    if direction == "destabilize":
        w = d.events[site.e0 : site.e0 + 4]
        _require(
            tuple(w) == _stab_template(s),
            "destabilize site does not match the zigzag template",
        )
        _require(
            _strand_comp(tr, site.e0, s) == cid,
            f"zigzag at the site does not belong to component {cid}",
        )
        return _spin_splice(d, site.e0, site.e0 + 4, ())
    raise MoveError(f"unknown stabilize direction {direction!r}")


def _junction(s):
    return (Event("X", s), Event("R", s), Event("L", s))


def _crossing_template(s):
    return (
        Event("L", s + 2),
        Event("R", s + 1),
        Event("L", s),
        Event("X", s + 1),
        Event("R", s + 2),
    )


def _axis_neck(s):
    return _junction(s) + (Event("X", s),)


def _junction_for(d, gap, s):
    """Junction block at an insertion gap; a site on the spin axis takes the
    palindromic neck [X, R, L, X] so the rewrite is its own mirror."""
    if d.spin > 0 and gap * 2 == len(d.events):
        return _axis_neck(s)
    return _junction(s)


def _oracle_uplus(d, a, b, site):
    s = site.s0
    _require(site.e0 == site.e1, "uplus site is an insertion point")
    _require(a != b, "uplus merges two distinct components")
    tr = trace_components(d)
    ca = _strand_comp(tr, site.e0, s)
    cb = _strand_comp(tr, site.e0, s + 1)
    _require(
        ca == a and cb == b,
        f"site strands belong to components {ca} below {cb}, not {a} below {b}",
    )

    def merge(cids, attrs):
        idx = cids.index(a) if a in cids else 0
        merged = _merge_union(cids, attrs)
        return replace(merged, orientation=attrs[idx].orientation)

    return _spin_splice(d, site.e0, site.e0, _junction_for(d, site.e0, s), merge=merge)


def _oracle_crossing_change(d, site, mode="primitive"):
    if mode == "macro":
        from kirbyfront.macros import crossing_change_macro

        return crossing_change_macro(d, site)
    _require(mode == "primitive", f"unknown crossing change mode {mode!r}")
    _require(d.spin == 0, "the crossing change move needs spin 0 (dimension 5)")
    s = site.s0
    if (
        site.e0 < len(d.events)
        and d.events[site.e0] == Event("X", s)
        and site.e1 in (site.e0, site.e0 + 1)
    ):
        return _spin_splice(d, site.e0, site.e0 + 1, _crossing_template(s))
    five = d.events[site.e0 : site.e0 + 5]
    if tuple(five) == _crossing_template(s):
        return _spin_splice(d, site.e0, site.e0 + 5, (Event("X", s),))
    raise MoveError(
        "crossing change site matches neither a crossing nor the changed-crossing"
        " template"
    )


def _birth_template(s):
    return (
        Event("L", s),
        Event("L", s + 1),
        Event("X", s + 2),
        Event("X", s + 2),
        Event("R", s + 1),
        Event("R", s),
    )


def _oracle_birth(d, site):
    s = site.s0
    _require(site.e0 == site.e1, "birth site is an insertion point")
    res = _spin_splice(d, site.e0, site.e0, _birth_template(s))
    fresh = sorted(res.fresh)
    _require(len(fresh) in (2, 4), "birth did not create the pair")
    attrs = list(res.diagram.attrs)
    for k in range(0, len(fresh), 2):
        g, y = fresh[k], fresh[k + 1]
        attrs[g - 1] = ComponentAttr(label=f"g{g}", coefficient=COEFF_PLUS)
        attrs[y - 1] = ComponentAttr(label=f"y{y}", coefficient=COEFF_MINUS)
    res.diagram = replace(res.diagram, attrs=tuple(attrs))
    return res


def _r_templates(s):
    return {
        ("R1", 1): ((), (Event("L", s), Event("X", s + 1), Event("R", s))),
        ("R1", 2): ((), (Event("L", s + 1), Event("X", s), Event("R", s + 1))),
        ("R2", 1): (
            (Event("L", s + 1),),
            (Event("L", s), Event("X", s + 1), Event("X", s)),
        ),
        ("R2", 2): (
            (Event("L", s),),
            (Event("L", s + 1), Event("X", s), Event("X", s + 1)),
        ),
        ("R2", 3): (
            (Event("R", s + 1),),
            (Event("X", s), Event("X", s + 1), Event("R", s)),
        ),
        ("R2", 4): (
            (Event("R", s),),
            (Event("X", s + 1), Event("X", s), Event("R", s + 1)),
        ),
        ("R3", 1): (
            (Event("X", s), Event("X", s + 1), Event("X", s)),
            (Event("X", s + 1), Event("X", s), Event("X", s + 1)),
        ),
    }


def _oracle_reidemeister(d, move, site, variant=1, direction="forward"):
    key = (move, variant)
    templates = _r_templates(site.s0)
    _require(key in templates, f"unknown Reidemeister move {move} variant {variant}")
    short, long_ = templates[key]
    if direction == "forward":
        src, dst = short, long_
    elif direction == "reverse":
        src, dst = long_, short
    else:
        raise MoveError(f"unknown direction {direction!r}")
    i0 = site.e0
    i1 = i0 + len(src)
    _require(tuple(d.events[i0:i1]) == src, f"{move} site does not match the template")
    if move == "R3":
        _require(
            not _strands_have_nodes(
                d, trace_components(d), i0, range(site.s0, site.s0 + 3)
            ),
            "R3 across node-decorated strands is not supported (node transport"
            " under triple points is undefined)",
        )
    return _spin_splice(d, i0, i1, dst)


# ---------------------------------------------------------------------------
# Corpus and calls
# ---------------------------------------------------------------------------


def _birth(d, site):
    return birth_cancel_pair(d, site, "birth")


ORACLES = {
    clasp: _oracle_clasp,
    stabilize: _oracle_stabilize,
    uplus: _oracle_uplus,
    crossing_change: _oracle_crossing_change,
    _birth: _oracle_birth,
    reidemeister: _oracle_reidemeister,
}


def _outcome(fn, *args):
    """What a call returned, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is compared
        return type(exc).__name__, str(exc)


def _corpus():
    """60 decorated random diagrams at spin 0-2, every fourth without
    coefficients so that uplus can merge, W^k_m, Mazur and the
    trivial-bypass pair at spin 0 and 1."""
    rng = random.Random(3131)
    out = []
    for k in range(60):
        d = _decorate(rng, random_diagram(rng, spin=k % 3, max_events=4 + k % 8))
        if k % 4 == 3:
            d = replace(d, attrs=tuple(replace(a, coefficient=COEFF_NONE) for a in d.attrs))
        out.append(d)
    out += [cieliebak_diagram(k, m) for k, m in ((-1, 1), (0, 2), (2, 1))]
    out += [mazur_diagram(), trivial_bypass_pair()[0], trivial_bypass_pair(spin=1)[0]]
    return out


CORPUS = _corpus()
_R_KEYS = list(_r_templates(1))


def _calls(d):
    """Every template move of ``d`` at every gap, slot 1..count+1 and site
    end e0, e0+1, e0+5, in both directions, with every component id and
    one out of range on each side; at gap 0 also the unknown directions,
    variants and moves."""
    tr = trace_components(d)
    ids = range(len(tr.components) + 2)
    calls = []
    for g, count in enumerate(tr.counts):
        for s in range(1, count + 2):
            below = tr.comp(g, s) if s <= count else 0
            above = tr.comp(g, s + 1) if s < count else 0
            for e1 in (g, g + 1, g + 5):
                site = site_at(g, s, e1=e1)
                calls += [
                    (clasp, d, site, "clasp"),
                    (clasp, d, site, "unclasp"),
                    (crossing_change, d, site),
                    (_birth, d, site),
                ]
                calls += [(stabilize, d, c, site, "stabilize") for c in ids]
                calls += [(stabilize, d, c, site, "destabilize") for c in ids]
                calls += [(uplus, d, c, above, site) for c in ids]
                calls += [(uplus, d, below, c, site) for c in ids if c != above]
                for move, variant in _R_KEYS:
                    for direction in ("forward", "reverse"):
                        calls.append((reidemeister, d, move, site, variant, direction))
    site = site_at(0, 1)
    calls += [
        (clasp, d, site, "twist"),
        (stabilize, d, 1, site, "twist"),
        (crossing_change, d, site, "twist"),
        (reidemeister, d, "R1", site, 1, "sideways"),
        (reidemeister, d, "R1", site, 3),
        (reidemeister, d, "clasp", site, 1),
        (reidemeister, d, "uplus", site, 2, "reverse"),
    ]
    return calls


_NEITHER = (
    "MoveError",
    "crossing change site matches neither a crossing nor the changed-crossing"
    " template",
)


def _declared(call, got, want):
    """Whether ``got`` differs from the oracle's ``want`` by one of the two
    declared site rules; the name of the rule, or None."""
    fn, d, *args = call
    if fn is reidemeister:
        move, site, _variant, direction = args
        if move == "R1" and direction == "forward" and site.e1 != site.e0:
            assert got == ("MoveError", "R1 site is an insertion point"), call
            return "R1 refuses a non-insertion site"
    if fn is crossing_change and len(args) == 1:
        site = args[0]
        at = site_at(site.e0, site.s0)
        if want == _NEITHER and site.e1 not in (site.e0, site.e0 + 1):
            if d.events[site.e0 : site.e0 + 1] == (Event("X", site.s0),):
                assert got == crossing_change(d, at), call
                return "crossing change ignores e1"
    return None


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_template_moves_match_the_parent_moves():
    """Equal results (events, decorations, ``old_to_new`` and ``fresh``) or
    identical refusals, except where one of the two declared site rules
    applies."""
    hits = Counter()
    for d in CORPUS:
        for call in _calls(d):
            fn, *args = call
            got, want = _outcome(fn, *args), _outcome(ORACLES[fn], *args)
            if got == want:
                ok = not isinstance(got, tuple)
                hits[(fn.__name__, "result" if ok else "refusal")] += 1
                continue
            rule = _declared(call, got, want)
            assert rule is not None, (call, got, want)
            hits[rule] += 1
    for fn in ORACLES:
        assert hits[(fn.__name__, "result")] >= 20, (fn.__name__, hits)
        assert hits[(fn.__name__, "refusal")] >= 20, (fn.__name__, hits)
    assert hits["R1 refuses a non-insertion site"] > 100, hits
    assert hits["crossing change ignores e1"] > 10, hits


def _front(word, spin=0):
    return parse_front(f"diagram t\nspin {spin}\nleft 0\nevents\n  {word}\nend\n")


def test_r1_forward_site_is_an_insertion_point(tmp_path, capsys):
    """R1 forward refuses e1 != e0, as clasp, stabilize, birth and uplus
    do; the parent inserted the kink at e0 and ignored e1."""
    u = unknot()
    wide = site_at(1, 1, e1=2)
    assert _outcome(reidemeister, u, "R1", wide) == (
        "MoveError",
        "R1 site is an insertion point",
    )
    assert _oracle_reidemeister(u, "R1", wide) == reidemeister(u, "R1", site_at(1, 1))
    src = tmp_path / "u.front"
    src.write_text("diagram u\nspin 0\nleft 0\nevents\n L1\n R1\nend\n")
    argv = ["apply", str(src), "--move", "r1", "-o", "-"]
    assert main(argv + ["--site", "1..2/1..1"]) == 2
    assert "R1 site is an insertion point" in capsys.readouterr().err
    assert main(argv + ["--site", "1..1/1..1"]) == 0


def test_crossing_change_reads_the_crossing_at_e0(tmp_path, capsys):
    """A crossing at e0 is changed whatever e1 is; the parent refused
    e1 outside (e0, e0 + 1) as matching neither template."""
    d = _front("L1 L1 X1 X1 R1 R1")
    wide = site_at(2, 1, e1=7)
    assert crossing_change(d, wide) == crossing_change(d, site_at(2, 1))
    assert _outcome(_oracle_crossing_change, d, wide) == _NEITHER
    src = tmp_path / "t.front"
    src.write_text("diagram t\nspin 0\nleft 0\nevents\n  L1 L1 X1 X1 R1 R1\nend\n")
    assert main(["apply", str(src), "--move", "crossing_change", "--site", "2..7/1..1"]) == 0
    assert "L3" in capsys.readouterr().out


def test_reductions_are_the_six_r1_r2_long_sides():
    """Each R1 and R2 long side is its own reduction: no table entry
    shadows another's."""
    keys = [key for key in TEMPLATES if key[0] in ("R1", "R2")]
    assert len(keys) == len(_REDUCTIONS) == 6
    assert sorted(key for key, _offset in _REDUCTIONS.values()) == sorted(keys)
    for key in keys:
        short, long_ = _blocks(key, 2)
        assert moves._reduction_at(long_, 0) == short, key


def _parse_block(text, s):
    return tuple(
        Event(kind, s + int(off or 0)) for kind, off in re.findall(r"([LRX]) s\+?(\d)?", text)
    )


def test_docstring_table_draws_every_template():
    rows = re.findall(
        r"^(\S+) (\d+)\s+\[([^\]]*)\]\s+\[([^\]]*)\]", moves.__doc__, re.MULTILINE
    )
    drawn = {(m, int(v)): (_parse_block(a, 1), _parse_block(b, 1)) for m, v, a, b in rows}
    assert len(drawn) == len(rows) == len(TEMPLATES)
    assert drawn == {key: _blocks(key, 1) for key in TEMPLATES}
