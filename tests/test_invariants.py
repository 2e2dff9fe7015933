import random
from dataclasses import replace
from math import gcd

import pytest

from kirbyfront.diagram import (
    COEFF_MINUS,
    COEFF_PLUS,
    ComponentAttr,
    Event,
    FrontDiagram,
    default_attrs,
    parse_front,
    trace_components,
)
from kirbyfront.families import (
    cieliebak_diagram,
    mazur_diagram,
    stabilized_unknot,
    torus_knot_2q,
    trivial_bypass_pair,
    unknot,
)
from kirbyfront.invariants import (
    InvariantError,
    LinkingData,
    _classify,
    classical_invariants,
    crossing_data,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from kirbyfront.moves import MoveError, birth_cancel_pair, site_at
from kirbyfront.smith import smith_normal_form

from conftest import random_diagram


def test_unknot_invariants():
    d = unknot()
    inv = classical_invariants(d, 1)
    assert (inv.tb, inv.rot, inv.writhe) == (-1, 0, 0)
    assert inv.left_cusps == inv.right_cusps == 1
    assert inv.up_cusps + inv.down_cusps == 2


def test_stabilized_unknot_invariants():
    d = stabilized_unknot()
    inv = classical_invariants(d, 1)
    assert (inv.tb, inv.rot) == (-3, 0)


def test_torus_knot_tb():
    for q in (3, 5, 7):
        inv = classical_invariants(torus_knot_2q(q), 1)
        assert (inv.tb, inv.rot) == (q - 2, 0)


def test_rot_sign_flips_with_orientation():
    d = cieliebak_diagram(1, 1)
    inv = classical_invariants(d, 1)
    flipped = replace(
        d, attrs=(replace(d.attrs[0], orientation=-1),)
    )
    inv2 = classical_invariants(flipped, 1)
    assert inv2.rot == -inv.rot
    assert inv2.tb == inv.tb


def test_open_component_rejected():
    d = default_attrs(FrontDiagram(left_count=2, events=(Event("X", 1),)))
    with pytest.raises(InvariantError, match="open"):
        classical_invariants(d, 1)


def test_census_empty_diagram():
    census = handle_census(FrontDiagram())
    assert census.counts == {0: 1}
    assert census.euler == 1


def test_census_mazur():
    census = handle_census(mazur_diagram())
    assert census.counts == {0: 1, 1: 1, 2: 1}
    assert census.euler == 1


def test_census_cieliebak():
    census = handle_census(cieliebak_diagram(0, 1))
    assert census.counts == {0: 1, 2: 1}
    assert census.euler == 2


def test_census_trivial_bypass_pair():
    d, _nid, _np1 = trivial_bypass_pair()
    census = handle_census(d)
    assert census.euler == 1  # 1 + (-1)^2 + (-1)^3


def test_census_rejects_half_noded_plus():
    d = unknot(coefficient=COEFF_PLUS)
    d = replace(d, attrs=(replace(d.attrs[0], node_plus=True),))
    with pytest.raises(InvariantError, match="one node"):
        handle_census(d)


def test_linking_single_minus_unknot():
    lk = linking_matrix(unknot(coefficient=COEFF_MINUS))
    assert lk.matrix == ((-2,),)


def test_linking_cieliebak_k0_m1():
    lk = linking_matrix(cieliebak_diagram(0, 1))
    assert lk.matrix == ((-4,),)


def test_linking_split_unknots():
    d = FrontDiagram(
        events=(Event("L", 1), Event("R", 1), Event("L", 1), Event("R", 1)),
        attrs=(
            ComponentAttr(label="a", coefficient=COEFF_MINUS),
            ComponentAttr(label="b", coefficient=COEFF_MINUS),
        ),
    )
    lk = linking_matrix(d)
    assert lk.matrix == ((-2, 0), (0, -2))


def test_mazur_linking_and_passes():
    d = mazur_diagram()
    lk = linking_matrix(d)
    assert lk.matrix == ((-4,),)
    assert list(lk.over_ones.values()) == [3]


# ---------------------------------------------------------------------------
# Smith form and homology
# ---------------------------------------------------------------------------


def _minor_gcd_factors(m):
    """Independent oracle: invariant factors via determinantal divisors."""
    n = len(m)
    import itertools

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total = 0
        for j, c in enumerate(cols):
            sign = (-1) ** j
            sub = det(rows[1:], cols[:j] + cols[j + 1 :])
            total += sign * m[rows[0]][c] * sub
        return total

    d_prev = 1
    factors = []
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, abs(det(list(rows), list(cols))))
        if g == 0:
            factors.append(0)
            d_prev = 0
            continue
        factors.append(g // d_prev)
        d_prev = g
    return factors


def test_smith_against_minor_gcd_oracle():
    rng = random.Random(99)
    for _ in range(200):
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det == 0:
            continue
        got = smith_normal_form(m)
        want = _minor_gcd_factors(m)
        assert got == want
        # cokernel order equals |det|
        prod = 1
        for x in got:
            prod *= x
        assert prod == abs(det)


def test_homology_mazur_contractible():
    assert homology_presentation(mazur_diagram()) == []


def test_homology_minus_two_framed_unknot():
    assert homology_presentation(unknot(coefficient=COEFF_MINUS)) == [2]


def test_homology_empty():
    assert homology_presentation(FrontDiagram()) == []


# ---------------------------------------------------------------------------
# The two functions as they were before they shared one linking pass, kept
# as oracles for the shared pass.
# ---------------------------------------------------------------------------


def _oracle_linking_matrix(d):
    if d.spin != 0:
        raise InvariantError("linking data is defined for spin 0 only")
    if not d.attrs:
        d = default_attrs(d)
    tr = trace_components(d)
    minus = [
        c.cid for c in tr.components if d.attrs[c.cid - 1].coefficient == COEFF_MINUS
    ]
    plus_sub = [
        c.cid
        for c in tr.components
        if d.attrs[c.cid - 1].coefficient == COEFF_PLUS and _classify(d, c.cid) == "n-1"
    ]
    for cid in minus:
        if not tr.components[cid - 1].closed:
            raise InvariantError(f"-1 component {cid} is open")

    xs = crossing_data(d)
    lk = {}
    geo = {}
    for (_i, cf, cb, sign) in xs:
        if cf == cb:
            continue
        key = (min(cf, cb), max(cf, cb))
        lk[key] = lk.get(key, 0) + sign
        geo[key] = geo.get(key, 0) + 1

    size = len(minus)
    matrix = [[0] * size for _ in range(size)]
    for a in range(size):
        inv = classical_invariants(d, minus[a])
        matrix[a][a] = inv.tb - 1
        for b in range(a + 1, size):
            key = (min(minus[a], minus[b]), max(minus[a], minus[b]))
            val = lk.get(key, 0) // 2
            matrix[a][b] = matrix[b][a] = val
    over = {}
    for mc in minus:
        for pc in plus_sub:
            key = (min(mc, pc), max(mc, pc))
            over[(mc, pc)] = geo.get(key, 0) // 2
    return LinkingData(
        minus_ids=tuple(minus),
        matrix=tuple(tuple(row) for row in matrix),
        over_ones=over,
    )


def _oracle_homology_presentation(d):
    if d.spin != 0:
        raise InvariantError("homology data is defined for spin 0 only")
    if not d.attrs:
        d = default_attrs(d)
    tr = trace_components(d)
    minus = [
        c.cid for c in tr.components if d.attrs[c.cid - 1].coefficient == COEFF_MINUS
    ]
    plus_sub = [
        c.cid
        for c in tr.components
        if d.attrs[c.cid - 1].coefficient == COEFF_PLUS and _classify(d, c.cid) == "n-1"
    ]
    order = plus_sub + minus
    index = {cid: k for k, cid in enumerate(order)}
    size = len(order)
    if size == 0:
        return []

    xs = crossing_data(d)
    lk = {}
    for (_i, cf, cb, sign) in xs:
        if cf == cb:
            continue
        key = (min(cf, cb), max(cf, cb))
        lk[key] = lk.get(key, 0) + sign

    m = [[0] * size for _ in range(size)]
    for cid in minus:
        if not tr.components[cid - 1].closed:
            raise InvariantError(f"-1 component {cid} is open")
        inv = classical_invariants(d, cid)
        m[index[cid]][index[cid]] = inv.tb - 1
    for a in range(size):
        for b in range(a + 1, size):
            ca, cb_ = order[a], order[b]
            if ca in plus_sub and cb_ in plus_sub:
                continue
            key = (min(ca, cb_), max(ca, cb_))
            val = lk.get(key, 0) // 2
            m[a][b] = m[b][a] = val

    diag = smith_normal_form(m)
    factors = [x for x in diag if x > 1]
    factors += [0] * sum(1 for x in diag if x == 0)
    return factors


def _outcome(fn, d):
    try:
        return fn(d)
    except InvariantError as exc:
        return ("InvariantError", str(exc))


def _births(d):
    """Every diagram one birth away from d."""
    out = []
    counts = trace_components(d).counts
    for gap, count in enumerate(counts):
        for slot in range(1, count + 2):
            try:
                out.append(birth_cancel_pair(d, site_at(gap, slot), "birth").diagram)
            except MoveError:
                pass
    return out


def test_shared_linking_pass_matches_oracles():
    rng = random.Random(31337)
    corpus = [random_diagram(rng) for _ in range(200)]
    corpus += [cieliebak_diagram(k, m) for k in range(-2, 3) for m in range(1, 7)]
    tb_pair, _nid, np1 = trivial_bypass_pair()
    named = [mazur_diagram(), tb_pair]
    corpus += named + [b for d in named for b in _births(d)]
    # the error paths: a spun diagram, an open -1 component, a +1 unknot
    # with one node
    corpus.append(random_diagram(rng, spin=1))
    corpus.append(
        parse_front(
            "diagram o\nspin 0\nleft 2\nevents\n  L3 X2 R3\nend\n"
            "component a coeff -1\ncomponent b coeff -1\n"
        )
    )
    attrs = list(tb_pair.attrs)
    attrs[np1 - 1] = replace(attrs[np1 - 1], node_minus=False)
    corpus.append(replace(tb_pair, attrs=tuple(attrs)))

    errors = 0
    for d in corpus:
        got = _outcome(linking_matrix, d)
        assert got == _outcome(_oracle_linking_matrix, d), d
        assert _outcome(homology_presentation, d) == _outcome(
            _oracle_homology_presentation, d
        ), d
        errors += isinstance(got, tuple)
    assert len(corpus) > 260 and errors >= 3
