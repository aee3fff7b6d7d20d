import itertools
import random
import re
import time
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
    _LABEL_TABLE_GUARD,
    rung_label,
    rung_label_indices,
)
from cfspectra.experiment import ExperimentConfig, build_tower
from cfspectra.groups import Automorphism, Character, FinAbGroup, LimitExceeded, Subgroup
from cfspectra.koopman import LevelOperator, skew_decomposition_check
from cfspectra.tower import (
    Cylinder,
    Level,
    Point,
    Tag,
    Tower,
    apply_T,
    canonical_point,
)

from cut_scans import aligned_cuts, reference_rung_label


@pytest.fixture(scope="module")
def z3_tower():
    G = FinAbGroup((3,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for tag in [Tag(a, 0), Tag(a, 1), Tag(a, 0)]:
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
    return reference_rung_label(tower, r + m, N) - reference_rung_label(tower, r, N)


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
        assert t.group.element_from_index(arr[f]) == reference_rung_label(t, f, N)


def _depth5_tower(target):
    """The depth-5 tower ``build`` makes for ``target``, or for {2} with level 3 tampered as one copy of its
    cuts (reps == 1): "tampered" moves its last cut to h_3 - 1, so that the cut's stack leaves the level, and
    labels cut 0 with 1 and the moved cut with 2; "no cut 0" moves cut 0 to 5."""
    t, _, _ = build_tower(ExperimentConfig(E={2} if target in ("tampered", "no cut 0") else set(target), depth=5))
    lvl = t.level(3)
    if target == "tampered":
        cuts, labels = [*lvl.cuts[:-1], lvl.h - 1], [1, *lvl.cut_labels()[1:-1], 2]
    elif target == "no cut 0":
        cuts, labels = [5, *lvl.cuts[1:]], lvl.cut_labels()
    else:
        return t
    t.levels = (*t.levels[:2], Level(3, lvl.h, lvl.z, cuts, 1, labels, lvl.tag, t.elements, t.v_pow), *t.levels[3:])
    return t


@pytest.mark.parametrize("target", [(2,), (8,), (1, 2), "tampered", "no cut 0"],
                         ids=["2", "8", "1,2", "tampered", "no cut 0"])
def test_rung_label_matches_the_decomposition_reference_and_the_table(target):
    """``rung_label`` equals the decompose + ``Level.label_index`` reference and ``rung_label_indices`` at
    every depth N <= 5.

    The rungs compared are the 2,000 lowest, the 50 highest and 2,000 seeded ones: every rung where
    h_N <= 2,000 (h_5 is 21,247,488 on {2}).  The table is compared where h_N <= 100,000.  On the tampered
    tower a walk that stops at level 4 over the moved cut's stack must not go on down into it, and the
    levels under the stop add the label of cut 0, which is not the identity there.  Without a level-3 cut 0,
    ``rung_label`` raises for exactly the rungs whose walk stops at level 3 or above, where the reference
    has no cut-0 label to add, and the table refuses every N >= 3.  A table past ``_LABEL_TABLE_GUARD`` rungs
    (N = 5) is refused before any level is read, on every tower.
    """
    t = _depth5_tower(target)
    rng = random.Random(5)
    for N in range(t.depth + 1):
        h = t.h(N)
        refused = target in ("tampered", "no cut 0") and N >= 3
        if h > _LABEL_TABLE_GUARD:
            with pytest.raises(LimitExceeded, match=f"h_{N} = {h:,} rungs"):
                rung_label_indices(t, N)
        elif refused:   # the table refuses a stack that leaves its level, and a level without cut 0
            with pytest.raises(IndexError, match="leaves" if target == "tampered" else "level 3: no cut 0"):
                rung_label_indices(t, N)
        table = rung_label_indices(t, N) if h <= 100_000 and not refused else None
        for f in sorted({*range(min(h, 2_000)), *range(max(0, h - 50), h), *(rng.randrange(h) for _ in range(2_000))}):
            try:
                want = t.group.element_index(reference_rung_label(t, f, N))
            except KeyError:   # a level under the walk's stop has no cut 0
                with pytest.raises(IndexError, match="level 3: no cut 0"):
                    rung_label(t, f, N)
                continue
            got = rung_label(t, f, N)
            assert got == want, (N, f)
            assert table is None or got == table[f], (N, f)
        for f in (-1, h):
            with pytest.raises(ValueError, match="outside"):
                rung_label(t, f, N)


def test_rung_indexed_tables_past_the_guard_are_refused_before_they_are_built():
    """On the depth-6 {1,2} tower, h_5 = 21,247,488 rungs (a 183 MB table) is past the guard: the rung label
    table, the weighted level operator and the skew check that read it refuse at once, and the tower's cache
    holds no table."""
    t, _, _ = build_tower(ExperimentConfig(E={1, 2}, depth=6))
    assert t.h(4) <= _LABEL_TABLE_GUARD < t.h(5) == 21_247_488
    message = re.escape(f"rung label table at depth 5 would list h_5 = 21,247,488 rungs (guard {_LABEL_TABLE_GUARD:,})")
    chi = Character(t.group, (1,) * t.group.rank)
    for refuse in (lambda: rung_label_indices(t, 5), lambda: LevelOperator(t, chi, 1, 5),
                   lambda: skew_decomposition_check(t, Subgroup(t.group, []), 5, 1)):
        start = time.perf_counter()
        with pytest.raises(LimitExceeded, match=message):
            refuse()
        assert time.perf_counter() - start < 0.1
    assert not [key for key in t._cache if isinstance(key, tuple) and key[0] == "rung_label_indices"]


def test_rung_label_leaves_nothing_in_the_tower_cache(z3_tower):
    """Pointwise rung labels are recomputed, not kept one cache entry per rung."""
    t = z3_tower
    for f in range(0, t.h(3), 5):
        rung_label(t, f, 3)
    assert not [key for key in t._cache if isinstance(key, tuple) and key[0] == "rung_label"]


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
    assert cs.rep_indices == [0, 1, 2]      # g and g + 3 share a coset


@pytest.mark.parametrize("factors,gens", [
    ((6,), [(3,)]), ((6,), [(2,)]), ((2, 4), [(1, 2)]), ((3, 3), [(1, 1)]), ((2, 2), []), ((4,), [(1,)]),
])
def test_coset_representatives_are_least_indices(factors, gens):
    G = FinAbGroup(factors)
    H = Subgroup(G, [G.element(c) for c in gens])
    cs = CosetSpace(G, H)
    cosets = {frozenset(G.element_index(g + h) for h in H.members) for g in G.elements()}
    assert cs.rep_indices == sorted(min(c) for c in cosets)


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
    assert p.rung(t) + ts.z_prefix(N) >= t.h(N)
    assert ts.apply(p) is None


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
    checked = 0
    for p in random_points(t, t.depth, 400, seed=11):
        res = commutes_with_shift(ts, p)
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
