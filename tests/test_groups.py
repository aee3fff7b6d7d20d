import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfspectra import groups
from cfspectra.cyclotomic import Cyclo, zeta
from cfspectra.groups import (
    Automorphism,
    CatalogRecord,
    Character,
    Element,
    FinAbGroup,
    LimitExceeded,
    SameOrbit,
    Subgroup,
    abelian_group_types,
    all_characters,
    all_subgroups,
    annihilator,
    automorphisms,
    catalog_search,
    character_orbit_average,
    dual_automorphism,
    format_triple,
    least_period,
    multiplicity_set,
    multiplicity_set_naive,
    orbit,
    parse_triple,
    separation_witness,
)
from cfspectra.tower import Tower


def orbit_count_in_subgroup(v: Automorphism, h: Element, H: Subgroup) -> int:
    """Number of points of the v-orbit of h lying in H.  Requires h in H."""
    if h not in H:
        raise ValueError("element is not in the subgroup")
    return sum(1 for x in orbit(v, h) if x in H)


def z(n):
    return FinAbGroup((n,))


def neg(G):
    return Automorphism(G, [[-1 if i == j else 0 for j in range(G.rank)] for i in range(G.rank)])


def composed_with(chi, v):
    """chi o v, found by brute force over the dual group."""
    G = chi.group
    return next(xi for xi in all_characters(G)
                if all(xi.exponent(g) == chi.exponent(v(g)) for g in G.elements()))


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup((2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        FinAbGroup((1,))
    G = FinAbGroup((2, 6))
    assert G.order == 12 and G.exponent == 6
    assert len(list(G.elements())) == 12


def test_element_arithmetic():
    G = FinAbGroup((2, 4))
    a = G.element((1, 3))
    b = G.element((1, 2))
    assert (a + b).coords == (0, 1)
    assert (-a).coords == (1, 1)
    assert (a - a).is_identity()
    assert a.additive_order() == 4


def test_element_index_round_trip():
    G = FinAbGroup((2, 6))
    for g in G.elements():
        assert G.element_from_index(G.element_index(g)) == g


def test_orbit_examples():
    # identity automorphism: singleton orbits
    G = z(5)
    assert orbit(Automorphism.identity(G), G.element((1,))) == [G.element((1,))]
    # doubling on Z/5 starting at 1: 1,2,4,3
    v = Automorphism(G, [[2]])
    assert [e.coords[0] for e in orbit(v, G.element((1,)))] == [1, 2, 4, 3]
    # automorphisms fix the identity
    assert orbit(v, G.identity()) == [G.identity()]


def test_orbit_count_examples():
    G = z(5)
    v = Automorphism(G, [[2]])
    H = Subgroup(G, [G.element((1,))])
    assert orbit_count_in_subgroup(Automorphism.identity(G), G.element((1,)), H) == 1
    assert orbit_count_in_subgroup(v, G.element((1,)), H) == 4
    G2 = FinAbGroup((6,))
    v2 = neg(G2)
    H2 = Subgroup(G2, [G2.element((1,))])
    # orbit of 2 under negation mod 6 is {2, 4}
    assert orbit_count_in_subgroup(v2, G2.element((2,)), H2) == 2
    with pytest.raises(ValueError):
        orbit_count_in_subgroup(v, G.element((1,)), Subgroup(G, []))


def test_multiplicity_set_examples():
    G = z(2)
    H = Subgroup(G, [G.element((1,))])
    assert multiplicity_set(G, H, Automorphism.identity(G)) == {1}
    G5 = z(5)
    assert multiplicity_set(G5, Subgroup(G5, [G5.element((1,))]), Automorphism(G5, [[2]])) == {4}
    G6 = z(6)
    assert multiplicity_set(G6, Subgroup(G6, [G6.element((1,))]), neg(G6)) == {1, 2}
    assert multiplicity_set(G6, Subgroup(G6, []), neg(G6)) == frozenset()


@pytest.mark.parametrize("factors", [(2,), (4,), (6,), (2, 2), (8,), (3, 3), (2, 4)])
def test_multiplicity_set_matches_naive_recount(factors):
    G = FinAbGroup(factors)
    for v in automorphisms(G):
        for H in all_subgroups(G):
            assert multiplicity_set(G, H, v) == multiplicity_set_naive(G, H, v)


def test_orbit_divisibility_invariant():
    G = FinAbGroup((2, 4))
    for v in automorphisms(G):
        H = Subgroup(G, list(G.elements()))
        for h in G.elements():
            if h.is_identity():
                continue
            cnt = orbit_count_in_subgroup(v, h, H)
            assert len(orbit(v, h)) % cnt == 0
            assert cnt <= G.order


def test_character_pairing_laws():
    G = FinAbGroup((2, 6))
    for chi in all_characters(G):
        gs = list(G.elements())
        for g in gs[:4]:
            for h in gs[:4]:
                assert chi.exponent(g + h) == (chi.exponent(g) + chi.exponent(h)) % chi.root_order
        assert chi.value(G.identity()) == 1


def test_dual_automorphism_compatibility():
    for factors in [(6,), (2, 4), (3, 3), (2, 6)]:
        G = FinAbGroup(factors)
        for v in list(automorphisms(G))[:8]:
            vhat = dual_automorphism(v)
            for chi in all_characters(G):
                for g in G.elements():
                    lhs = chi.exponent(v(g))
                    rhs = Character(G, vhat(Element(G, chi.coords)).coords).exponent(g)
                    assert lhs == rhs


def test_orbit_average_examples():
    K = z(3)
    v = neg(K)
    trivial = Character(K, (0,))
    chi = Character(K, (1,))
    b = K.element((1,))
    # trivial character averages to 1 for every b
    assert character_orbit_average(trivial, b, v) == 1
    # b = 0 averages to 1 for every character
    assert character_orbit_average(chi, K.identity(), v) == 1
    # (omega + omega^2)/2 = -1/2
    assert character_orbit_average(chi, b, v) == Cyclo.from_fraction(Fraction(-1, 2))


def test_orbit_average_invariances():
    K = FinAbGroup((6,))
    v = neg(K)
    for chi in all_characters(K):
        for b in K.elements():
            val = character_orbit_average(chi, b, v)
            # invariant under replacing b by v(b)
            assert character_orbit_average(chi, v(b), v) == val
            # averaging over any multiple of the least period gives the same value
            p = least_period(v, b)
            total = Cyclo.zero(chi.root_order)
            x = b
            for _ in range(2 * p):
                total = total + chi.value(x)
                x = v(x)
            assert total / (2 * p) == val


def test_separation_witness():
    K = z(3)
    # v = id: every character is its own dual orbit
    vid = Automorphism.identity(K)
    chi = Character(K, (1,))
    trivial = Character(K, (0,))
    res = separation_witness(chi, trivial, vid)
    assert res.found and res.witness == K.element((1,))
    assert res.value_a == zeta(3) and res.value_b == 1
    # same orbit is reported as such, not as NotFound
    v = neg(K)
    xi = composed_with(chi, v)
    with pytest.raises(SameOrbit):
        separation_witness(chi, xi, v)


def test_separation_witness_exhaustive_small_groups():
    from cfspectra.groups import same_dual_orbit

    for factors in [(3,), (4,), (5,), (6,), (2, 4)]:
        K = FinAbGroup(factors)
        for v in list(automorphisms(K))[:6]:
            chars = list(all_characters(K))
            for i, chi in enumerate(chars):
                for xi in chars[i + 1:]:
                    if same_dual_orbit(chi, xi, v):
                        continue
                    assert separation_witness(chi, xi, v).found


def test_annihilator():
    K = z(4)
    full = Subgroup(K, [K.element((1,))])
    assert [c.coords for c in annihilator(K, full)] == [(0,)]
    trivial = Subgroup(K, [])
    assert len(annihilator(K, trivial)) == 4
    half = Subgroup(K, [K.element((2,))])
    ann = annihilator(K, half)
    assert len(ann) == 2
    assert all(chi.exponent(K.element((2,))) == 0 for chi in ann)


def test_annihilator_closed_under_dual_when_subgroup_stable():
    K = FinAbGroup((2, 4))
    for v in automorphisms(K):
        for H in all_subgroups(K):
            if not all(v(h) in H.members for h in H.members):   # H is not v-stable
                continue
            ann = {c.coords for c in annihilator(K, H)}
            for chi in annihilator(K, H):
                assert composed_with(chi, v).coords in ann


@given(st.sampled_from([(2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3)]))
def test_annihilator_counts(factors):
    K = FinAbGroup(factors)
    for H in all_subgroups(K):
        ann = annihilator(K, H)
        assert len(ann) == K.order // H.order
        # closed under products: it is a subgroup of the dual
        coords = {c.coords for c in ann}
        for c1 in ann:
            for c2 in ann:
                assert (c1 * c2).coords in coords


def test_abelian_group_types():
    assert abelian_group_types(1) == ((),)
    assert abelian_group_types(4) == ((2, 2), (4,))
    assert abelian_group_types(8) == ((2, 2, 2), (2, 4), (8,))
    assert abelian_group_types(12) == ((2, 6), (12,))


def test_all_subgroups_counts():
    # Z/4 has 3 subgroups; Z/2 x Z/2 has 5; Z/2 x Z/4 has 8
    assert len(all_subgroups(FinAbGroup((4,)))) == 3
    assert len(all_subgroups(FinAbGroup((2, 2)))) == 5
    assert len(all_subgroups(FinAbGroup((2, 4)))) == 8


def _cyclic_closure(members, g):
    new = set()
    for m in list(members):
        x = m
        while True:
            x = x + g
            if x in members or x in new:
                break
            new.add(x)
    return new


def _element_closure(group, generators):
    """The members of the subgroup generated by ``generators``, closed by Element addition."""
    members = {group.identity()}
    frontier = list(generators)
    while frontier:
        g = frontier.pop()
        if g in members:
            continue
        members.update(_cyclic_closure(members, g))
    return frozenset(members)


def reference_all_subgroups(group):
    """(generators, members) of every subgroup, by breadth-first Element closure, in all_subgroups order."""
    seen = {frozenset([group.identity()])}
    subs = [((), frozenset([group.identity()]))]
    frontier = [subs[0]]
    while frontier:
        gens, members = frontier.pop()
        for g in group.elements():
            if g in members:
                continue
            closed = _element_closure(group, gens + (g,))
            if closed not in seen:
                seen.add(closed)
                subs.append((gens + (g,), closed))
                frontier.append(subs[-1])
    subs.sort(key=lambda s: (len(s[1]), sorted(e.coords for e in s[1])))
    return subs


@pytest.mark.parametrize("order", range(1, 25))
def test_all_subgroups_match_the_element_closure_reference(order):
    for factors in abelian_group_types(order):
        G = FinAbGroup(factors)
        got = [(H.generators, H.members, H.order) for H in all_subgroups(G)]
        assert got == [(gens, members, len(members)) for gens, members in reference_all_subgroups(G)], factors
        for H in all_subgroups(G):
            assert H.mask == sum(1 << G.element_index(h) for h in H.members)
            assert H.elements_sorted() == sorted(H.members, key=lambda e: e.coords)
            assert all((g in H) == (g in H.members) for g in G.elements())


def test_subgroup_refuses_a_generator_of_another_group():
    G = z(4)
    with pytest.raises(ValueError, match="^elements of different groups$"):
        Subgroup(G, [z(2).element((1,))])
    with pytest.raises(ValueError, match="^elements of different groups$"):
        Subgroup(G, [G.element((1,)), z(8).identity()])
    H = Subgroup(G, [G.element((2,))])
    assert z(2).element((0,)) not in H and G.element((0,)) in H


def test_automorphism_counts():
    assert len(list(automorphisms(FinAbGroup((5,))))) == 4
    assert len(list(automorphisms(FinAbGroup((2, 2))))) == 6  # GL(2, 2)
    assert len(list(automorphisms(FinAbGroup((3, 3))))) == 48  # GL(2, 3)
    assert len(list(automorphisms(FinAbGroup((2, 4))))) == 8


def _element_walk(v, g):
    """g, v(g), v(v(g)), ... up to the first return to g, by Element arithmetic."""
    out = [g]
    while v(out[-1]) != g:
        out.append(v(out[-1]))
    return out


@pytest.mark.parametrize("factors", [f for n in range(1, 13) for f in abelian_group_types(n)],
                         ids=lambda f: "x".join(map(str, f)) or "trivial")
def test_automorphisms_match_element_oracle(factors):
    G = FinAbGroup(factors)
    els = list(G.elements())
    # the candidate matrices in enumeration order, kept when v is injective on Elements
    images = [sorted((g for g in els if g.additive_order() == d), key=lambda e: e.coords) for d in factors]
    expected = []
    for cols in itertools.product(*images):
        matrix = [[cols[j].coords[i] for j in range(G.rank)] for i in range(G.rank)]
        if all(matrix[i][j] * factors[j] % factors[i] == 0 for i in range(G.rank) for j in range(G.rank)):
            v = Automorphism(G, matrix, check=False)
            if len({v(g).coords for g in els}) == G.order:
                expected.append(v.matrix)
    auts = list(automorphisms(G))
    assert [v.matrix for v in auts] == expected
    for v in auts:
        assert list(v.perm) == [G.element_index(v(g)) for g in els]
        tower = Tower(G, v)
        order = 1
        for g in els:
            walk = _element_walk(v, g)
            assert orbit(v, g) == walk
            assert least_period(v, g) == len(walk)
            assert list(tower.v.orbits[G.element_index(g)]) == [G.element_index(x) for x in walk]
            order = math.lcm(order, len(walk))
        assert len(tower.v_pow) == order
        x = els
        for table in tower.v_pow:
            assert list(table) == [G.element_index(y) for y in x]
            x = [v(y) for y in x]


@pytest.mark.parametrize("factors,matrix", [((4,), [[2]]), ((2, 2), [[1, 1], [1, 1]]), ((2, 4), [[1, 0], [0, 2]])])
def test_non_bijective_matrix_is_rejected(factors, matrix):
    G = FinAbGroup(factors)
    triple = f"group = {list(factors)}\nsubgroup_gens = []\naut = {matrix}"
    with pytest.raises(ValueError, match="^matrix does not define a bijection$"):
        Automorphism(G, matrix)
    with pytest.raises(ValueError, match="^matrix does not define a bijection$"):
        parse_triple(triple)
    assert all(v.matrix != tuple(map(tuple, matrix)) for v in automorphisms(G))


def test_checked_automorphism_of_a_large_group_builds_no_addition_table():
    before = groups.addition_table.cache_info().misses
    v = Automorphism(FinAbGroup((3000,)), [[7]])   # a table would hold 9M entries
    assert groups.addition_table.cache_info().misses == before
    assert v.perm[:4] == (0, 7, 14, 21) and least_period(v, v.group.element((1,))) == 20


@pytest.mark.parametrize("gens", ["[[1, 7]]", "[[1], [2, 0]]"])
def test_triple_generator_with_extra_coordinates_is_refused(gens):
    with pytest.raises(ValueError, match="^coordinate count does not match rank$"):
        parse_triple(f"group = [3]\nsubgroup_gens = {gens}\naut = [[2]]")
    with pytest.raises(ValueError, match="^coordinate count does not match rank$"):
        FinAbGroup(()).element((5,))


def test_triple_past_the_enumeration_limit_is_refused_before_any_closure():
    import time
    import tracemalloc

    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="^group too large for the bijectivity check$"):
            parse_triple("group = [1000, 1000]\nsubgroup_gens = [[1, 0], [0, 1]]\naut = [[1, 0], [0, 1]]")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000, peak   # a translation row of the 10^6 elements alone is 8 MB


def test_catalog_search_refuses_a_bound_below_two():
    for bound in (1, 0, -3):
        with pytest.raises(ValueError, match="order bound must be at least 2"):
            catalog_search({2}, bound)


def test_non_homomorphism_is_rejected_before_bijectivity():
    G = FinAbGroup((2, 4))
    with pytest.raises(ValueError, match="^matrix does not define a homomorphism$"):
        Automorphism(G, [[1, 0], [1, 1]])   # column 0, the image (1, 1) of the order-2 generator, has order 4
    with pytest.raises(ValueError, match="^matrix does not define a homomorphism$"):
        parse_triple("group = [2, 4]\nsubgroup_gens = []\naut = [[1, 0], [1, 1]]")


@pytest.mark.parametrize("missing", ["group", "subgroup_gens", "aut"])
def test_triple_with_a_missing_field_is_a_value_error(missing):
    fields = {"group": "[2, 4]", "subgroup_gens": "[[0, 1]]", "aut": "[[1, 0], [0, 3]]"}
    del fields[missing]
    with pytest.raises(ValueError, match=f"missing {missing}"):
        parse_triple("\n".join(f"{k} = {v}" for k, v in fields.items()))


@pytest.mark.parametrize(
    "target,max_order",
    [({1}, 2), ({2}, 3), ({4}, 5), ({1, 2}, 6), ({1, 4}, 10), ({2, 4}, 15)],
)
def test_catalog_search_finds_verified_triples(target, max_order):
    rec = catalog_search(target, bound=40)
    assert rec is not None and rec.verified
    assert rec.group.order <= max_order
    assert multiplicity_set(rec.group, rec.subgroup, rec.automorphism) == frozenset(target)


def test_catalog_search_not_found_within_tiny_bound():
    assert catalog_search({4}, bound=4) is None


def test_triple_serialization_round_trip():
    rec = catalog_search({1, 2}, bound=10)
    text = format_triple(rec.group, rec.subgroup, rec.automorphism)
    G, H, v = parse_triple(text)
    assert G == rec.group
    assert H.members == rec.subgroup.members
    assert v.matrix == rec.automorphism.matrix


def _element_loop_first_hits(G):
    """First (v, H) per multiplicity set, by the Element-based loop over automorphisms x subgroups."""
    first = {}
    subgroups = all_subgroups(G)
    for v in automorphisms(G):
        for H in subgroups:
            first.setdefault(multiplicity_set_naive(G, H, v), (v, H))
    return first


@pytest.mark.parametrize("order", range(2, 13))
def test_group_scan_first_hits_match_element_loop(order):
    for factors in abelian_group_types(order):
        expected = _element_loop_first_hits(FinAbGroup(factors))
        scan = groups._group_scan(factors)
        for E, (v, H) in expected.items():
            assert scan.find(E) == (v, H), (factors, sorted(E))
        assert scan.find(frozenset({order + 1})) is None and scan.exhausted
        assert scan.first == expected


def _catalog_texts(targets, bound):
    out = []
    for E in targets:
        rec = catalog_search(E, bound)
        if rec is None:
            out.append((sorted(E), None, None))
        else:
            verified = multiplicity_set_naive(rec.group, rec.subgroup, rec.automorphism) == E
            out.append((sorted(E), format_triple(rec.group, rec.subgroup, rec.automorphism), verified))
    return out


def test_catalog_answers_do_not_depend_on_query_order():
    targets = [frozenset(E) for E in ({2, 4}, {23}, {1}, {1, 2, 4}, {1, 5}, {4}, {3, 6}, {1, 2})]
    groups._group_scan.cache_clear()
    forward = _catalog_texts(targets, 15)
    groups._group_scan.cache_clear()
    backward = _catalog_texts(targets[::-1], 15)[::-1]
    assert forward == backward
    assert {verified for *_, verified in forward} == {None, True}   # misses and verified hits


class _Interrupted(Exception):
    pass


def test_interrupted_group_scan_resumes_without_gaps(monkeypatch):
    factors = (2, 2, 2)
    uninterrupted = groups._GroupScan(factors)
    assert uninterrupted.find(frozenset({99})) is None
    real_automorphisms, real_cycle_masks = groups.automorphisms, groups._cycle_masks
    calls = {"automorphisms": 0, "cycle_masks": 0}

    def automorphisms_failing_once(G):
        calls["automorphisms"] += 1
        for i, v in enumerate(real_automorphisms(G)):
            if calls["automorphisms"] == 1 and i == 40:
                raise _Interrupted
            yield v

    def cycle_masks_failing_once(perm):
        calls["cycle_masks"] += 1
        if calls["cycle_masks"] == 1:   # the identity, the first hit of {1}
            raise _Interrupted
        return real_cycle_masks(perm)

    monkeypatch.setattr(groups, "automorphisms", automorphisms_failing_once)
    monkeypatch.setattr(groups, "_cycle_masks", cycle_masks_failing_once)
    scan = groups._GroupScan(factors)
    for _ in range(2):
        with pytest.raises(_Interrupted):
            scan.find(frozenset({99}))
    assert scan.find(frozenset({99})) is None
    assert scan.first == uninterrupted.first
    assert scan._taken == uninterrupted._taken == 168


def test_catalog_guard_refuses_before_enumerating(monkeypatch):
    monkeypatch.setattr(groups, "_AUT_GUARD", 100)   # Z2^3 has 7^3 = 343 candidate matrices
    with pytest.raises(LimitExceeded, match="343"):
        catalog_search({23}, bound=8)
    assert catalog_search({1, 2}, bound=8).group.order == 4   # hits before order 8
    assert issubclass(LimitExceeded, RuntimeError)
