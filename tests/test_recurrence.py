import itertools
from fractions import Fraction

import pytest

from cfspectra.groups import Automorphism, FinAbGroup
from cfspectra.recurrence import (
    NoWitness,
    ReturnCuts,
    all_rung_pairs,
    ergodicity_sweep,
    geometric_weight,
    geometric_weight_total,
    label_transport_witness,
    multiple_recurrence_search,
    recurrence_holds_at,
    return_cuts,
    transport_density_audit,
    transport_witness,
    verify_witness,
)
from cfspectra.tower import Cylinder, EvenTag, StaggerTag, Tower, embed

from cut_scans import brute_force_witness_check


@pytest.fixture(scope="module")
def deep_tower():
    """Alternating tower over Z/6 with enough ratio-1 stagger levels for transports."""
    G = FinAbGroup((6,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    tags = [EvenTag(a), StaggerTag(a, 1)] * 12
    for tag in tags[:22]:  # steps 2..23, depth 24; 11 stagger levels
        t.extend(tag)
    return t


@pytest.fixture(scope="module")
def stagger_tower():
    """All-stagger tower: consecutive transports stay shallow enough to enumerate."""
    G = FinAbGroup((6,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for _ in range(3):  # steps 2..4, depth 5
        t.extend(StaggerTag(a, 1))
    return t


def test_return_cuts_densities(deep_tower):
    t = deep_tower
    for n in t.stagger_steps(k=1):
        rc = return_cuts(t, n)
        assert rc.certified
        assert rc.density_even >= Fraction(1, 3)
        assert rc.density_odd >= Fraction(1, 3)
        # sanity on the set definitions
        h = t.h(n)
        lvl = t.level(n + 1)
        cs = set(lvl.cuts)
        after_even, after_odd = lvl.class_cuts(rc.even), lvl.class_cuts(rc.odd)
        assert all(c + 2 * h in cs for c in after_even)
        assert all(c + 2 * h + 1 in cs for c in after_odd)
        assert len(after_even) + len(after_odd) <= 2 * lvl.r


def test_return_cuts_rejects_even_levels(deep_tower):
    with pytest.raises(ValueError):
        return_cuts(deep_tower, deep_tower.even_steps()[0])


def test_transport_witness_identity_pair(deep_tower):
    w = transport_witness(deep_tower, 2, (5,), (5,))
    assert w.shift == 0 and verify_witness(deep_tower, w)
    assert w.measure_ratios == (Fraction(1),)


def test_transport_witness_single_drop(deep_tower):
    t = deep_tower
    w = transport_witness(t, 2, (1,), (0,))
    assert verify_witness(t, w)
    assert w.measure_ratios[0] >= Fraction(1, 3)
    assert brute_force_witness_check(t, w)


def test_transport_witness_rise_uses_negative_shift(deep_tower, stagger_tower):
    w = transport_witness(deep_tower, 2, (0,), (3,))
    assert w.shift < 0 and w.flipped
    assert verify_witness(deep_tower, w)
    # enumerable on the all-stagger tower where a one-step rise stays shallow
    w2 = transport_witness(stagger_tower, 2, (0,), (1,))
    assert w2.shift < 0 and verify_witness(stagger_tower, w2)
    assert brute_force_witness_check(stagger_tower, w2)


def test_transport_witness_pairs_same_orientation(deep_tower, stagger_tower):
    w = transport_witness(deep_tower, 2, (3, 2), (1, 0))
    assert verify_witness(deep_tower, w)
    assert w.measure_ratios[0] >= Fraction(1, 9)
    assert w.measure_ratios[1] >= Fraction(1, 9)
    # brute-force re-verification where the two drops fit in consecutive levels
    w2 = transport_witness(stagger_tower, 2, (3, 2), (1, 0))
    assert verify_witness(stagger_tower, w2)
    assert brute_force_witness_check(stagger_tower, w2)


def test_transport_witness_mixed_orientation(deep_tower):
    t = deep_tower
    w = transport_witness(t, 2, (1, 0), (0, 2))
    assert w.slip != 0
    assert verify_witness(t, w)
    assert all(r > 0 for r in w.measure_ratios)


def test_slip_witnesses_match_brute_force(stagger_tower):
    """One slip witness per (top level, slip) on the all-stagger tower, re-verified by rung enumeration."""
    t = stagger_tower
    witnesses = {}
    for f, d, f2, d2 in itertools.product((0, 1, 2, 5, 8, 11), repeat=4):
        if (f - f2) * (d - d2) >= 0:
            continue
        try:
            w = transport_witness(t, 2, (f, d), (f2, d2))
        except NoWitness:
            continue
        if w.top_level <= 4:   # level 5 blocks are too many rungs to enumerate
            witnesses.setdefault((w.top_level, w.slip), w)
    assert {top for top, _ in witnesses} == {3, 4}
    for w in witnesses.values():
        assert w.plan == ({w.slip_level: w.shift - (w.target[0] - w.start[0])},
                          {w.slip_level: w.shift - (w.target[1] - w.start[1])})
        assert verify_witness(t, w) and brute_force_witness_check(t, w)


def test_layered_plans_step_by_2h_or_2h_plus_one(deep_tower):
    """Coordinate i takes exactly drops[i] odd steps 2h + 1; its other steps are 2h."""
    t = deep_tower
    singles = ergodicity_sweep(t, 1, 2, all_rung_pairs(t, 2, 1))
    pairs = ergodicity_sweep(t, 2, 2, [((f, d), (f2, d2)) for f, d, f2, d2 in itertools.product((0, 1, 7), repeat=4)
                                       if (f - f2) * (d - d2) >= 0])
    for w in singles + pairs:
        levels = sorted(w.plan[0])
        assert w.shift == (-1 if w.flipped else 1) * sum(2 * t.h(lvl - 1) for lvl in levels)
        for i, entry in enumerate(w.plan):
            assert sorted(entry) == levels
            odd = [lvl for lvl, s in entry.items() if s == 2 * t.h(lvl - 1) + 1]
            assert all(entry[lvl] == 2 * t.h(lvl - 1) for lvl in levels if lvl not in odd)
            assert len(odd) == abs(w.start[i] - w.target[i])


def test_witness_depth_requirement_reported():
    G = FinAbGroup((6,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for tag in [EvenTag(a), StaggerTag(a, 1), EvenTag(a)]:
        t.extend(tag)
    with pytest.raises(NoWitness) as err:
        transport_witness(t, 2, (11,), (0,))
    assert err.value.required_depth == 11


def test_sweep_all_single_pairs_at_level_two(deep_tower):
    t = deep_tower
    pairs = all_rung_pairs(t, 2, 1)
    assert len(pairs) == 144
    witnesses = ergodicity_sweep(t, 1, 2, pairs)
    assert len(witnesses) == len(pairs)
    # independent brute-force re-verification on the shallow ones
    checked = 0
    for w in witnesses:
        if w.top_level <= 4 and abs(w.shift) > 0:
            assert brute_force_witness_check(t, w)
            checked += 1
    assert checked > 0


def test_sweep_pair_tuples_spot(deep_tower):
    t = deep_tower
    tuples = [((f, d), (f2, d2))
              for f, d, f2, d2 in itertools.product((0, 1, 7), repeat=2 * 2)]
    witnesses = ergodicity_sweep(t, 2, 2, tuples)
    assert len(witnesses) == len(tuples)


def test_geometric_weight_sums_below_half():
    for p in (1, 2):
        assert geometric_weight_total(p) < Fraction(1, 2)
    delta = geometric_weight(2)
    assert delta((0, 0)) == Fraction(1, 8)
    assert delta((1, -2)) == Fraction(1, 8) / 64


def test_transport_density_audit_refuses_the_default_weight_past_p_two(deep_tower):
    """(5/3)^3 / 8 = 125/216 is not below 1/2, so the default weight is not summable enough at p = 3."""
    assert geometric_weight_total(3) == Fraction(125, 216)
    with pytest.raises(ValueError, match="below 1/2"):
        transport_density_audit(deep_tower, 3, 2, [])


def test_transport_density_audit(deep_tower):
    t = deep_tower
    tuples = [((f,), (g,)) for f in range(4) for g in range(4)]
    res = transport_density_audit(t, 1, 2, tuples)
    assert all(ok for *_, ok in res)
    pair_tuples = [((f, d), (f2, d2))
                   for f, d, f2, d2 in itertools.product((0, 1, 2), repeat=4)]
    res2 = transport_density_audit(t, 2, 2, pair_tuples)
    assert all(ok for *_, ok in res2)


def test_label_transport_witness(deep_tower):
    t = deep_tower
    a = t.group.element((1,))
    for p in (1, 2):
        rep = label_transport_witness(t, p, 2, (0,) * p, a)
        assert rep.ratio_ok and rep.label_ok
        assert rep.ratio > Fraction(1, 2 * 2)  # period of 1 under negation on Z/6 is 2
        assert rep.samples_checked > 0


def test_label_transport_witness_zero_element(deep_tower):
    t = deep_tower
    zero = t.group.identity()
    with pytest.raises(NoWitness):
        label_transport_witness(t, 1, 2, (0,), zero)


def test_multiple_recurrence_search(deep_tower):
    t = deep_tower
    A = Cylinder(1, (0,))
    found = multiple_recurrence_search(t, A, 2, 2 * t.h(3), 4)
    assert found is not None
    k, mass = found
    assert mass > 0
    assert recurrence_holds_at(t, A, 2, k, 4)
    # monotone in depth
    assert recurrence_holds_at(t, A, 2, k, 5)


def test_multiple_recurrence_single_deep_rung_misses(deep_tower):
    t = deep_tower
    A = Cylinder(4, (t.h(4) - 1,))
    assert multiple_recurrence_search(t, A, 1, 1, 4) is None


def test_recurrence_monotone_smallest_k(deep_tower):
    t = deep_tower
    A = Cylinder(1, (0, 1))
    found = multiple_recurrence_search(t, A, 1, 50, 3)
    if found:
        k, _ = found
        for N in (4, 5):
            assert recurrence_holds_at(t, A, 1, k, N)


def test_recurrence_past_the_depth_is_refused(deep_tower):
    t = deep_tower
    A = Cylinder(1, (0,))
    for N in (t.depth + 1, -1):
        with pytest.raises(ValueError, match="outside"):
            recurrence_holds_at(t, A, 1, 1, N)
        with pytest.raises(ValueError, match="outside"):
            multiple_recurrence_search(t, A, 1, 1, N)


def test_recurrence_holds_exactly_from_the_search_hit(deep_tower):
    """The k-step check fails below the search's least k and holds at it; its mass is a set recount."""
    t = deep_tower
    for A, p, k_max, N in [(Cylinder(1, (0,)), 2, 2 * t.h(3), 4), (Cylinder(1, (0, 1)), 1, 50, 3),
                           (Cylinder(4, (t.h(4) - 1,)), 1, 1, 4)]:
        found = multiple_recurrence_search(t, A, p, k_max, N)
        least = found[0] if found else k_max + 1
        ks = range(1, min(least, k_max) + 1)
        assert [recurrence_holds_at(t, A, p, k, N) for k in ks] == [k == least for k in ks]
        if found:
            rungs = set(embed(t, A, N).rungs)
            hits = rungs.intersection(*({f - j * least for f in rungs} for j in range(1, p + 1)))
            assert found[1] == Fraction(len(hits), t.cut_product(N)) > 0
