import dataclasses
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfspectra import pairings, recurrence
from cfspectra.groups import Automorphism, FinAbGroup, LimitExceeded
from cfspectra.recurrence import (
    NoWitness,
    ReturnCuts,
    _return_count,
    ergodicity_sweep,
    geometric_weight,
    geometric_weight_total,
    label_transport_witness,
    multiple_recurrence_search,
    recurrence_holds_at,
    return_cuts,
    transport_witness,
    verify_witness,
)
from cfspectra.tower import Cylinder, Tag, Tower, embed

from cut_scans import (brute_force_witness_check, k_step_hits_scan, one_copy_twin, recurrence_search_scan,
                       return_state_counts_scan, surviving_cuts)
from test_pairings import cylinders, small_towers


@pytest.fixture(scope="module")
def deep_tower():
    """Alternating tower over Z/6 with enough ratio-1 stagger levels for transports."""
    G = FinAbGroup((6,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    tags = [Tag(a, 0), Tag(a, 1)] * 12
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
        t.extend(Tag(a, 1))
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
        return_cuts(deep_tower, deep_tower.steps_tagged(lambda tag: tag.k == 0)[0])


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


def test_measure_ratios_are_products_of_per_cut_shares(deep_tower):
    """Each coordinate's ratio is the product, over its plan, of the share of cuts that return."""
    t = deep_tower
    share = {}

    def ratio(entry):
        out = Fraction(1)
        for lvl, step in entry.items():
            if (lvl, step) not in share:
                level = t.level(lvl)
                share[lvl, step] = Fraction(len(surviving_cuts(level, step)), level.r)
            out *= share[lvl, step]
        return out

    rungs = range(t.h(2))
    singles = [((f,), (g,)) for f, g in itertools.product(rungs, repeat=2)]
    pairs = [((f, d), (f2, d2)) for f, f2, d, d2 in itertools.product(rungs, repeat=4)]
    for start, target in singles + pairs[::41]:
        w = transport_witness(t, 2, start, target)
        assert w.measure_ratios == tuple(map(ratio, w.plan)), (start, target)


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
    singles = [w for w, *_ in ergodicity_sweep(t, 1, 2)]
    pairs = [transport_witness(t, 2, (f, d), (f2, d2)) for f, d, f2, d2 in itertools.product((0, 1, 7), repeat=4)
             if (f - f2) * (d - d2) >= 0]
    assert all(verify_witness(t, w) for w in pairs)
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
    for tag in [Tag(a, 0), Tag(a, 1), Tag(a, 0)]:
        t.extend(tag)
    with pytest.raises(NoWitness) as err:
        transport_witness(t, 2, (11,), (0,))
    assert err.value.required_depth == 11


def test_sweep_all_single_pairs_at_level_two(deep_tower):
    t = deep_tower
    witnesses = [w for w, *_ in ergodicity_sweep(t, 1, 2)]
    assert len(witnesses) == 144
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
    witnesses = [transport_witness(t, 2, start, target) for start, target in tuples]
    assert all(verify_witness(t, w) for w in witnesses)
    assert len(witnesses) == len(tuples)


def test_sweep_entries_are_the_ratio_product_and_the_weight_of_the_differences(deep_tower):
    """Every ordered pair of rung tuples in product order; a stride of the p = 2 entries is rechecked."""
    t = deep_tower
    rungs = range(t.h(2))
    for p, stride in ((1, 1), (2, 97)):
        entries = ergodicity_sweep(t, p, 2)
        assert [(w.start, w.target) for w, *_ in entries] == list(
            itertools.product(itertools.product(rungs, repeat=p), repeat=2))
        delta = geometric_weight(p)
        for w, ratio, bound in entries[::stride]:
            assert ratio == math.prod(w.measure_ratios)
            assert bound == delta(tuple(f - g for f, g in zip(w.start, w.target)))
            assert ratio > bound


def test_sweep_refuses_a_witness_that_fails_verification(deep_tower, monkeypatch):
    """A plan step moved off 2h / 2h + 1 breaks the shift bookkeeping; the sweep must raise, not weigh it."""

    def corrupted(tower, base_level, start, target):
        w = transport_witness(tower, base_level, start, target)
        return dataclasses.replace(w, plan=tuple({lvl: s + 2 for lvl, s in entry.items()} for entry in w.plan))

    monkeypatch.setattr(recurrence, "transport_witness", corrupted)
    with pytest.raises(AssertionError, match="structural verification"):
        ergodicity_sweep(deep_tower, 1, 2)


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
        ergodicity_sweep(deep_tower, 3, 2)
    with pytest.raises(ValueError, match="p in"):
        ergodicity_sweep(deep_tower, 0, 2)


def test_sweep_refuses_too_many_witnesses_before_building_one(deep_tower, monkeypatch):
    """p = 2 over base level 3 would build 384^4 witnesses: refused up front, after the checks on p."""
    monkeypatch.setattr(recurrence, "transport_witness", None)   # building any witness would fail
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match=f"{384**4:,} transport witnesses"):
        ergodicity_sweep(deep_tower, 2, 3)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="below 1/2"):   # 384^6 witnesses, but p is checked first
        ergodicity_sweep(deep_tower, 3, 3)


def test_transport_density_audit(deep_tower):
    t = deep_tower
    tuples = [((f,), (g,)) for f in range(4) for g in range(4)]
    pair_tuples = [((f, d), (f2, d2))
                   for f, d, f2, d2 in itertools.product((0, 1, 2), repeat=4)]
    for p, group in ((1, tuples), (2, pair_tuples)):
        delta = geometric_weight(p)
        for start, target in group:
            w = transport_witness(t, 2, start, target)
            assert verify_witness(t, w)
            assert math.prod(w.measure_ratios) > delta(tuple(f - g for f, g in zip(start, target)))


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


def test_late_hit_is_found_by_the_block_count(deep_tower):
    """A search that misses for 767 steps: each step is one count over the level-4 block."""
    t = deep_tower
    A = Cylinder(3, (t.h(3) - 1,))
    found = multiple_recurrence_search(t, A, 2, 800, 4)
    assert found == (768, Fraction(11, 2592)) == recurrence_search_scan(t, A, 2, 800, 4)


def test_cylinder_above_the_depth_or_out_of_range_is_refused(deep_tower):
    t = deep_tower
    for A, match in [(Cylinder(3, (0,)), "level 3 lies above depth 2"),
                     (Cylinder(1, (0, t.h(1))), "rungs outside"), (Cylinder(1, (-1,)), "rungs outside")]:
        with pytest.raises(ValueError, match=match):
            recurrence_holds_at(t, A, 1, 1, 2)
        with pytest.raises(ValueError, match=match):
            multiple_recurrence_search(t, A, 1, 1, 2)


@pytest.mark.parametrize("A, p, k, N", [(Cylinder(1, (0,)), 2, 3, 5), (Cylinder(2, (0, 5, 11)), 1, 780, 4),
                                        (Cylinder(1, (0, 1)), 2, 1152, 4)])
def test_state_guard_counts_the_tuples_a_per_cut_scan_keeps(deep_tower, monkeypatch, A, p, k, N):
    """The count keeps exactly the residual tuples within the partner window, level by level."""
    t = deep_tower
    most = max(return_state_counts_scan(t, A, p, k, N))
    monkeypatch.setattr(pairings, "_STATE_GUARD", most)
    recurrence_holds_at(t, A, p, k, N)
    monkeypatch.setattr(pairings, "_STATE_GUARD", most - 1)
    with pytest.raises(LimitExceeded, match=f"exceeded {most - 1} states"):
        recurrence_holds_at(t, A, p, k, N)


@st.composite
def recurrence_cases(draw):
    t = draw(small_towers())
    return t, draw(cylinders(t)), draw(st.sampled_from([1, 2])), draw(st.integers(1, 40)), draw(st.integers(-40, 40))


@settings(max_examples=200)
@given(recurrence_cases())
def test_recurrence_matches_the_rung_set_scan_at_every_depth(case):
    """The top-down count agrees with the embedded rung-set scan, on the block form and its one-copy twin."""
    t, A, p, k_max, k = case
    twin = one_copy_twin(t)
    for N in range(A.level, t.depth + 1):
        assert _return_count(t, A, p, k, N) == _return_count(twin, A, p, k, N) == k_step_hits_scan(t, A, p, k, N)
        bound = min(k_max, (t.h(N) - 1) // p)
        if bound >= 1:
            want = recurrence_search_scan(t, A, p, bound, N)
            assert multiple_recurrence_search(t, A, p, bound, N) == want
            assert recurrence_holds_at(t, A, p, bound, N) == (k_step_hits_scan(t, A, p, bound, N) > 0)
