import bisect
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfspectra import koopman
from cfspectra.cocycle import check_coboundary_condition, rung_label
from cfspectra.cyclotomic import Cyclo, abs_upper
from cfspectra.groups import Automorphism, Character, FinAbGroup, all_characters
from cfspectra.pairings import LevelPairing, PairingEngine, count_ge, out_of_range_count
from cfspectra.recurrence import _nth, label_transport_witness, return_cuts
from cfspectra.tower import (Cylinder, EvenTag, StaggerTag, Tower, defect_fraction, embed, measure,
                             parse_tower, serialize_tower, validate_labels, validate_structure)

from cut_scans import (aligned_cut_scan, aligned_cuts, count_ge_scan, defect_scan, find_cut_scan, one_copy_twin,
                       reference_label_report, reference_structure_report, surviving_cuts)


@pytest.fixture(scope="module")
def z3_tower():
    G = FinAbGroup((3,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for tag in [EvenTag(a), StaggerTag(a, 1), EvenTag(a)]:
        t.extend(tag)
    return t


def characters(tower):
    return [Character(tower.group, (c,)) for c in range(3)]


def brute_histogram(tower, m, A, B, N):
    """Direct rung enumeration; only usable at shallow depth.

    Returns the label increments of the rungs of B that U^m carries into A,
    as a histogram, and the number of rungs it carries out of the stack.
    """
    EA = set(embed(tower, A, N).rungs)
    EB = embed(tower, B, N).rungs
    h = tower.h(N)
    increments = {}
    outside = 0
    for f in EB:
        g = f + m
        if not 0 <= g < h:
            outside += 1
            continue
        if g in EA:
            inc = rung_label(tower, g, N) - rung_label(tower, f, N)
            increments[inc] = increments.get(inc, 0) + 1
    return increments, outside


def brute_value(tower, chi, brute, N):
    """The pairing value and error bound of one character on a brute histogram."""
    increments, outside = brute
    counts = {}
    for inc, c in increments.items():
        e = chi.exponent(inc)
        counts[e] = counts.get(e, 0) + c
    value = Cyclo.from_exponent_counts(chi.root_order, counts) / tower.cut_product(N)
    return value, Fraction(outside, tower.cut_product(N))


def brute_pairing(tower, chi, m, A, B, N):
    return brute_value(tower, chi, brute_histogram(tower, m, A, B, N), N)


CYLS = [
    Cylinder(0, (0,)),
    Cylinder(1, (0,)),
    Cylinder(1, (2,)),
    Cylinder(2, (0,)),
    Cylinder(2, (5, 7)),
]


@pytest.mark.parametrize("depth", [3, 4])
def test_engine_matches_brute_force(z3_tower, depth):
    t = z3_tower
    shifts = [0, 1, -1, 7, -11, 2 * t.h(2), 2 * t.h(depth - 1), -2 * t.h(2)]
    engines = [(chi, PairingEngine(t, chi)) for chi in characters(t)]
    for A, B in itertools.product(CYLS, repeat=2):
        for m in shifts:
            brute = brute_histogram(t, m, A, B, depth)
            for chi, eng in engines:
                got = eng.pairing(m, A, B, depth)
                want_value, want_err = brute_value(t, chi, brute, depth)
                assert got.value == want_value, (chi, m, A, B)
                assert got.error_bound == want_err


def test_adjoint_step_drags_neighbour_rungs(z3_tower):
    """The one-step-back pairing carries [{1}] fully onto [{0}] at depth."""
    t = z3_tower
    chi0 = characters(t)[0]
    eng = PairingEngine(t, chi0)
    lower, upper = Cylinder(1, (0,)), Cylinder(1, (1,))
    p = eng.pairing(-1, lower, upper, t.depth)  # rungs of [{1}] stepping back into [{0}]
    assert p.value == Cyclo.from_fraction(measure(t, lower))
    assert p.error_bound == 0
    # and the forward step the other way round, with the adjoint symmetry
    q = eng.pairing(1, upper, lower, t.depth)
    assert q.value == p.value.conjugate()


def test_zero_shift_gives_overlap_measure(z3_tower):
    t = z3_tower
    chi = characters(t)[1]
    eng = PairingEngine(t, chi)
    for A in CYLS:
        p = eng.pairing(0, A, A, t.depth)
        assert p.error_bound == 0
        assert p.value == Cyclo.from_fraction(measure(t, A))
    # disjoint cylinders at equal level pair to zero
    p = eng.pairing(0, Cylinder(1, (0,)), Cylinder(1, (1,)), t.depth)
    assert p.value.is_zero()


def test_conjugate_symmetry(z3_tower):
    t = z3_tower
    for chi in characters(t):
        eng = PairingEngine(t, chi)
        for A, B in [(CYLS[1], CYLS[3]), (CYLS[3], CYLS[4]), (CYLS[0], CYLS[2])]:
            for m in (1, 5, 24, 2 * t.h(2)):
                ab = eng.pairing(m, A, B, t.depth)
                ba = eng.pairing(-m, B, A, t.depth)
                assert ab.value == ba.value.conjugate()


def test_deepening_consistency(z3_tower):
    t = z3_tower
    chi = characters(t)[1]
    eng = PairingEngine(t, chi)
    for A, B in [(CYLS[1], CYLS[1]), (CYLS[3], CYLS[4])]:
        for m in (1, 7, 2 * t.h(2)):
            prev = None
            for N in range(3, t.depth + 1):
                cur = eng.pairing(m, A, B, N)
                if prev is not None:
                    assert cur.error_bound <= prev.error_bound
                    gap = abs_upper(cur.value - prev.value, 64)
                    assert gap <= prev.error_bound + cur.error_bound
                prev = cur


def test_error_bound_vanishes_for_small_shift_at_depth(z3_tower):
    t = z3_tower
    eng = PairingEngine(t, characters(t)[0])
    p = eng.pairing(2 * t.h(2), CYLS[1], CYLS[1], t.depth)
    assert p.error_bound == 0  # the stack top absorbs the shift at deeper truncation


def test_mass_conservation_partition(z3_tower):
    t = z3_tower
    chi = characters(t)[0]  # trivial
    eng = PairingEngine(t, chi)
    n, N, m = 1, 4, 5
    full = Cylinder.full(t, n)
    total = Cyclo.zero(1)
    err_total = Fraction(0)
    for f in range(t.h(n)):
        p = eng.pairing(m, full, Cylinder.single(n, f), N)
        total = total + p.value
        err_total += p.error_bound
    want, werr = brute_pairing(t, chi, m, full, full, N)
    assert total == want
    assert err_total == werr


def test_count_ge_matches_enumeration(z3_tower):
    t = z3_tower
    base = (0, 5, 7)
    N = 4
    rungs = list(base)
    for j in range(3, N + 1):
        rungs = [f + c for f in rungs for c in t.level(j).cuts]
    rungs.sort()
    for threshold in [0, 1, 100, t.h(4) // 2, t.h(4) - 50, t.h(4), max(rungs), max(rungs) + 1]:
        want = sum(1 for f in rungs if f >= threshold)
        assert count_ge(t, base, 2, N, threshold) == want


def test_out_of_range_count_signs(z3_tower):
    t = z3_tower
    base = (0, 3)
    assert out_of_range_count(t, base, 2, 4, 0) == 0
    up = out_of_range_count(t, base, 2, 4, 10)
    down = out_of_range_count(t, base, 2, 4, -10)
    total = 2 * t.level(3).r * t.level(4).r
    brute_rungs = [f + c3 + c4 for f in base for c3 in t.level(3).cuts for c4 in t.level(4).cuts]
    assert up == sum(1 for f in brute_rungs if f + 10 >= t.h(4))
    assert down == sum(1 for f in brute_rungs if f - 10 < 0)
    assert up + down <= total


def test_shift_beyond_height_rejected(z3_tower):
    t = z3_tower
    eng = PairingEngine(t, characters(t)[0])
    with pytest.raises(ValueError):
        eng.pairing(t.h(3), CYLS[1], CYLS[1], 3)


# -- differential tests over random small towers ------------------------------

# each label group with the automorphisms the towers may use
SMALL_SYSTEMS = [
    ((2,), [[[1]]]),
    ((3,), [[[1]], [[2]]]),
    ((2, 2), [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [1, 1]]]),
    ((5,), [[[1]], [[2]], [[4]]]),
]


@st.composite
def small_towers(draw):
    """A depth 3-4 tower over Z2, Z3, Z2xZ2 or Z5 with random even and stagger steps."""
    factors, matrices = draw(st.sampled_from(SMALL_SYSTEMS))
    G = FinAbGroup(factors)
    t = Tower.seeded(G, Automorphism(G, draw(st.sampled_from(matrices))))
    elements = list(G.elements())
    for _ in range(draw(st.integers(1, 2))):
        el = draw(st.sampled_from(elements))
        t.extend(EvenTag(el) if draw(st.booleans()) else StaggerTag(el, 1))
    return t


@st.composite
def cylinders(draw, tower):
    level = draw(st.integers(0, 2))
    rungs = draw(st.lists(st.integers(0, tower.h(level) - 1), min_size=1, max_size=3))
    return Cylinder(level, tuple(rungs))


@st.composite
def pairing_cases(draw):
    t = draw(small_towers())
    N = t.depth
    steps = [s for n in range(1, N) for s in (2 * t.h(n), -2 * t.h(n))]
    shifts = draw(st.lists(st.one_of(st.integers(-40, 40), st.sampled_from(steps)),
                           min_size=1, max_size=3, unique=True))
    windows = []
    for _ in range(3):
        n = draw(st.integers(1, N))
        top = t.level(n).cuts[-1]
        lo = draw(st.integers(-top - 1, top + 1))
        windows.append((n, lo, lo + draw(st.integers(0, 2 * top + 2))))
    return t, draw(cylinders(t)), draw(cylinders(t)), shifts, windows


def brute_kernel(tower, n, lo, hi):
    """Cut-pair histogram of one level: {delta: {label-difference index: count}}."""
    lvl = tower.level(n)
    G = tower.group
    out = {}
    for c in lvl.cuts:
        for c2 in lvl.cuts:
            if lo <= c2 - c <= hi:
                slot = out.setdefault(c2 - c, {})
                g = G.element_index(lvl.label(c2) - lvl.label(c))
                slot[g] = slot.get(g, 0) + 1
    return dict(sorted(out.items()))


@settings(max_examples=30)   # depth-4 brute enumeration costs up to seconds per example
@given(pairing_cases())
def test_engine_matches_brute_force_on_random_towers(case):
    t, A, B, shifts, windows = case
    parsed = parse_tower(serialize_tower(t))
    for lvl, twin in zip(t.levels, parsed.levels):
        assert (twin.block, twin.reps, twin.block_labels) == (lvl.block, lvl.reps, lvl.block_labels)
    # every level as one copy of its cuts (reps == 1), the shape of a file that breaks its recipe
    single = one_copy_twin(t)
    trivial = Character(t.group, (0,) * t.group.rank)
    for n, lo, hi in windows:
        want = brute_kernel(t, n, lo, hi)
        # block copies on the in-memory tower and its parsed twin; one copy on the single twin
        for tower in (t, parsed, single):
            got = PairingEngine(tower, trivial).level_kernel(n, lo, hi)
            assert got == want and list(got) == list(want), (n, lo, hi)
    brutes = {m: brute_histogram(t, m, A, B, t.depth) for m in shifts}
    for chi in all_characters(t.group):
        eng = PairingEngine(t, chi)
        twin_engs = [PairingEngine(parsed, chi), PairingEngine(single, chi)]
        for m in shifts:
            got = eng.pairing(m, A, B, t.depth)
            want_value, want_err = brute_value(t, chi, brutes[m], t.depth)
            assert got.value == want_value, (chi, m, A, B)
            assert got.error_bound == want_err
            # the parsed twin repeats the in-memory blocks; the single twin has reps == 1
            for twin_eng in twin_engs:
                again = twin_eng.pairing(m, A, B, t.depth)
                assert again.value == got.value and again.error_bound == got.error_bound


@st.composite
def block_cases(draw):
    """A random small tower with probe positions, base rungs and thresholds for its cut queries."""
    t = draw(small_towers())
    top = t.h(t.depth)
    probes = draw(st.lists(st.integers(-3, top + 3), min_size=1, max_size=12))
    base = tuple(sorted(set(draw(st.lists(st.integers(0, t.h(2) - 1), min_size=1, max_size=3)))))
    thresholds = draw(st.lists(st.integers(-2, top + 2), min_size=1, max_size=4))
    return t, probes, base, thresholds


@given(block_cases())
def test_block_forms_match_cut_scans_on_random_towers(case):
    """Every block-form count equals its per-cut scan, on each level and on the level's reps == 1 twin."""
    t, probes, base, thresholds = case
    single = one_copy_twin(t)
    for tower in (t, single):
        assert validate_structure(tower).render() == reference_structure_report(tower).render()
        cob = check_coboundary_condition(tower)
        for n in range(1, tower.depth + 1):
            lvl = tower.level(n)
            cuts = lvl.cuts
            assert validate_labels(lvl, tower).render() == reference_label_report(lvl, tower).render()
            assert aligned_cuts(tower, n) == aligned_cut_scan(tower, n)
            assert cob.aligned_counts[n - 1] == len(aligned_cut_scan(tower, n))
            assert defect_fraction(tower, n) == defect_scan(tower, n)
            assert [lvl.cut(k) for k in range(-len(cuts), len(cuts))] == list(cuts + cuts)
            for x in probes + [c + d for c in cuts[:2] + cuts[-2:] for d in (-1, 0, 1)]:
                assert (x in lvl) == (x in set(cuts))
                assert lvl.rank(x) == bisect.bisect_left(cuts, x)
                assert tower.find_cut(n, x) == find_cut_scan(tower, n, x)
            for delta in (0, lvl.z, 2 * tower.h(n - 1), 2 * tower.h(n - 1) + 1, -lvl.z, 7):
                classes, want = lvl.shift_classes(delta), surviving_cuts(lvl, delta)
                assert lvl.class_cuts(classes) == list(want)
                stride = lvl.z * len(tower.v_pow) or 1   # a seed level's classes are single cuts
                for k in {0, len(want) // 2, len(want) - 1} if want else ():
                    assert _nth([(c, count) for c, count, *_ in classes], stride, k) == want[k]
            if isinstance(lvl.tag, StaggerTag) and lvl.tag.k == 1:
                rc, h = return_cuts(tower, n - 1), tower.h(n - 1)
                assert lvl.class_cuts(rc.even) == list(surviving_cuts(lvl, 2 * h))
                assert lvl.class_cuts(rc.odd) == list(surviving_cuts(lvl, 2 * h + 1))
                assert rc.density_even == Fraction(len(surviving_cuts(lvl, 2 * h)), len(cuts))
                assert rc.density_odd == Fraction(len(surviving_cuts(lvl, 2 * h + 1)), len(cuts))
        for f in probes:
            if 0 <= f < tower.h(tower.depth):
                n_min, f0, coords = tower.decompose(f, tower.depth)
                assert f0 + sum(coords.values()) == f and (n_min == 0 or find_cut_scan(tower, n_min, f0) is None)
                assert all(find_cut_scan(tower, j, f - sum(coords[i] for i in coords if i > j)) == c
                           for j, c in coords.items())
        for threshold in thresholds:
            assert count_ge(tower, base, 2, tower.depth, threshold) == count_ge_scan(tower, base, 2, tower.depth,
                                                                                   threshold)
    even = next((lvl for lvl in t.levels if isinstance(lvl.tag, EvenTag) and lvl.n > 3), None)
    if even is not None:
        a = even.tag.a
        assert label_transport_witness(t, 1, 2, (0,), a) == label_transport_witness(single, 1, 2, (0,), a)


def test_residual_grid_propagates_once_for_all_characters(z3_tower, monkeypatch):
    t = parse_tower(serialize_tower(z3_tower))   # a fresh tower: nothing memoized yet
    keys = []
    propagate = PairingEngine.propagate

    def counting(self, N, m, base_level):
        keys.append((N, m, base_level))
        return propagate(self, N, m, base_level)

    monkeypatch.setattr(PairingEngine, "propagate", counting)
    chars = list(all_characters(t.group))
    rows = koopman.residual_grid(t, chars, koopman.cylinder_family(t, 1))
    steps = sum(1 for lvl in t.levels if lvl.tag is not None)
    assert len(rows) == steps * len(chars) * 4 * 4
    assert keys and len(keys) == len(set(keys))
