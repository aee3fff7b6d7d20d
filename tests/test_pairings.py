import bisect
import io
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfspectra import koopman, pairings
from cfspectra.cocycle import check_coboundary_condition
from cfspectra.cyclotomic import Cyclo, abs_upper
from cfspectra.experiment import ExperimentConfig, build_tower
from cfspectra.groups import (Automorphism, Character, FinAbGroup, LimitExceeded, all_characters,
                              character_orbit_average)
from cfspectra.pairings import LevelPairing, PairingEngine, count_ge, out_of_range_count
from cfspectra.recurrence import _nth, label_transport_witness, return_cuts
from cfspectra.tower import (Cylinder, Tag, Tower, defect_fraction, embed, measure,
                             parse_tower, validate_labels, validate_structure)

from cut_scans import (aligned_cut_scan, aligned_cuts, count_ge_scan, defect_scan, find_cut_scan, found_cut,
                       one_copy_twin, reference_label_report, reference_rung_label, reference_structure_report,
                       surviving_cuts, tower_text)


@pytest.fixture(scope="module")
def z3_tower():
    G = FinAbGroup((3,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for tag in [Tag(a, 0), Tag(a, 1), Tag(a, 0)]:
        t.extend(tag)
    return t


def characters(tower):
    return [Character(tower.group, (c,)) for c in range(3)]


_RUNG_LABELS = weakref.WeakKeyDictionary()   # tower -> {(N, f): reference_rung_label(tower, f, N)}


def memo_rung_label(tower, f, N):
    """``reference_rung_label`` remembered per tower across calls: a depth-N rung label never changes."""
    memo = _RUNG_LABELS.setdefault(tower, {})
    el = memo.get((N, f))
    if el is None:
        el = memo[(N, f)] = reference_rung_label(tower, f, N)
    return el


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
            inc = memo_rung_label(tower, g, N) - memo_rung_label(tower, f, N)
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
    eng = PairingEngine(t)
    for A, B in itertools.product(CYLS, repeat=2):
        for m in shifts:
            brute = brute_histogram(t, m, A, B, depth)
            for chi in characters(t):
                got = eng.pairing(chi, m, A, B, depth)
                want_value, want_err = brute_value(t, chi, brute, depth)
                assert got.value == want_value, (chi, m, A, B)
                assert got.error_bound == want_err


def test_adjoint_step_drags_neighbour_rungs(z3_tower):
    """The one-step-back pairing carries [{1}] fully onto [{0}] at depth."""
    t = z3_tower
    chi0 = characters(t)[0]
    eng = PairingEngine(t)
    lower, upper = Cylinder(1, (0,)), Cylinder(1, (1,))
    p = eng.pairing(chi0, -1, lower, upper, t.depth)  # rungs of [{1}] stepping back into [{0}]
    assert p.value == Cyclo.from_fraction(measure(t, lower))
    assert p.error_bound == 0
    # and the forward step the other way round, with the adjoint symmetry
    q = eng.pairing(chi0, 1, upper, lower, t.depth)
    assert q.value == p.value.conjugate()


def test_zero_shift_gives_overlap_measure(z3_tower):
    t = z3_tower
    chi = characters(t)[1]
    eng = PairingEngine(t)
    for A in CYLS:
        p = eng.pairing(chi, 0, A, A, t.depth)
        assert p.error_bound == 0
        assert p.value == Cyclo.from_fraction(measure(t, A))
    # disjoint cylinders at equal level pair to zero
    p = eng.pairing(chi, 0, Cylinder(1, (0,)), Cylinder(1, (1,)), t.depth)
    assert p.value == 0


def test_conjugate_symmetry(z3_tower):
    t = z3_tower
    eng = PairingEngine(t)
    for chi in characters(t):
        for A, B in [(CYLS[1], CYLS[3]), (CYLS[3], CYLS[4]), (CYLS[0], CYLS[2])]:
            for m in (1, 5, 24, 2 * t.h(2)):
                ab = eng.pairing(chi, m, A, B, t.depth)
                ba = eng.pairing(chi, -m, B, A, t.depth)
                assert ab.value == ba.value.conjugate()


def test_deepening_consistency(z3_tower):
    t = z3_tower
    chi = characters(t)[1]
    eng = PairingEngine(t)
    for A, B in [(CYLS[1], CYLS[1]), (CYLS[3], CYLS[4])]:
        for m in (1, 7, 2 * t.h(2)):
            prev = None
            for N in range(3, t.depth + 1):
                cur = eng.pairing(chi, m, A, B, N)
                if prev is not None:
                    assert cur.error_bound <= prev.error_bound
                    gap = abs_upper(cur.value - prev.value, 64)
                    assert gap <= prev.error_bound + cur.error_bound
                prev = cur


def test_error_bound_vanishes_for_small_shift_at_depth(z3_tower):
    t = z3_tower
    eng = PairingEngine(t)
    p = eng.pairing(characters(t)[0], 2 * t.h(2), CYLS[1], CYLS[1], t.depth)
    assert p.error_bound == 0  # the stack top absorbs the shift at deeper truncation


def test_mass_conservation_partition(z3_tower):
    t = z3_tower
    chi = characters(t)[0]  # trivial
    eng = PairingEngine(t)
    n, N, m = 1, 4, 5
    full = Cylinder(n, tuple(range(t.h(n))))
    total = Cyclo.zero(1)
    err_total = Fraction(0)
    for f in range(t.h(n)):
        p = eng.pairing(chi, m, full, Cylinder.single(n, f), N)
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
    eng = PairingEngine(t)
    with pytest.raises(ValueError):
        eng.pairing(characters(t)[0], t.h(3), CYLS[1], CYLS[1], 3)
    with pytest.raises(ValueError, match="character must live on the tower's label group"):
        eng.pairing(Character(FinAbGroup((2,)), (1,)), 0, CYLS[1], CYLS[1], 3)


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
        t.extend(Tag(el, 0) if draw(st.booleans()) else Tag(el, 1))
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


def edge_windows(tower, n):
    """Difference windows [lo, hi] of level n whose partner window, seen from a block cut at a copy offset,
    lies wholly below the block, wholly above it, straddles its first or last cut, falls in a gap between two
    cuts or covers the whole block; at the first, middle and last block cut and copy offsets -reps+1, -1, 0,
    1, reps-1."""
    lvl = tower.level(n)
    block, z, reps = lvl.block, lvl.z, lvl.reps
    first, last = block[0], block[-1]
    spans = [(first - 5, first - 1), (last + 1, last + 5), (first - 2, first), (first - 2, (first + last) // 2),
             (last, last + 2), ((first + last + 1) // 2, last + 2), (first - 1, last + 1)]
    spans += [(a + 1, b - 1) for a, b in zip(block, block[1:]) if b - a > 1][:3]
    windows = set()
    for t in {1 - reps, -1, 0, 1, reps - 1}:
        if abs(t) < reps:
            for d1 in {first, block[len(block) // 2], last}:
                windows.update((x - d1 + z * t, y - d1 + z * t) for x, y in spans)
    return sorted(windows)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(small_towers())
def test_level_kernel_matches_brute_force_at_edge_windows(t):
    """Windows that miss the block, straddle one of its ends or sit in a gap give brute_kernel's dict in its
    delta order, on the tower, its parsed twin and its one-copy twin, at each of their block geometries."""
    twins = (t, parse_tower(io.StringIO(tower_text(t))), one_copy_twin(t))
    for n in range(1, t.depth + 1):
        top = t.level(n).cuts[-1]
        full = brute_kernel(t, n, -top, top)   # every cut pair of the level
        windows = sorted({w for twin in twins for w in edge_windows(twin, n)})
        for lo, hi in windows:
            want = {d: hist for d, hist in full.items() if lo <= d <= hi}
            for twin in twins:
                got = PairingEngine(twin).level_kernel(n, lo, hi)
                assert got == want and list(got) == list(want), (n, lo, hi)


@settings(max_examples=30)   # depth-4 brute enumeration costs up to seconds per example
@given(pairing_cases())
def test_engine_matches_brute_force_on_random_towers(case):
    t, A, B, shifts, windows = case
    parsed = parse_tower(io.StringIO(tower_text(t)))
    for lvl, twin in zip(t.levels, parsed.levels):
        assert (twin.block, twin.reps, twin.block_labels) == (lvl.block, lvl.reps, lvl.block_labels)
    # every level as one copy of its cuts (reps == 1), the shape of a file that breaks its recipe
    single = one_copy_twin(t)
    for n, lo, hi in windows:
        want = brute_kernel(t, n, lo, hi)
        # block copies on the in-memory tower and its parsed twin; one copy on the single twin
        for tower in (t, parsed, single):
            got = PairingEngine(tower).level_kernel(n, lo, hi)
            assert got == want and list(got) == list(want), (n, lo, hi)
    brutes = {m: brute_histogram(t, m, A, B, t.depth) for m in shifts}
    eng = PairingEngine(t)
    twin_engs = [PairingEngine(parsed), PairingEngine(single)]
    for chi in all_characters(t.group):
        for m in shifts:
            got = eng.pairing(chi, m, A, B, t.depth)
            want_value, want_err = brute_value(t, chi, brutes[m], t.depth)
            assert got.value == want_value, (chi, m, A, B)
            assert got.error_bound == want_err
            # the parsed twin repeats the in-memory blocks; the single twin has reps == 1
            for twin_eng in twin_engs:
                again = twin_eng.pairing(chi, m, A, B, t.depth)
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
                assert found_cut(tower, n, x) == find_cut_scan(tower, n, x)
            for delta in (0, lvl.z, 2 * tower.h(n - 1), 2 * tower.h(n - 1) + 1, -lvl.z, 7):
                classes, want = lvl.shift_classes(delta), surviving_cuts(lvl, delta)
                assert lvl.class_cuts(classes) == list(want)
                stride = lvl.z * len(tower.v_pow) or 1   # a seed level's classes are single cuts
                for k in {0, len(want) // 2, len(want) - 1} if want else ():
                    assert _nth([(c, count) for c, count, *_ in classes], stride, k) == want[k]
            if lvl.tag is not None and lvl.tag.k == 1:
                rc, h = return_cuts(tower, n - 1), tower.h(n - 1)
                assert lvl.class_cuts(rc.even) == list(surviving_cuts(lvl, 2 * h))
                assert lvl.class_cuts(rc.odd) == list(surviving_cuts(lvl, 2 * h + 1))
                assert rc.density_even == Fraction(len(surviving_cuts(lvl, 2 * h)), len(cuts))
                assert rc.density_odd == Fraction(len(surviving_cuts(lvl, 2 * h + 1)), len(cuts))
        for f in probes:
            if 0 <= f < tower.h(tower.depth):
                n_min, f0, coords, _ = tower.decompose(f, tower.depth)
                assert f0 + sum(coords.values()) == f and (n_min == 0 or find_cut_scan(tower, n_min, f0) is None)
                assert all(find_cut_scan(tower, j, f - sum(coords[i] for i in coords if i > j)) == c
                           for j, c in coords.items())
        for threshold in thresholds:
            assert count_ge(tower, base, 2, tower.depth, threshold) == count_ge_scan(tower, base, 2, tower.depth,
                                                                                   threshold)
    even = next((lvl for lvl in t.levels if lvl.tag is not None and lvl.tag.k == 0 and lvl.n > 3), None)
    if even is not None:
        a = even.tag.el
        assert label_transport_witness(t, 1, 2, (0,), a) == label_transport_witness(single, 1, 2, (0,), a)


def test_residual_grid_propagates_once_for_all_characters(z3_tower, monkeypatch):
    """One walk per (N, m, base), one kernel per (N, m, level), and per (chi, A, B) one pairing per step plus
    the <1_A, 1_B> and, with a k >= 1 step, the <U^-1 1_A, 1_B> pairings shared by all steps."""
    t = parse_tower(io.StringIO(tower_text(z3_tower)))   # a fresh tower: nothing memoized yet
    keys, kernels, calls = [], [], []
    propagate, level_kernel, pairing = PairingEngine.propagate, PairingEngine.level_kernel, PairingEngine.pairing

    def counting(self, N, m, base_level):
        keys.append((N, m, base_level))
        return propagate(self, N, m, base_level)

    def kernel_spy(self, n, lo, hi):
        kernels.append((*keys[-1][:2], n))   # level_kernel runs only inside the latest propagate
        return level_kernel(self, n, lo, hi)

    def pairing_spy(self, chi, m, A, B, N):
        calls.append(m)
        return pairing(self, chi, m, A, B, N)

    monkeypatch.setattr(PairingEngine, "propagate", counting)
    monkeypatch.setattr(PairingEngine, "level_kernel", kernel_spy)
    monkeypatch.setattr(PairingEngine, "pairing", pairing_spy)
    chars = list(all_characters(t.group))
    family = koopman.cylinder_family(t, 1)
    rows = koopman.residual_grid(t, chars, family)
    tags = [lvl.tag for lvl in t.levels if lvl.tag is not None]
    assert len(rows) == len(tags) * len(chars) * 4 * 4
    assert keys and len(keys) == len(set(keys))
    assert kernels and len(kernels) == len(set(kernels))
    adjoint = any(tag.k >= 1 for tag in tags)
    assert adjoint and len(calls) == len(chars) * len(family) ** 2 * (len(tags) + 1 + adjoint)


def test_residual_grid_builds_one_engine_for_all_characters(monkeypatch):
    """A grid over all nine characters of the Z3xZ3 ({8}) tower constructs one ``PairingEngine``, and the
    tower's cache holds it as its one engine entry."""
    t, _, _ = build_tower(ExperimentConfig(E={8}, depth=4))
    built = []
    init = PairingEngine.__init__

    def counting(self, tower, *args):
        built.append(tower)
        init(self, tower, *args)

    monkeypatch.setattr(PairingEngine, "__init__", counting)
    chars = list(all_characters(t.group))
    assert len(chars) == 9
    koopman.residual_grid(t, chars, koopman.cylinder_family(t, 1))
    assert built == [t]
    assert [value for value in t._cache.values() if isinstance(value, PairingEngine)] == [koopman._engine(t)]


@st.composite
def grid_cases(draw):
    """A depth 3-5 recipe over a small system and a family of X0, level-1 and level-2 rungs with one repeated id.

    One step, or two or three that mix k = 0 with k >= 1.  The repeated id names a second cylinder, so rows that tie on
    the sort key must keep the family order of A, then B.
    """
    factors, matrices = draw(st.sampled_from(SMALL_SYSTEMS))
    G = FinAbGroup(factors)
    matrix = draw(st.sampled_from(matrices))
    elements = list(G.elements())
    ks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda ks: len(ks) == 1 or 0 in ks and any(ks)))
    tags = [Tag(draw(st.sampled_from(elements)), k) for k in ks]
    heights = [Tower.seeded(G, Automorphism(G, matrix)).h(n) for n in range(3)]
    f1, f2 = draw(st.integers(0, heights[1] - 1)), draw(st.integers(0, heights[2] - 1))
    family = [("X0", Cylinder(0, (0,))), (f"1:{f1}", Cylinder.single(1, f1)), (f"2:{f2}", Cylinder.single(2, f2))]
    level = draw(st.integers(1, 2))
    rungs = draw(st.lists(st.integers(0, heights[level] - 1), min_size=1, max_size=2, unique=True))
    twin_id, twin = draw(st.sampled_from(family))
    again = Cylinder(level, tuple(sorted(rungs)))
    assume(again != twin)
    family.insert(draw(st.integers(1, 3)), (twin_id, again))
    return G, matrix, tags, family


def _grid_tower(G, matrix, tags):
    t = Tower.seeded(G, Automorphism(G, matrix))
    for tag in tags:
        t.extend(tag)
    return t


@settings(max_examples=20, derandomize=True, deadline=None)
@given(grid_cases())
def test_residual_grid_equals_per_cell_residuals_on_random_towers(case):
    """The grid equals ``_residual`` cell by cell, taken in step, character, A, B order and sorted as the grid
    sorts; on a cold tower and on one whose store already holds the base-0 walks of every shift."""
    G, matrix, tags, family = case
    oracle = _grid_tower(G, matrix, tags)
    chars = list(all_characters(G))
    want = []
    for lvl in oracle.levels:
        if lvl.tag is None:
            continue
        tg, coords = lvl.tag, "+".join(map(str, lvl.tag.el.coords))
        tag = f"stagger:{coords}:k={tg.k}" if tg.k else f"even:{coords}"
        for chi in chars:
            for a_id, A in family:
                for b_id, B in family:
                    res = koopman._residual(oracle, chi, tg.el, tg.k, A, B, lvl.step, None)
                    err = koopman.pairing(oracle, chi, 2 * oracle.h(lvl.step), A, B).error_bound
                    want.append(koopman.ResidualRow(lvl.step, tag, chi.coords, a_id, b_id, res, err))
    want.sort(key=lambda r: (r.n, r.tag, r.chi, r.a_id, r.b_id))
    cold = _grid_tower(G, matrix, tags)
    assert koopman.residual_grid(cold, chars, family) == want
    warm = _grid_tower(G, matrix, tags)
    X0 = family[0][1]
    for m in (0, -1, *(2 * warm.h(lvl.step) for lvl in warm.levels if lvl.tag is not None)):
        koopman.pairing(warm, chars[0], m, X0, X0)
    assert koopman.residual_grid(warm, chars, family) == want


@settings(max_examples=15, derandomize=True, deadline=None)
@given(grid_cases(), st.data())
def test_deviation_equals_the_cyclo_formula_on_random_towers(case, data):
    """At k = 0 and k >= 1 steps, with <1_A, 1_B> and <U^-1 1_A, 1_B> taken at depths of their own so that the
    three pairings' denominators differ, _deviation is |p - (scaled + k back) / (k+1)| bounded by abs_upper on
    Cyclo operators, plus p's error and k/(k+1) of back's."""
    G, matrix, tags, family = case
    t = _grid_tower(G, matrix, tags)
    N = t.depth
    unequal = 0
    for lvl in t.levels:
        if lvl.tag is None:
            continue
        el, k = lvl.tag.el, lvl.tag.k
        for chi in all_characters(G):
            l = character_orbit_average(chi, el, t.v)
            for (_, A), (_, B) in itertools.product(family, repeat=2):
                p = koopman.pairing(t, chi, 2 * t.h(lvl.step), A, B, N)
                scaled = l * koopman.pairing(t, chi, 0, A, B, data.draw(st.integers(2, N))).value
                back = koopman.pairing(t, chi, -1, A, B, data.draw(st.integers(2, N)))
                w = Fraction(k, k + 1)
                want = (abs_upper(p.value - (scaled / (k + 1) + back.value * w), koopman._BITS)
                        + p.error_bound + w * back.error_bound)
                assert koopman._deviation(p, scaled, k, back) == want
                if k == 0:
                    assert koopman._deviation(p, scaled, 0, None) == want
                unequal += len({p.value.den, scaled.den, back.value.den}) > 1
    assert unequal


def test_state_guard_trips_at_the_same_level_cold_and_continued(z3_tower, monkeypatch):
    """The 2h_3 walk holds 1, 2, 2, 3 states after levels 5, 4, 3, 2: with a guard of 2 it trips at level 2.
    A base at or above level 2 succeeds; every lower base raises the same message, whether its walk starts
    at depth N or continues from the least cached higher base."""
    N, m = z3_tower.depth, 2 * z3_tower.h(3)
    chi = Character(z3_tower.group, (1,))
    assert [len(PairingEngine(z3_tower).propagate(N, m, b)) for b in (4, 3, 2, 1)] == [1, 2, 2, 3]
    monkeypatch.setattr(pairings, "_STATE_GUARD", 2)
    levels = []   # the level of every level_kernel call
    level_kernel = PairingEngine.level_kernel

    def spy(self, n, lo, hi):
        levels.append(n)
        return level_kernel(self, n, lo, hi)

    monkeypatch.setattr(PairingEngine, "level_kernel", spy)
    messages = []
    for base in (0, 1):
        for cached in ((), (2,), (3,), (3, 2)):
            t = parse_tower(io.StringIO(tower_text(z3_tower)))
            eng = PairingEngine(t)
            for b in cached:   # a pairing with base level b leaves its walk in the engine
                eng.pairing(chi, m, Cylinder.single(b, 0), Cylinder(0, (0,)), N)
                assert (N, m, b) in eng.states
            levels.clear()
            with pytest.raises(LimitExceeded) as info:
                eng.propagate(N, m, base)
            messages.append(str(info.value))
            # a continued walk builds the kernels of the levels under the least cached base only
            assert levels == list(range(min(cached, default=N), 1, -1))
        for b in (2, 3, 4):
            assert eng.propagate(N, m, b)
    assert messages == ["pairing propagation exceeded 2 states at level 2; "
                        "this shift pattern is outside the supported desk workloads"] * len(messages)


def test_vanished_walk_is_empty_for_every_lower_base_cold_and_continued(z3_tower):
    """The shift 12 keeps one state through levels 5 and 4 and none past level 3: every base under level 3
    gives an empty walk, cold, continued from a cached empty walk, and continued from a cached live one."""
    N, m = z3_tower.depth, 12
    chi = Character(z3_tower.group, (1,))
    for cached in (None, 2, 3, 1):
        t = parse_tower(io.StringIO(tower_text(z3_tower)))
        eng = PairingEngine(t)
        if cached is not None:
            eng.pairing(chi, m, Cylinder.single(cached, 0), Cylinder(0, (0,)), N)
            assert len(eng.states[(N, m, cached)]) == (cached >= 3)
        assert [eng.propagate(N, m, b) for b in (2, 1, 0)] == [{}, {}, {}]
        assert len(eng.propagate(N, m, 3)) == 1 and len(eng.propagate(N, m, 4)) == 1
