import io
import itertools
import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

from cfspectra import tower as tower_module
from cfspectra.groups import Automorphism, FinAbGroup, addition_table, least_period
from cfspectra.tower import (
    Cylinder,
    GeneratorExhausted,
    Level,
    Point,
    Tag,
    Tower,
    apply_T,
    canonical_point,
    defect_fraction,
    embed,
    measure,
    parse_tower,
    recipe,
    serialize_tower,
    validate_labels,
    validate_structure,
    validate_tower,
    TowerParseError,
    _compress_aps,
    _coords_str,
    _cut_blocks,
    _gap_runs,
    _label_copies,
    _next_head,
    _rest_of_line,
)

from cut_scans import (
    entry_read_levels,
    find_cut_scan,
    found_cut,
    one_copy_twin,
    reference_compress_aps,
    reference_parse_tower,
    reference_label_report,
    reference_labels_text,
    reference_recipe,
    reference_structure_report,
    tower_text,
)


@pytest.fixture(scope="module")
def trivial_system():
    G = FinAbGroup((2,))
    return G, Automorphism.identity(G)


@pytest.fixture(scope="module")
def z3_system():
    G = FinAbGroup((3,))
    return G, Automorphism(G, [[-1]])


def seeded(system):
    return Tower.seeded(*system)


def test_seed_structure(trivial_system):
    t = seeded(trivial_system)
    assert t.depth == 2
    assert t.h(0) == 1 and t.h(1) == 3 and t.h(2) == 12
    assert t.mu_level(0) == 1 and t.mu_level(1) == Fraction(3, 2) and t.mu_level(2) == 2
    assert validate_structure(t).passed


def test_even_extension_matches_formulas(trivial_system):
    G, v = trivial_system
    t = seeded(trivial_system)
    lvl = t.extend(Tag(G.identity(), 0))  # period 1 element
    assert lvl.z == 48
    assert lvl.r == 8
    assert lvl.cuts == tuple(24 * i for i in range(8))
    assert lvl.h == 192
    assert max(lvl.cuts) + t.h(2) == 168 + 12 < 192


def test_stagger_extension_matches_formulas(trivial_system):
    G, v = trivial_system
    t = seeded(trivial_system)
    lvl = t.extend(Tag(G.identity(), 1))  # period-1 element, mix ratio 1
    assert lvl.z == 98
    assert lvl.r == 16
    assert lvl.block == (0, 24, 49, 74)
    assert lvl.cuts == tuple(sorted(d + 98 * j for d in (0, 24, 49, 74) for j in range(4)))
    assert lvl.h == 392
    assert max(lvl.cuts) + 12 == 368 + 12 < 392


def test_cut_count_equals_recipe_both_cases(z3_system):
    G, v = z3_system
    t = seeded(z3_system)
    a = G.element((1,))  # period 2 under negation
    for n, tag in [(2, Tag(a, 0)), (3, Tag(a, 1)), (4, Tag(a, 0)), (5, Tag(a, 2))]:
        lvl = t.extend(tag)
        m = 2
        if tag.k == 0:
            assert lvl.r == n**3 * m
        else:
            assert lvl.r == n**3 * (tag.k + 1) * m
        assert lvl.r == recipe(t, n, tag).r == len(lvl.cuts)


@pytest.mark.parametrize("factors,matrix", [((3,), [[2]]), ((2, 2), [[0, 1], [1, 1]]), ((3, 3), [[0, 2], [1, 0]])],
                         ids=["Z3", "Z2xZ2", "Z3xZ3"])
def test_recipe_matches_the_two_branch_reference(factors, matrix):
    """One formula for every k equals the even branch at k = 0 and the stagger branch at k >= 1."""
    G = FinAbGroup(factors)
    t = Tower.seeded(G, Automorphism(G, matrix))
    gen = G.element((1,) + (0,) * (G.rank - 1))
    tags = itertools.cycle([Tag(gen, 0), Tag(gen, 1)])
    while t.depth < 12:
        t.extend(next(tags))
    for n in range(2, 13):
        for el in G.elements():
            for k in (0, 1, 2):
                assert recipe(t, n, Tag(el, k)) == reference_recipe(t, n, Tag(el, k)), (n, el, k)


def build_desk_tower(system, depth=6):
    """Alternating even/stagger tower over the given group system."""
    G, v = system
    t = seeded(system)
    a = G.element((1,)) if G.rank else G.identity()
    tags = itertools.cycle([Tag(a, 0), Tag(a, 1)])
    while t.depth < depth:
        t.extend(next(tags))
    return t


def test_structure_suite_on_desk_tower(z3_system):
    t = build_desk_tower(z3_system, depth=7)
    rep = validate_tower(t)
    assert rep.passed, rep.render()
    for n in range(3, t.depth + 1):
        assert t.mu_level(n) >= 2 * t.mu_level(n - 1)


def test_cut_product_prefix_table_follows_extend(z3_system):
    G, _ = z3_system
    t = seeded(z3_system)
    a = G.element((1,))
    for tag in (Tag(a, 0), Tag(a, 1), Tag(a, 0), None):
        assert [t.cut_product(n) for n in range(t.depth + 1)] == [
            math.prod(t.level(j).r for j in range(1, n + 1)) for n in range(t.depth + 1)]
        with pytest.raises(IndexError):
            t.cut_product(t.depth + 1)
        if tag is not None:
            t.extend(tag)
    # levels assigned outside extend (as seeded and parse_tower do) also renew the table
    bare = Tower(*z3_system)
    assert bare.cut_product(0) == 1
    bare.levels += t.levels
    assert [bare.cut_product(n) for n in range(t.depth + 1)] == [
        t.cut_product(n) for n in range(t.depth + 1)]


def test_find_cut_row_table_follows_levels_and_keeps_its_contracts(z3_system):
    t = build_desk_tower(z3_system, depth=5)
    bare = Tower(*z3_system)
    bare.levels += t.levels[:3]
    assert found_cut(bare, 3, 0) == 0
    bare.levels += t.levels[3:]   # assigned outside extend, as parse_tower does
    for n in range(1, t.depth + 1):
        cuts = t.level(n).cuts
        above = [t.h(n) - 1, t.h(n), cuts[-1] + 2 * t.level(n).z + 1]   # past the last copy
        for f in [-5, -1] + above + [c + d for c in cuts[:3] + cuts[-3:] for d in (-1, 0, 1, t.h(n - 1))]:
            assert found_cut(bare, n, f) == find_cut_scan(t, n, f)
        assert bare.find_cut(n, -1) is None
    lvl = t.level(3)   # a block that starts above 0: a rung below it may take the copy before's last cut
    shift = lvl.z - lvl.block[-1] - 4
    bare.levels = bare.levels[:2] + (Level(3, lvl.h, lvl.z, [d + shift for d in lvl.block], lvl.reps,
                                           lvl.block_labels, lvl.tag, t.elements, t.v_pow),)
    assert [found_cut(bare, 3, f) for f in range(-1, lvl.h + 1)] == [
        find_cut_scan(bare, 3, f) for f in range(-1, lvl.h + 1)]
    for n in (0, -1, t.depth + 1):
        with pytest.raises(IndexError, match=f"^level {n} not built \\(depth 5\\)$"):
            t.find_cut(n, 0)
    with pytest.raises(ValueError, match="outside"):
        t.decompose(t.h(4), 4)
    with pytest.raises(ValueError, match="outside"):
        t.decompose(-1, 4)


def test_replacing_a_level_renews_every_cached_table():
    """Tables read before the top level is replaced answer as those of a fresh tower given the same levels.

    The top level of the depth-4 {2} tower is its ratio-1 stagger level, so every table reads it; at
    depth 5 the rung label table alone would hold h_5 = 21,247,488 entries.
    """
    from cfspectra.cocycle import rung_label_indices
    from cfspectra.experiment import ExperimentConfig, build_tower
    from cfspectra.groups import all_characters
    from cfspectra.koopman import pairing
    from cfspectra.recurrence import return_cuts

    t, _, _ = build_tower(ExperimentConfig(E={2}, depth=4))
    assert t.stagger_steps(k=1) == [3]
    chi = next(c for c in all_characters(t.group) if not c.is_trivial())
    A = Cylinder(2, (0, 1, 2, 3))
    top = t.level(4)
    cuts, labels = list(top.cuts), top.cut_labels()
    i = len(cuts) // 2
    fs = [cuts[1], cuts[i] - 1, cuts[i], cuts[i] + 1, cuts[i + 1] - 1, cuts[-1]]

    def values(tower):
        return (tower.cut_product(4), [tower.find_cut(4, f) for f in fs], rung_label_indices(tower, 4),
                pairing(tower, chi, 2 * tower.h(3), A, A, 4), return_cuts(tower, 3))

    before = values(t)
    del cuts[i], labels[i]   # one copy of the level's cuts, with a middle cut dropped
    t.levels = t.levels[:3] + (Level(4, top.h, top.z, cuts, 1, labels, top.tag, t.elements, t.v_pow),)
    fresh = Tower(t.group, t.v)
    fresh.levels = t.levels
    after = values(t)
    assert after == values(fresh)
    assert all(a != b for a, b in zip(after, before))


def test_measure_doubling_exact_on_even_levels(z3_system):
    t = build_desk_tower(z3_system, depth=5)
    for n in (3, 5):  # even-tag levels: exact factor 2
        assert t.mu_level(n) == 2 * t.mu_level(n - 1)


def test_defect_fraction_exact(z3_system):
    t = build_desk_tower(z3_system, depth=7)
    for lvl in t.levels:
        if lvl.step is not None:
            assert defect_fraction(t, lvl.n) == Fraction(2, lvl.step**2)
    assert defect_fraction(t, 1) == 0  # seed: z = 0


def test_label_validation_passes_on_generated_levels(z3_system):
    t = build_desk_tower(z3_system, depth=7)
    for lvl in t.levels:
        rep = validate_labels(lvl, t)
        assert rep.passed, rep.render()


def test_label_validation_catches_corruption(z3_system):
    G, v = z3_system
    t = build_desk_tower(z3_system, depth=4)
    lvl = t.level(3)
    labels = {c: lvl.label(c) for c in lvl.cuts}
    # corrupt one label on a cut participating in the z-translation
    target = next(c for c in lvl.cuts if c + lvl.z in lvl)
    labels[target + lvl.z] = labels[target + lvl.z] + G.element((1,))
    # the corrupted labels cannot follow the block rule, so the level is one copy
    corrupted = Level(lvl.n, lvl.h, lvl.z, lvl.cuts, 1,
                      [G.element_index(labels[c]) for c in lvl.cuts],
                      lvl.tag, t.elements, t.v_pow)
    rep = validate_labels(corrupted, t)
    assert not rep.passed
    assert any("shift-equivariance" in it.name and not it.ok for it in rep.items)


SMALL_SYSTEMS = [
    ((2,), [[[1]]]),
    ((3,), [[[1]], [[2]]]),
    ((2, 2), [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [1, 1]]]),
    ((5,), [[[1]], [[2]], [[4]]]),
]


@st.composite
def small_towers(draw):
    """A random depth 3-5 tower over a small system, with its tags in build order."""
    factors, matrices = draw(st.sampled_from(SMALL_SYSTEMS))
    G = FinAbGroup(factors)
    t = Tower.seeded(G, Automorphism(G, draw(st.sampled_from(matrices))))
    elements = list(G.elements())
    tags = []
    for _ in range(draw(st.integers(1, 3))):
        el = draw(st.sampled_from(elements))
        tags.append(Tag(el, 0) if draw(st.booleans()) else Tag(el, draw(st.integers(1, 2))))
        t.extend(tags[-1])
    return t, tags


@st.composite
def small_levels(draw):
    """A level of a random depth 3-5 tower, as built, with one label changed, or all labels zero."""
    t, _ = draw(small_towers())
    G = t.group
    lvl = t.level(draw(st.integers(1, t.depth)))
    change = draw(st.sampled_from(["none", "one", "zero"])) if lvl.tag is not None else "none"
    if change != "none":
        labels = [lvl.label_index(c) for c in lvl.cuts] if change == "one" else [0] * lvl.r
        if change == "one":
            i = draw(st.integers(0, lvl.r - 1))
            labels[i] = (labels[i] + draw(st.integers(1, G.order - 1))) % G.order
        lvl = Level(lvl.n, lvl.h, lvl.z, lvl.cuts, 1, labels, lvl.tag, t.elements, t.v_pow)
    return t, lvl, change


@given(small_levels())
def test_label_validation_matches_element_reference(case):
    t, lvl, change = case
    rep = validate_labels(lvl, t)
    assert rep.render() == reference_label_report(lvl, t).render()
    if change == "one":   # every recipe cut has a z-partner, so a changed label breaks equivariance
        assert not rep.passed
    elif change == "none":
        assert rep.passed


@given(small_towers())
def test_extension_matches_recipe_formulas(case):
    t, tags = case
    for n, tag in enumerate(tags, start=2):
        lvl, h = t.level(n + 1), t.h(n)
        el = tag.el
        m, g = 1, t.v(el)   # the period of el under v, walked on Elements
        while g != el:
            m, g = m + 1, t.v(g)
        if tag.k == 0:
            r, z = n**3 * m, 2 * h * n * m
            assert lvl.h == 2 * r * h
            assert lvl.cuts == tuple(2 * h * i for i in range(r))
        else:
            k = tag.k
            r, z = n**3 * (k + 1) * m, m * n * (2 * h * (k + 1) + k)
            assert lvl.h == 2 * r * h + k * r // (k + 1)
            block = [2 * h * i for i in range(n * m)]
            block += [block[-1] + (2 * h + 1) * j for j in range(1, n * k * m + 1)]
            assert lvl.cuts == tuple(sorted(d + z * q for q in range(n * n) for d in block))
        assert (lvl.z, lvl.r, lvl.step) == (z, r, n)


def test_structure_validation_catches_height_tampering(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    lvl = t.level(3)
    bad = Level(lvl.n, max(lvl.cuts) + t.h(2) - 1, lvl.z, lvl.block, lvl.reps,
                lvl.block_labels, lvl.tag, t.elements, t.v_pow)
    t2 = Tower(t.group, t.v)
    t2.levels = [t.level(1), t.level(2), bad]
    rep = validate_structure(t2)
    assert any(it.name == "stack containment" and not it.ok for it in rep.items)


# -- seeded faults against the block-form checks ---------------------------------


def _relevel(lvl, t, **changes):
    """A copy of a level with some constructor fields replaced."""
    fields = dict(n=lvl.n, h=lvl.h, z=lvl.z, block=lvl.block, reps=lvl.reps, block_labels=lvl.block_labels,
                  tag=lvl.tag, elements=t.elements, v_pow=t.v_pow)
    fields.update(changes)
    return Level(**fields)


def _failures(rep):
    return [(it.level, it.name) for it in rep.failures()]


def test_corrupted_power_table_row_fails_shift_equivariance(z3_system):
    t = build_desk_tower(z3_system, depth=5)
    lvl = t.level(5)
    rows = [list(row) for row in t.v_pow]
    g = lvl.block_labels[0]
    rows[1][g] = (rows[1][g] + 1) % t.group.order   # v^1 of the first block label is now wrong
    bad = _relevel(lvl, t, v_pow=tuple(map(tuple, rows)))
    assert bad.reps > 1
    rep = validate_labels(bad, t)
    assert rep.render() == reference_label_report(bad, t).render()
    assert ("shift-equivariance", False) in [(it.name, it.ok) for it in rep.items]
    assert validate_labels(lvl, t).passed


def test_changed_block_labels_fail_the_increment_band(z3_system):
    t = build_desk_tower(z3_system, depth=5)
    lvl = t.level(5)
    # one changed block label still follows v^q from copy to copy and stays inside
    # the bands, so the seeded fault replaces the whole ramp by the zero label
    bad = _relevel(lvl, t, block_labels=[0] * len(lvl.block))
    rep = validate_labels(bad, t)
    assert rep.render() == reference_label_report(bad, t).render()
    assert _failures(rep) == [(5, "increment-class-band i=0"), (5, "increment-class-band i=1")]


def test_boundary_gap_below_h_prev_fails_cut_disjointness(z3_system):
    t = build_desk_tower(z3_system, depth=5)
    lvl = t.level(4)
    h_prev = t.h(3)
    # the copies now start h_prev - 1 after the block's last cut; every block gap is unchanged
    bad = _relevel(lvl, t, z=lvl.block[-1] + h_prev - 1)
    t2 = Tower(t.group, t.v)
    t2.levels = t.levels[:3] + (bad,) + t.levels[4:]
    rep = validate_structure(t2)
    assert rep.render() == reference_structure_report(t2).render()
    assert (4, "cut disjointness") in _failures(rep)
    assert min(b - a for a, b in itertools.pairwise(bad.block)) >= h_prev


def test_parsed_level_with_a_moved_cut_keeps_one_copy_and_todays_failures(z3_system):
    from cfspectra.cocycle import check_coboundary_condition

    t = build_desk_tower(z3_system, depth=6)
    lvl = t.level(5)
    cuts = list(lvl.cuts)
    cuts[len(cuts) // 2] += 1   # the middle cut moves up one rung and keeps its label
    t.levels = (*t.levels[:4], Level(5, lvl.h, lvl.z, cuts, 1, lvl.cut_labels(), lvl.tag, t.elements, t.v_pow),
                *t.levels[5:])
    parsed = parse_tower(io.StringIO(tower_text(t)))
    assert parsed.level(5).reps == 1 and parsed.level(5).cuts == tuple(cuts)
    rep = validate_tower(parsed)
    want = reference_structure_report(parsed)
    for level in parsed.levels:
        want.items.extend(reference_label_report(level, parsed).items)
    assert rep.render() == want.render() and rep.passed
    # as before block levels: only the level's coboundary term moves off 1/step^2
    terms = check_coboundary_condition(parsed).terms
    assert terms == [0, 0, Fraction(1, 4), Fraction(1, 9), Fraction(5, 64), Fraction(1, 25)]


def test_zero_label_map_is_valid_for_identity_element(trivial_system):
    t = seeded(trivial_system)
    lvl = t.extend(Tag(t.group.identity(), 0))
    assert all(lvl.label(c).is_identity() for c in lvl.cuts)
    assert validate_labels(lvl, t).passed


def test_alternating_ramp_under_identity_automorphism():
    """Period-one element with a nontrivial value: labels alternate along the cuts."""
    G = FinAbGroup((2,))
    t = Tower.seeded(G, Automorphism.identity(G))
    lvl = t.extend(Tag(G.element((1,)), 0))
    assert validate_labels(lvl, t).passed
    values = [lvl.label(c).coords[0] for c in lvl.cuts]
    assert all(v == i % 2 for i, v in enumerate(values))
    # nearly every consecutive pair realizes the increment: the band is tight
    from fractions import Fraction as F

    cls = [c for c in lvl.cuts if c - 24 in lvl
           and lvl.label(c) - lvl.label(c - 24) == G.element((1,))]
    assert abs(F(len(cls), lvl.r) - 1) < F(2, 2)


# -- measure, embedding, decomposition ---------------------------------


def test_measure_examples(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    assert measure(t, Cylinder(0, (0,))) == 1  # the base stack has measure one
    for n in range(1, 5):
        assert measure(t, Cylinder.single(n, 0)) == Fraction(1, t.cut_product(n))
    m1 = measure(t, Cylinder(2, (0, 5)))
    m2 = measure(t, Cylinder(2, (0, 3, 5, 7)))
    assert m2 == 2 * m1


def test_embed_preserves_measure(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    for level in (0, 1, 2):
        for f in range(min(4, t.h(level))):
            cyl = Cylinder.single(level, f)
            for target in range(level, 5):
                e = embed(t, cyl, target)
                assert measure(t, e) == measure(t, cyl)
                assert len(e.rungs) == len(cyl.rungs) * t.cut_product(target) // t.cut_product(level)


def test_embed_identity_and_one_step(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    cyl = Cylinder.single(2, 0)
    assert embed(t, cyl, 2) == cyl
    one = embed(t, cyl, 3)
    assert one.rungs == t.level(3).cuts


def test_decompose_round_trip_exhaustive(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    N = 3
    for f in range(t.h(N)):
        n_min, f0, coords, _ = t.decompose(f, N)
        assert f0 + sum(coords.values()) == f
        assert 0 <= f0 < t.h(n_min)
        assert all(c in t.level(j).cuts for j, c in coords.items())
        # minimality: no decomposition into a strictly lower level exists
        if n_min > 0:
            assert t.find_cut(n_min, f0) is None


def test_decompose_agrees_with_exhaustive_search(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    N = 3
    # brute force, smallest base level first: all sums f0 + c_{j+1} + ... + c_N
    reachable = {}
    for n0 in range(N + 1):
        for f0 in range(t.h(n0)):
            for tail in itertools.product(*(t.level(j).cuts for j in range(n0 + 1, N + 1))):
                reachable.setdefault(f0 + sum(tail), n0)
    for f in range(t.h(N)):
        n_min, _, _, _ = t.decompose(f, N)
        assert reachable[f] == n_min


def test_full_decomposition_rungs(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    # rungs that decompose all the way to level 0
    full = {sum(tpl) for tpl in itertools.product(*(t.level(j).cuts for j in (1, 2, 3)))}
    for f in full:
        n_min, _, _, _ = t.decompose(f, 3)
        assert n_min == 0


def test_apply_T_examples(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    p = canonical_point(t, 100, 3)
    assert apply_T(t, p, 0) == p
    q = apply_T(t, p, 7)
    assert q is not None and apply_T(t, q, -7) == p
    top = canonical_point(t, t.h(3) - 1, 3)
    assert apply_T(t, top, 1) is None


def test_point_rung_and_canonical_form(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    p = Point(2, 5, (t.level(3).cuts[2],))
    r = p.rung(t)
    assert canonical_point(t, r, 3).rung(t) == r


@given(st.integers(min_value=0, max_value=10**6))
def test_decompose_round_trip_random_rungs(f):
    G = FinAbGroup((3,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    for tag in [Tag(a, 0), Tag(a, 1), Tag(a, 0)]:
        t.extend(tag)
    N = t.depth
    f = f % t.h(N)
    n_min, f0, coords, _ = t.decompose(f, N)
    assert f0 + sum(coords.values()) == f


def test_serialization_round_trip(z3_system):
    t = build_desk_tower(z3_system, depth=5)
    text = tower_text(t)
    t2 = parse_tower(io.StringIO(text))
    assert t2.depth == t.depth
    assert t2.group == t.group and t2.v.matrix == t.v.matrix
    for n in range(1, t.depth + 1):
        l1, l2 = t.level(n), t2.level(n)
        assert l1.cuts == l2.cuts and l1.h == l2.h and l1.z == l2.z
        assert all(l1.label(c) == l2.label(c) for c in l1.cuts)
    assert validate_tower(t2).passed


def test_parse_rejects_truncated_file(z3_system):
    t = build_desk_tower(z3_system, depth=4)
    text = tower_text(t)
    with pytest.raises(TowerParseError):
        parse_tower(io.StringIO(text[: len(text) // 2]))


# every character str.splitlines breaks at, with whitespace that is not a break and the line syntax
_line_chars = st.sampled_from(list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 \t\x1f\xa0\u3000#=;a1"))


def _content_lines(stream):
    while head := _next_head(stream):
        yield _rest_of_line(stream, head).strip()


@given(st.text(_line_chars, max_size=40))
@example("a\r\nb\r\n")
@example(" # c\n\x85a = 1 \u2028\n")
@example("a\rb = \x0c\n  \n#\x85c\n")
def test_content_lines_are_the_stripped_newline_lines(text):
    """Only a newline ends a line: every other break is a blank inside it, stripped at its ends."""
    want = [ln.strip() for ln in text.split("\n") if ln.strip() and not ln.strip().startswith("#")]
    for chunk in (1, 2, 8192):   # characters per readline call: a line may arrive in pieces
        with patch.object(tower_module, "_READ_CHUNK", chunk):
            assert list(_content_lines(io.StringIO(text))) == want, chunk


def test_only_a_newline_ends_a_line(z3_system):
    text = tower_text(build_desk_tower(z3_system, depth=6))
    for sep in ("\r\n", " \t\n", "\n\n# note\n"):   # a trailing \r is a blank, as are the others
        assert tower_text(parse_tower(io.StringIO(text.replace("\n", sep)))) == text, repr(sep)
    for sep in ("\r", "\x0c", "\u2028", "\x85"):   # the text is one line, a comment
        with pytest.raises(TowerParseError, match="^expected 'group =', found the end of the file$"):
            parse_tower(io.StringIO(text.replace("\n", sep)))
    labels = text.rstrip("\n").rsplit("\n", 1)[1]
    cut = labels[:len(labels) // 2] + "\n" + labels[len(labels) // 2:]   # a newline cuts the value short
    with pytest.raises(TowerParseError, match="^level 6: labels do not cover the cuts exactly$"):
        parse_tower(io.StringIO(text.replace(labels, cut)))


def test_parse_holds_no_copy_of_the_text():
    import tracemalloc

    from cfspectra.experiment import ExperimentConfig, build_tower

    text = tower_text(build_tower(ExperimentConfig(E=frozenset({1, 2}), depth=16))[0])
    assert len(text) == 2_031_277
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        parse_tower(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * len(text), peak   # a list of lines alone would take about 1.1 times the text
    longest = max(map(len, text.splitlines()))
    assert longest == 713_837
    assert peak < 0.5 * longest, peak   # no line is held: the top level's labels are read copy by copy


def test_a_tower_file_is_written_and_read_without_holding_its_text(tmp_path):
    """``serialize_tower`` into a file and ``parse_tower`` from it each stay under half the file's longest
    line (the top level's labels), so neither holds a line."""
    import tracemalloc

    from cfspectra.experiment import ExperimentConfig, build_tower

    t = build_tower(ExperimentConfig(E=frozenset({1, 2}), depth=16))[0]
    path = tmp_path / "tower.txt"
    peaks = []
    tracemalloc.start()
    try:
        with path.open("w") as f:
            serialize_tower(t, f)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        with path.open() as f:
            parsed = parse_tower(f)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    text = path.read_text()
    longest = max(map(len, text.splitlines()))
    assert (len(text), longest) == (2_031_277, 713_837)
    assert all(peak < 0.5 * longest for peak in peaks), peaks
    assert tower_text(parsed) == text


# -- format-1 lines rendered from the block ---------------------------------------

_gap_pieces = st.one_of(
    st.lists(st.integers(1, 5), max_size=2),                                    # a few gaps
    st.tuples(st.integers(1, 5), st.integers(3, 60)).map(lambda p: [p[0]] * p[1]),   # a long equal-step run
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 8)).map(lambda p: [p[0], p[1]] * p[2]),
)


@given(st.integers(-50, 10**30), st.lists(_gap_pieces, max_size=5))
@example(7, [])
@example(7, [[3]])
@example(7, [[3, 3]])
@example(7, [[3, 4]])
@example(0, [[2, 2, 1, 2, 2]])
def test_run_compressor_matches_the_per_value_scan(start, pieces):
    values = list(itertools.accumulate(itertools.chain([start], *pieces)))
    assert "".join(_compress_aps(values[0], _gap_runs(values, 0, 1))) == reference_compress_aps(values)


@given(small_towers())
def test_rendered_lines_match_the_per_cut_references(case):
    t, _ = case
    texts = [_coords_str(el) for el in t.elements]
    twin = one_copy_twin(t)
    for tower in (t, twin):
        for lvl in tower.levels:
            assert "".join(_cut_blocks(lvl)) == reference_compress_aps(lvl.cuts)
            assert "".join(_label_copies(lvl, texts)) == reference_labels_text(lvl)
    assert tower_text(twin) == tower_text(t)


def _level_fields(t):
    return [(lvl.block, lvl.reps, lvl.block_labels, lvl.h, lvl.z, lvl.tag) for lvl in t.levels]


@given(small_towers())
def test_parse_accepts_the_rendering_and_reads_it_as_the_entry_reader_does(case):
    t, _ = case
    text = tower_text(t)
    with entry_read_levels() as read_levels:
        fast = parse_tower(io.StringIO(text))
    assert read_levels == [1, 2]   # every tagged level took the streamed check

    def never_the_rendering(stream, text, start, render):   # every value read whole
        return _rest_of_line(stream, text)[start:].strip()

    with patch.object(tower_module, "_streamed", never_the_rendering), entry_read_levels() as read_levels:
        read = parse_tower(io.StringIO(text))
    assert read_levels == list(range(1, t.depth + 1))   # every level through the per-entry reader
    assert _level_fields(fast) == _level_fields(read) == _level_fields(t)
    assert tower_text(fast) == text


# every break and blank a mutation puts in a value: the newline, and the other str.splitlines breaks and the
# blanks, which end no line
_VALUE_BREAKS = list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 \t\x1f\xa0")


@st.composite
def mutated_tower_texts(draw):
    """The text of a ``small_towers`` tower, perhaps with one ``cuts =`` or ``labels =`` line mutated: a break
    or blank put in or after its value or in place of its newline, a second line with that key (or
    ``tag =``) later in its level, the level's ``tag =`` line moved after its values, one digit changed, or
    the value truncated; and perhaps with no newline at its end.  Drawn as ``(mutation kind, text)``."""
    t, _ = draw(small_towers())
    lines = tower_text(t).split("\n")
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith(("cuts =", "labels ="))]))
    line, start = lines[i], lines[i].index("=") + 2
    header = max(j for j in range(i) if lines[j].startswith("level"))   # the level's lines follow it
    end = next((j for j in range(i, len(lines)) if lines[j].startswith("level")), len(lines) - 1)
    kind = draw(st.sampled_from(["none", "break", "join", "repeat", "tag-after", "digit", "truncate"]))
    if kind == "break":
        at = draw(st.integers(start, len(line)))
        lines[i] = line[:at] + draw(st.sampled_from(_VALUE_BREAKS)) + line[at:]
    elif kind == "join":   # the next line follows the value after a break or blank instead of a newline
        lines[i] = line + draw(st.sampled_from(_VALUE_BREAKS)) + lines.pop(i + 1)
    elif kind == "repeat":
        key = draw(st.sampled_from([line[:start], "tag = "]))
        other = draw(st.sampled_from([ln for ln in lines if ln.startswith(key)]))
        lines.insert(draw(st.integers(i + 1, end)), other)
    elif kind == "tag-after":
        tag = lines.pop(header + 1)
        lines.insert(draw(st.integers(header + 4, header + 5)), tag)   # after cuts, or after labels too
    elif kind == "digit":
        at = draw(st.sampled_from([j for j in range(start, len(line)) if line[j].isdigit()]))
        lines[i] = line[:at] + draw(st.sampled_from(sorted(set("0123456789") - {line[at]}))) + line[at + 1:]
    elif kind == "truncate":
        lines[i] = line[:draw(st.integers(start, len(line) - 1))]
    text = "\n".join(lines)
    return kind, text.rstrip("\n") if draw(st.booleans()) else text


@given(mutated_tower_texts())
def test_the_streamed_reader_agrees_with_the_whole_line_reader(case):
    """Whatever the piece a line is first read in, ``parse_tower`` reads each text as the reference that holds
    every line whole does: the same levels, or the same ``TowerParseError`` message.  A key out of the
    writer's order is refused."""
    kind, text = case

    def outcome(read):
        try:
            return _level_fields(read())
        except TowerParseError as exc:
            return str(exc)

    want = outcome(lambda: reference_parse_tower(text))
    if kind in ("repeat", "tag-after"):
        assert isinstance(want, str) and "expected" in want, want
    for chunk in (10, 16, 40, 8192):   # the smaller ones split each value across reads
        with patch.object(tower_module, "_READ_CHUNK", chunk):
            assert outcome(lambda: parse_tower(io.StringIO(text))) == want, chunk


RAMP_SYSTEMS = [
    ((3,), [[-1]]),
    ((4,), [[1]]),
    ((5,), [[2]]),
    ((7,), [[3]]),
    ((2, 2), [[0, 1], [1, 1]]),
    ((3, 3), [[0, 1], [1, 0]]),
]


def offset_ramp_labels(tower, length, a, ramp_len, offset):
    """A ramp whose orbit steps start at v^offset(a): the offset-0 ramp relabelled by v^offset."""
    add = addition_table(tower.group)
    steps = [row[tower.group.element_index(a)] for row in tower.v_pow]
    labels = [0]
    for t in range(1, length):
        labels.append(add[labels[-1]][steps[(t - 1 + offset) % len(steps)]] if t < ramp_len else labels[-1])
    return labels


@given(st.sampled_from(RAMP_SYSTEMS), st.data())
def test_ramp_offsets_pass_or_fail_label_validation_together(system, data):
    """No count of ``validate_labels`` sees a relabelling by a power of v, so every ramp
    offset passes or none does, and ``extend`` builds the offset-0 ramp or raises."""
    factors, matrix = system
    G = FinAbGroup(factors)
    t = Tower.seeded(G, Automorphism(G, matrix))
    elements = list(G.elements())
    for _ in range(data.draw(st.integers(1, 3))):
        el = data.draw(st.sampled_from(elements))
        tag = Tag(el, 0) if data.draw(st.booleans()) else Tag(el, data.draw(st.integers(1, 2)))
        n = t.depth
        rec = recipe(t, n, tag)
        ramps = [offset_ramp_labels(t, len(rec.block), el, rec.ramp_len, o)
                 for o in range(least_period(t.v, el))]
        passed = [validate_labels(Level(n + 1, rec.h, rec.z, rec.block, rec.reps, labels, tag,
                                        t.elements, t.v_pow), t).passed for labels in ramps]
        assert all(passed) or not any(passed), (tag, passed)
        if not passed[0]:
            with pytest.raises(GeneratorExhausted):
                t.extend(tag)
            return
        assert list(t.extend(tag).block_labels) == ramps[0]
