from fractions import Fraction

import pytest

from cfspectra import koopman
from cfspectra.cyclotomic import Cyclo, abs_upper
from cfspectra.groups import Automorphism, Character, FinAbGroup, Subgroup, character_orbit_average
from cfspectra.koopman import (
    LevelOperator,
    SeparationResult,
    cylinder_family,
    pairing,
    residual_grid,
    separation_check,
    skew_decomposition_check,
    tail_shift_residual,
    weak_limit_residual_even,
    weak_limit_residual_stagger,
)
from cfspectra.tower import Cylinder, Tag, Tower

from cut_scans import reference_rung_label


@pytest.fixture(scope="module")
def z3_tower():
    G = FinAbGroup((3,))
    v = Automorphism(G, [[-1]])
    t = Tower.seeded(G, v)
    a = G.element((1,))
    tags = [Tag(a, 0), Tag(a, 1)] * 3
    for tag in tags[:5]:  # steps 2..6, depth 7
        t.extend(tag)
    return t


def chars(t):
    return [Character(t.group, (c,)) for c in range(3)]


A0 = Cylinder(1, (0,))
B0 = Cylinder(1, (0,))
X0 = Cylinder(0, (0,))


def test_even_residuals_decrease_and_certify(z3_tower):
    t = z3_tower
    a = t.group.element((1,))
    for chi in chars(t):
        prev = None
        for n in t.steps_tagged(lambda tag: tag.k == 0 and tag.el == a):
            res = weak_limit_residual_even(t, chi, a, A0, B0, n)
            assert res >= 0
            if prev is not None:
                assert res < prev
            prev = res
        assert prev < Fraction(1, 10)


def test_even_residual_trivial_character_identity_limit(z3_tower):
    """With the trivial character the even-step target is the plain overlap."""
    t = z3_tower
    a = t.group.element((1,))
    chi0 = chars(t)[0]
    n = t.steps_tagged(lambda tag: tag.k == 0 and tag.el == a)[-1]
    res = weak_limit_residual_even(t, chi0, a, A0, B0, n)
    p = pairing(t, chi0, 2 * t.h(n), A0, B0)
    inner = pairing(t, chi0, 0, A0, B0)
    direct = abs_upper(p.value - inner.value, 96) + p.error_bound
    assert res == direct


def test_even_residual_manual_target(z3_tower):
    t = z3_tower
    a = t.group.element((1,))
    chi = chars(t)[1]
    n = t.steps_tagged(lambda tag: tag.k == 0 and tag.el == a)[0]
    p = pairing(t, chi, 2 * t.h(n), A0, B0)
    inner = pairing(t, chi, 0, A0, B0)
    l = character_orbit_average(chi, a, t.v)
    manual = abs_upper(p.value - l * inner.value, 128) + p.error_bound
    assert weak_limit_residual_even(t, chi, a, A0, B0, n) == manual


def test_wrong_tag_rejected(z3_tower):
    t = z3_tower
    a = t.group.element((1,))
    with pytest.raises(ValueError):
        weak_limit_residual_even(t, chars(t)[1], a, A0, B0, t.stagger_steps()[0])
    with pytest.raises(ValueError):
        weak_limit_residual_stagger(t, chars(t)[1], a, 1, A0, B0, t.steps_tagged(lambda tag: tag.k == 0)[0])
    with pytest.raises(ValueError):
        weak_limit_residual_stagger(t, chars(t)[1], a, 2, A0, B0, t.stagger_steps()[0])


def test_stagger_residuals_decrease_and_certify(z3_tower):
    t = z3_tower
    b = t.group.element((1,))
    for chi in chars(t):
        prev = None
        for n in t.stagger_steps(b, 1):
            res = weak_limit_residual_stagger(t, chi, b, 1, A0, B0, n)
            assert res >= 0
            if prev is not None:
                assert res < prev
            prev = res
        assert prev < Fraction(1, 10)


def test_stagger_trivial_character_is_identity_mix(z3_tower):
    """(trivial chi) U^{2h_n} approaches I/(k+1) + k/(k+1) U*."""
    t = z3_tower
    b = t.group.element((1,))
    chi0 = chars(t)[0]
    n = t.stagger_steps(b, 1)[-1]
    res = weak_limit_residual_stagger(t, chi0, b, 1, A0, B0, n)
    p = pairing(t, chi0, 2 * t.h(n), A0, B0)
    back = pairing(t, chi0, -1, A0, B0)
    inner = pairing(t, chi0, 0, A0, B0)
    target = inner.value / 2 + back.value / 2
    manual = abs_upper(p.value - target, 128) + p.error_bound + back.error_bound / 2
    assert res == manual


def test_tail_shift_residuals_decrease(z3_tower):
    t = z3_tower
    prev = None
    for n in range(2, t.depth):
        res = tail_shift_residual(t, A0, B0, n)
        if prev is not None:
            assert res <= prev
        prev = res
    assert prev < Fraction(1, 10)


def test_tail_shift_residual_zero_before_recipe(z3_tower):
    # with no accumulated shift the two pairings coincide except for error mass
    t = z3_tower
    res = tail_shift_residual(t, A0, B0, 1)
    full = tail_shift_residual(t, A0, B0, t.depth)
    assert res >= 0 and full >= 0
    # at n = depth the compared shifts agree, so only error masses remain
    trivial = Character(t.group, (0,))
    from cfspectra.cocycle import TailShift

    zN = TailShift(t).z_prefix(t.depth)
    p = pairing(t, trivial, zN, A0, B0)
    assert full == 2 * p.error_bound


def test_separation_certified(z3_tower):
    t = z3_tower
    a = t.group.element((1,))
    chi, xi = chars(t)[1], chars(t)[0]
    n = t.steps_tagged(lambda tag: tag.k == 0 and tag.el == a)[-1]
    res = separation_check(t, chi, xi, a, A0, A0, n)
    assert isinstance(res, SeparationResult)
    # |l_chi(1) - 1| = 3/2 exactly for the order-3 system
    assert res.gap_lower == Fraction(3, 2) * Fraction(1, 2)
    assert res.certified


def test_separation_same_orbit_rejected(z3_tower):
    t = z3_tower
    chi = chars(t)[1]
    xi = chars(t)[2]  # chi o v: same dual orbit under negation
    with pytest.raises(ValueError):
        separation_check(t, chi, xi, t.group.element((1,)), A0, A0, t.steps_tagged(lambda tag: tag.k == 0)[-1])


def test_level_operator_basics(z3_tower):
    t = z3_tower
    chi = chars(t)[1]
    N = 3
    op = LevelOperator(t, chi, 5, N)
    h = t.h(N)
    assert op.undefined_count == 5
    assert op.error_mass == Fraction(5, t.cut_product(N))
    for f in (0, 7, h - 6):
        want = (chi.exponent(reference_rung_label(t, f + 5, N)) - chi.exponent(reference_rung_label(t, f, N))) % 3
        assert op.phase_exponent[f] == want
    assert op.phase_exponent[h - 1] is None
    # zero shift: identity phases on every rung
    op0 = LevelOperator(t, chi, 0, N)
    assert all(e == 0 for e in op0.phase_exponent)
    assert op0.error_mass == 0


def test_level_operator_matches_the_per_rung_formula_at_every_shift(z3_tower):
    """Phases, targets and the undefined count equal a rung-by-rung recount, shifts past the stack included."""
    t = z3_tower
    N = 3
    h = t.h(N)
    labels = [reference_rung_label(t, f, N) for f in range(h)]
    for chi in chars(t):
        for m in (-h - 1, -h, -h + 1, -5, -1, 0, 1, 5, h - 1, h, h + 1):
            op = LevelOperator(t, chi, m, N)
            want = [(chi.exponent(labels[f + m]) - chi.exponent(labels[f])) % 3 if 0 <= f + m < h else None
                    for f in range(h)]
            assert op.phase_exponent == want
            assert op.undefined_count == want.count(None) == min(h, abs(m))


@pytest.mark.parametrize("m", [0, 1, -1])
def test_skew_decomposition_small(z3_tower, m):
    t = z3_tower
    G = t.group
    for H in [Subgroup(G, [G.element((1,))]), Subgroup(G, [])]:
        rep = skew_decomposition_check(t, H, 3, m)
        assert rep.passed, rep.render()


def test_skew_decomposition_block_count(z3_tower):
    t = z3_tower
    G = t.group
    # H = K: a single trivial block; H = {0}: all three characters
    rep_full = skew_decomposition_check(t, Subgroup(G, [G.element((1,))]), 3, 1)
    assert sum(1 for it in rep_full.items if it.name.startswith("fiber block")) == 1
    rep_zero = skew_decomposition_check(t, Subgroup(G, []), 3, 1)
    assert sum(1 for it in rep_zero.items if it.name.startswith("fiber block")) == 3


def test_residual_grid_deterministic(z3_tower):
    t = z3_tower
    fam = cylinder_family(t, max_level=1)
    rows1 = residual_grid(t, chars(t)[:2], fam)
    rows2 = residual_grid(t, chars(t)[:2], fam)
    assert [(r.n, r.tag, r.chi, r.a_id, r.b_id, r.residual) for r in rows1] == [
        (r.n, r.tag, r.chi, r.a_id, r.b_id, r.residual) for r in rows2
    ]
    assert len(rows1) == len(t.levels[2:]) * 2 * len(fam) ** 2


def test_residual_grid_rows_with_cold_and_warm_orbit_averages(z3_tower):
    """Orbit averages are cached per tower for each (chi, step element); a warm
    cache shared by every character gives the rows of one cold grid per character."""
    t = z3_tower
    fam = cylinder_family(t, max_level=1)
    cold = []
    for chi in chars(t):
        t._cache.clear()
        cold += residual_grid(t, [chi], fam)
    warm = residual_grid(t, chars(t), fam)
    assert warm == sorted(cold, key=lambda r: (r.n, r.tag, r.chi, r.a_id, r.b_id))
    cache = {key[1:]: value for key, value in t._cache.items() if key[0] == "orbit_average"}
    a = t.group.element((1,))   # the only step element
    assert len(cache) == len(chars(t))
    for chi in chars(t):
        assert cache[(chi.coords, a.coords)] == character_orbit_average(chi, a, t.v)


def test_each_grid_row_bounds_one_value_formed_on_numerators(z3_tower, monkeypatch):
    """Every row of a grid with k = 0 and k >= 1 steps calls abs_upper once, and _deviation (abs_upper included)
    forms p - target with no Cyclo product, quotient, sum or difference."""
    t = z3_tower
    bounded, ops, inside = [], [], []
    abs_upper_, deviation = koopman.abs_upper, koopman._deviation

    def abs_spy(z, bits):
        bounded.append(z)
        return abs_upper_(z, bits)

    def deviation_spy(*args):
        inside.append(True)
        try:
            return deviation(*args)
        finally:
            inside.pop()

    for name in ("__mul__", "__rmul__", "__truediv__", "_plus"):
        def spy(self, *args, _real=getattr(Cyclo, name), _name=name):
            if inside:
                ops.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(Cyclo, name, spy)
    monkeypatch.setattr(koopman, "abs_upper", abs_spy)
    monkeypatch.setattr(koopman, "_deviation", deviation_spy)
    rows = residual_grid(t, chars(t), cylinder_family(t, max_level=1))
    assert {r.tag.split(":")[0] for r in rows} == {"even", "stagger"}
    assert len(bounded) == len(rows)
    assert ops == []
