import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cfspectra.cyclotomic import (
    Cyclo,
    abs_lower,
    abs_upper,
    cyclotomic_polynomial,
    sqrt_lower,
    sqrt_upper,
)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12]


def to_complex(z: Cyclo) -> complex:
    """Float reference value of z: its coefficients against cos + i sin of the roots."""
    n = z.order
    return sum((x / z.den) * complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
               for j, x in enumerate(z.nums))


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", ORDERS)
def test_root_of_unity_has_order_n(n):
    z = Cyclo.root_of_unity(n)
    p = Cyclo.from_fraction(1)
    for k in range(1, n):
        p = p * z
        if n > 1:
            assert p != 1
    assert p * z == 1


def test_known_identities():
    w = Cyclo.root_of_unity(3)
    assert w * w + w + 1 == 0
    assert Cyclo.root_of_unity(4) * Cyclo.root_of_unity(4) == -1
    assert Cyclo.root_of_unity(6) == 1 + Cyclo.root_of_unity(3)
    # (z + z^4) for z = zeta_5 is the golden-ratio conjugate root of x^2+x-1
    t = Cyclo.root_of_unity(5) + Cyclo.root_of_unity(5, 4)
    assert t * t + t - 1 == 0


def test_mixed_order_equality():
    assert Cyclo.root_of_unity(6, 3) == Cyclo.from_fraction(-1)
    assert Cyclo.root_of_unity(12, 4) == Cyclo.root_of_unity(3)
    assert Cyclo.root_of_unity(8, 2) == Cyclo.root_of_unity(4)


coeff_st = st.integers(min_value=-4, max_value=4)


@st.composite
def cyclo_values(draw):
    n = draw(st.sampled_from(ORDERS))
    counts = {draw(st.integers(0, n - 1)): draw(coeff_st) for _ in range(draw(st.integers(1, 3)))}
    return Cyclo.from_exponent_counts(n, counts)


@given(cyclo_values(), cyclo_values(), cyclo_values())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(cyclo_values(), cyclo_values())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(cyclo_values())
def test_abs_squared_is_real_nonnegative(a):
    s = a.abs_squared()
    assert s == s.conjugate()
    lo, hi = s.real_bounds(64)
    assert hi >= 0
    ref = abs(to_complex(a)) ** 2
    assert float(lo) - 1e-6 <= ref <= float(hi) + 1e-6


@given(st.fractions(min_value=0, max_value=1000))
def test_sqrt_bounds_bracket(q):
    lo = sqrt_lower(q, 64)
    hi = sqrt_upper(q, 64)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Fraction(2, 1 << 64) * (1 + q)


def test_abs_bounds_match_float():
    z = 3 * Cyclo.root_of_unity(5) - 2 * Cyclo.root_of_unity(5, 3) + Fraction(1, 7)
    lo, hi = abs_lower(z, 80), abs_upper(z, 80)
    ref = abs(to_complex(z))
    assert float(lo) <= ref <= float(hi)
    assert float(hi - lo) < 1e-12


def test_abs_of_pure_root_is_exactly_one():
    for n in ORDERS:
        for k in range(n):
            z = Cyclo.root_of_unity(n, k)
            assert z.abs_squared() == 1
            assert abs_upper(z) == 1 == abs_lower(z)


def test_real_enclosure_agrees_with_cos():
    for n in ORDERS:
        for j in range(n):
            v = Cyclo.root_of_unity(n, j) + Cyclo.root_of_unity(n, -j)
            lo, hi = v.real_bounds(64)
            ref = 2 * math.cos(2 * math.pi * j / n)
            assert float(lo) - 1e-10 <= ref <= float(hi) + 1e-10
            assert float(hi - lo) < 1e-15


def test_rationality_detection():
    z = Cyclo.root_of_unity(3)
    assert not z.is_rational()
    assert (z + z.conjugate()).as_fraction() == -1
    assert (z * z.conjugate()).as_fraction() == 1


# -- independent oracles: sympy's Q[x]/Phi_n and mpmath at 200 digits -------------

X = sympy.Symbol("x")


def _as_poly(z: Cyclo, order: int) -> sympy.Poly:
    """z as a polynomial in x = zeta_order (order a multiple of z.order)."""
    scale = order // z.order
    terms = {(j * scale,): sympy.Rational(c.numerator, c.denominator)
             for j, c in enumerate(z.coeffs) if c}
    return sympy.Poly.from_dict(terms or {(0,): 0}, X, domain="QQ")


def _reduced(poly: sympy.Poly, n: int) -> tuple[Fraction, ...]:
    """sympy's remainder of poly mod Phi_n, constant term first, padded to deg Phi_n."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")
    rem = poly.rem(phi)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    coeffs += [Fraction(0)] * (phi.degree() - len(coeffs))
    return tuple(coeffs[:phi.degree()])


def test_cyclotomic_polynomials_match_sympy():
    for n in range(1, 61):
        want = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == [int(c) for c in want], n


@given(st.sampled_from(ORDERS), st.dictionaries(st.integers(0, 40), coeff_st, max_size=6))
def test_reduction_matches_sympy(n, counts):
    poly = sympy.Poly.from_dict({(e,): c for e, c in counts.items()} or {(0,): 0}, X,
                                domain="QQ")
    assert Cyclo.from_exponent_counts(n, counts).coeffs == _reduced(poly, n)


@given(cyclo_values(), cyclo_values())
def test_products_and_conjugates_match_sympy(a, b):
    prod = a * b
    n = math.lcm(a.order, b.order)
    assert prod.order == n
    assert prod.coeffs == _reduced(_as_poly(a, n) * _as_poly(b, n), n)
    # conjugation sends zeta to zeta^(n-1)
    conj = a.conjugate()
    flipped = _as_poly(a, a.order).compose(sympy.Poly(X ** (a.order - 1), X, domain="QQ"))
    assert conj.coeffs == _reduced(flipped, a.order)


def _mp_value(z: Cyclo):
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.expjpi(mpmath.mpf(2 * j) / z.order)
                       for j, c in enumerate(z.coeffs) if c)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@given(cyclo_values())
def test_enclosures_bracket_the_200_digit_value(z):
    with mpmath.workdps(200):
        eps = mpmath.mpf(10) ** -150
        size = abs(_mp_value(z))
        for bits in (32, 96):
            lo, hi = abs_lower(z, bits), abs_upper(z, bits)
            assert _mp(lo) <= size + eps and size <= _mp(hi) + eps, (z, bits)
            real = z + z.conjugate()
            rlo, rhi = real.real_bounds(bits)
            value = 2 * mpmath.re(_mp_value(z))
            assert _mp(rlo) <= value + eps and value <= _mp(rhi) + eps, (z, bits)


# -- the integer-numerator representation ------------------------------------------

frac_coeff_st = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def rational_cyclo_values(draw):
    n = draw(st.sampled_from(ORDERS))
    counts = {draw(st.integers(0, n - 1)): draw(frac_coeff_st) for _ in range(draw(st.integers(1, 3)))}
    return Cyclo.from_exponent_counts(n, counts)


# The sympy and mpmath oracles above, run through their unwrapped bodies on
# rational coefficients.

@given(st.sampled_from(ORDERS), st.dictionaries(st.integers(0, 40), frac_coeff_st, max_size=6))
def test_rational_reduction_matches_sympy(n, counts):
    test_reduction_matches_sympy.hypothesis.inner_test(n, counts)


@given(rational_cyclo_values(), st.one_of(cyclo_values(), rational_cyclo_values()))
def test_rational_products_and_conjugates_match_sympy(a, b):
    test_products_and_conjugates_match_sympy.hypothesis.inner_test(a, b)


@given(rational_cyclo_values())
def test_rational_enclosures_bracket_the_200_digit_value(z):
    test_enclosures_bracket_the_200_digit_value.hypothesis.inner_test(z)


@given(rational_cyclo_values(), st.one_of(cyclo_values(), rational_cyclo_values()),
       frac_coeff_st.filter(bool))
def test_numerators_stay_canonical(a, b, q):
    assert (a - b) + b == a and (a * q) / q == a
    for z in (a, a + b, a - b, a - a, a * b, a * q, a / q, -a, a.conjugate(),
              a.promoted(2 * a.order), Cyclo.zero(a.order)):
        assert z.den > 0
        assert math.gcd(z.den, *z.nums) == 1
        assert all(type(x) is int for x in z.nums)
        if z == 0:
            assert z.nums == (0,) * len(z.nums) and z.den == 1


@given(st.sampled_from(ORDERS).flatmap(
    lambda n: st.lists(st.one_of(coeff_st, frac_coeff_st), min_size=len(cyclotomic_polynomial(n)) - 1,
                       max_size=len(cyclotomic_polynomial(n)) - 1).map(lambda c: (n, c))))
def test_coeffs_read_back_as_fractions(case):
    n, coeffs = case
    assert Cyclo(n, coeffs).coeffs == tuple(map(Fraction, coeffs))


def test_integer_counts_build_no_fraction(monkeypatch):
    import cfspectra.cyclotomic as cyclotomic

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cyclotomic, "Fraction", refuse)
    z = Cyclo.from_exponent_counts(12, {0: 3, 5: -2, 17: 4, 6: 0})
    monkeypatch.undo()
    assert z == 3 - 2 * Cyclo.root_of_unity(12, 5) + 4 * Cyclo.root_of_unity(12, 17)


@given(st.sampled_from(ORDERS), st.dictionaries(st.integers(0, 40), st.one_of(coeff_st, frac_coeff_st),
                                                max_size=6),
       st.integers(-10**30, 10**30).filter(bool))
def test_divided_counts_equal_counts_then_division(n, counts, den):
    z = Cyclo.from_exponent_counts(n, counts, den)
    assert z == Cyclo.from_exponent_counts(n, counts) / den
    assert z.den > 0 and math.gcd(z.den, *z.nums) == 1
    assert all(type(x) is int for x in z.nums)
    if z == 0:
        assert z.den == 1
    with pytest.raises(ZeroDivisionError):
        Cyclo.from_exponent_counts(n, counts, 0)


def test_promoted_values_hash_alike():
    assert Cyclo.root_of_unity(3) == Cyclo.root_of_unity(3).promoted(6)
    assert len({Cyclo.root_of_unity(3), Cyclo.root_of_unity(3).promoted(6)}) == 1
    assert len({Cyclo.root_of_unity(4), Cyclo.root_of_unity(8, 2)}) == 1
    assert len({Cyclo.root_of_unity(6, 3), Cyclo.from_fraction(-1), -1}) == 1
    assert hash(Cyclo.from_fraction(Fraction(3, 7), 12)) == hash(Fraction(3, 7))


@given(st.one_of(cyclo_values(), rational_cyclo_values()), st.sampled_from([2, 3, 4, 5]))
def test_equal_values_hash_alike(z, k):
    w = z.promoted(k * z.order)
    assert w == z and hash(w) == hash(z)
    if z.is_rational():
        assert hash(z) == hash(z.as_fraction())


# -- |z|^2 from the numerators against the product route -----------------------------


def _product_route_bounds(z: Cyclo, bits: int) -> tuple[Fraction, Fraction]:
    """abs_lower and abs_upper through z * conj(z) as a Cyclo product, then its rational value or real_bounds."""
    s = z * z.conjugate()
    if s.is_rational():
        q = s.as_fraction()
        return sqrt_lower(q, bits), sqrt_upper(q, bits)
    lo, hi = s.real_bounds(bits)
    return sqrt_lower(max(lo, Fraction(0)), bits), sqrt_upper(max(hi, Fraction(0)), bits)


@st.composite
def enclosure_values(draw):
    """Zero, a positive or negative rational, a signed root of unity or a general value, at an order 1-12."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("zero", "rational", "negative", "root", "general")))
    if kind == "zero":
        return Cyclo.zero(n)
    if kind in ("rational", "negative"):
        q = draw(st.fractions(0, 50, max_denominator=10**9).filter(bool))
        return Cyclo.from_fraction(q if kind == "rational" else -q, n)
    if kind == "root":
        return draw(st.sampled_from((1, -1))) * Cyclo.root_of_unity(n, draw(st.integers(0, n - 1)))
    counts = draw(st.dictionaries(st.integers(0, n - 1), st.fractions(-10**6, 10**6, max_denominator=10**12),
                                  min_size=1, max_size=n))
    return Cyclo.from_exponent_counts(n, counts, draw(st.integers(1, 10**12)))


@settings(max_examples=300, derandomize=True)
@given(enclosure_values(), st.sampled_from((32, 96, 128)))
def test_abs_bounds_equal_the_product_route(z, bits):
    """abs_squared is z * conj(z) numerator for numerator, and both bounds are the product route's exact Fractions."""
    s, want = z.abs_squared(), z * z.conjugate()
    assert (s.order, s.nums, s.den) == (want.order, want.nums, want.den)
    lo, hi = abs_lower(z, bits), abs_upper(z, bits)
    assert type(lo) is Fraction and type(hi) is Fraction
    assert (lo, hi) == _product_route_bounds(z, bits)
    if z != z.conjugate():
        with pytest.raises(ValueError, match="real_bounds requires a self-conjugate value"):
            z.real_bounds(bits)
