"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored as polynomials in zeta_n reduced modulo the n-th
cyclotomic polynomial, so equality is literal coefficient equality.
Each value keeps integer numerators over one positive denominator that
shares no factor with all of them, so sums and products of integer
counts run on ints alone; the rational coefficients are read through
``Cyclo.coeffs``.  Nothing here touches floats at all.  The module also
provides certified rational enclosures (directed-rounding Taylor series
against hard-coded pi bounds) so moduli of cyclotomic numbers can be
bounded above/below by exact fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)

# pi truncated / rounded up at 59 decimal places; certified enclosure.
PI_LOWER = Fraction(314159265358979323846264338327950288419716939937510582097494, 10**59)
PI_UPPER = PI_LOWER + Fraction(1, 10**59)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (den monic up to sign)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c // lead
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_phi(nums: list[int], n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta_n (exponent-indexed list) modulo Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = list(nums)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg + 1):
                work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    while len(work) < deg:
        work.append(0)
    return tuple(work)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    if all(isinstance(c, int) for c in values):
        return list(values), 1
    fracs = [Fraction(c) for c in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _canonical(order: int, nums, den: int) -> "Cyclo":
    """The Cyclo sum(nums[j] zeta^j) / den, reduced so den > 0 and gcd(den, *nums) == 1."""
    if den < 0:
        nums, den = [-x for x in nums], -den
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    z = object.__new__(Cyclo)
    z.order, z.nums, z.den = order, tuple(nums), den
    return z


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple[tuple[int, ...], int]:
    """Integer weights w_j and a scale W with Tr(zeta_n^j) / phi(n) = w_j / W.

    zeta_n^j is a primitive d-th root of unity for d = n / gcd(j, n).  Its
    normalized trace is the mean of the primitive d-th roots, mu(d) / phi(d),
    and their sum mu(d) is minus the x^(phi(d) - 1) coefficient of Phi_d.
    """
    ds = [n // math.gcd(j, n) for j in range(_phi_degree(n))]
    scale = math.lcm(*(_phi_degree(d) for d in ds))
    return tuple(-cyclotomic_polynomial(d)[-2] * (scale // _phi_degree(d)) for d in ds), scale


class Cyclo:
    """An element of Q(zeta_n), canonical modulo the n-th cyclotomic polynomial.

    The value is sum(nums[j] * zeta_n^j) / den, with integer ``nums`` of length
    deg Phi_n, ``den > 0`` and ``gcd(den, *nums) == 1``; zero is all zeros over 1.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        nums, den = _over_common_denominator(tuple(coeffs))
        if len(nums) != _phi_degree(order):
            raise ValueError("coefficient vector has wrong length")
        # the least common denominator of reduced fractions shares no prime
        # with all the numerators, so the pair is already canonical
        self.order, self.nums, self.den = order, tuple(nums), den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, constant term first."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Cyclo":
        return _canonical(order, [0] * _phi_degree(order), 1)

    @staticmethod
    def from_fraction(q, order: int = 1) -> "Cyclo":
        (num,), den = _over_common_denominator((q,))
        v = [0] * _phi_degree(order)
        v[0] = num
        return _canonical(order, v, den)

    @staticmethod
    def root_of_unity(order: int, k: int = 1) -> "Cyclo":
        v = [0] * order
        v[k % order] = 1
        return _canonical(order, _reduce_mod_phi(v, order), 1)

    @staticmethod
    def from_exponent_counts(order: int, counts, den: int = 1) -> "Cyclo":
        """Sum of counts[e] * zeta_order^e over the nonzero int den; counts maps exponent -> rational."""
        if den == 0:
            raise ZeroDivisionError("division of a Cyclo by zero")
        nums, common = _over_common_denominator(counts.values())
        v = [0] * order
        for e, c in zip(counts, nums):
            v[e % order] += c
        return _canonical(order, _reduce_mod_phi(v, order), common * den)

    # -- order promotion ---------------------------------------------

    def promoted(self, order: int) -> "Cyclo":
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only promote to a multiple order")
        scale = order // self.order
        v = [0] * order
        for j, c in enumerate(self.nums):
            if c:
                v[j * scale] += c
        return _canonical(order, _reduce_mod_phi(v, order), self.den)

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if a.order == b.order:
            return a, b
        m = math.lcm(a.order, b.order)
        return a.promoted(m), b.promoted(m)

    # -- ring operations ----------------------------------------------

    def _plus(self, other, sign: int) -> "Cyclo":
        a, b = Cyclo._common(self, _as_cyclo(other))
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, sign * (den // b.den)
        return _canonical(a.order, [x * sa + y * sb for x, y in zip(a.nums, b.nums)], den)

    def __add__(self, other) -> "Cyclo":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return _canonical(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other) -> "Cyclo":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Cyclo":
        return _as_cyclo(other) - self

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            (num,), den = _over_common_denominator((other,))
            return _canonical(self.order, [x * num for x in self.nums], self.den * den)
        a, b = Cyclo._common(self, _as_cyclo(other))
        n = a.order
        conv = [0] * (2 * len(a.nums))
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        conv[i + j] += x * y
        return _canonical(n, _reduce_mod_phi(conv, n), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclo":
        (num,), den = _over_common_denominator((other,))
        if num == 0:
            raise ZeroDivisionError("division of a Cyclo by zero")
        return _canonical(self.order, [x * den for x in self.nums], self.den * num)

    def conjugate(self) -> "Cyclo":
        n = self.order
        v = [0] * n
        for j, c in enumerate(self.nums):
            if c:
                v[(-j) % n] += c
        return _canonical(n, _reduce_mod_phi(v, n), self.den)

    def abs_squared(self) -> "Cyclo":
        """|z|^2 = z * conj(z), straight from the numerators over den ** 2.

        x_i zeta^i times x_j zeta^-j lands on zeta^(i-j), so the product is one
        symmetric convolution of the numerators, reduced once.
        """
        n, nums = self.order, self.nums
        conv = [0] * n
        for i, x in enumerate(nums):
            if x:
                conv[0] += x * x
                for j in range(i + 1, len(nums)):
                    y = nums[j]
                    if y:
                        xy = x * y
                        conv[i - j] += xy   # the negative index is the exponent i - j + n
                        conv[j - i] += xy
        return _canonical(n, _reduce_mod_phi(conv, n), self.den * self.den)

    # -- predicates ----------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_fraction(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._common(self, other)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        # Equal values at different orders must hash alike, so hash the trace
        # over Q divided by the field degree, which promotion leaves unchanged.
        # A rational value is its own normalized trace and hashes like its Fraction.
        weights, scale = _trace_weights(self.order)
        return hash(Fraction(sum(w * x for w, x in zip(weights, self.nums)), scale * self.den))

    # -- rendering and enclosures ---------------------------------------

    def real_bounds(self, bits: int = 96) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure of the value, which must be real (self-conjugate)."""
        if self != self.conjugate():
            raise ValueError("real_bounds requires a self-conjugate value")
        lo = hi = 0
        for j, c in enumerate(self.nums):
            if not c:
                continue
            clo, chi = _cos_two_pi_numerators(j, self.order, bits)
            if c > 0:
                lo += c * clo
                hi += c * chi
            else:
                lo += c * chi
                hi += c * clo
        scale = self.den << (2 * bits)
        return Fraction(lo, scale), Fraction(hi, scale)

    def __repr__(self):
        return f"Cyclo(order={self.order}, {self.coeffs})"


def _as_cyclo(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.from_fraction(x)
    raise TypeError(f"cannot coerce {type(x)} to Cyclo")


def zeta(order: int, k: int = 1) -> Cyclo:
    return Cyclo.root_of_unity(order, k)


# -- certified enclosures ---------------------------------------------


def _round_down(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.floor(q * scale), scale)


def _round_up(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(math.ceil(q * scale), scale)


def _cos_taylor_enclosure(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of cos(x) for |x| <= 4, by alternating Taylor series."""
    if abs(x) > 4:
        raise ValueError("argument out of the reduced range")
    x2 = x * x
    term = _ONE
    total = _ONE
    i = 0
    tol = Fraction(1, 1 << (bits + 4))
    while True:
        i += 1
        term = term * x2 / ((2 * i - 1) * (2 * i))
        total += term if i % 2 == 0 else -term
        # once the ratio of consecutive terms is < 1/2 the tail is under 2*next term
        if term < tol and x2 < (2 * i + 1) * (2 * i + 2) // 2:
            rem = 2 * term
            return total - rem, total + rem
        # keep coefficient bit-size bounded
        term = _round_up(term, 4 * bits)
        total = _round_down(total, 4 * bits) if total > 0 else _round_up(-(-total), 4 * bits)
        if i > 300:
            raise ArithmeticError("cosine series failed to converge")


@lru_cache(maxsize=None)
def _cos_two_pi_enclosure(j: int, n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of cos(2*pi*j/n)."""
    j %= n
    # fold to an angle in [0, pi] using cos(2*pi - t) = cos(t)
    if 2 * j > n:
        j = n - j
    sign = 1
    if 4 * j > n:
        # angle in (pi/2, pi]: cos(t) = -cos(pi - t), pi - t = pi*(1 - 2j/n)
        sign = -1
        frac = 1 - 2 * Fraction(j, n)  # in [0, 1/2)
        xlo = PI_LOWER * frac
        xhi = PI_UPPER * frac
    else:
        xlo = 2 * Fraction(j, n) * PI_LOWER
        xhi = 2 * Fraction(j, n) * PI_UPPER
    xlo = _round_down(xlo, 2 * bits)
    xhi = _round_up(xhi, 2 * bits)
    width = xhi - xlo
    lo, hi = _cos_taylor_enclosure(xlo, bits)
    # |cos'| <= 1, so widen by the interval width
    lo, hi = lo - width, hi + width
    if sign < 0:
        lo, hi = -hi, -lo
    return _round_down(lo, 2 * bits), _round_up(hi, 2 * bits)


@lru_cache(maxsize=None)
def _cos_two_pi_numerators(j: int, n: int, bits: int) -> tuple[int, int]:
    """The enclosure of cos(2*pi*j/n) as integer numerators over 2**(2*bits)."""
    scale = 1 << (2 * bits)
    lo, hi = _cos_two_pi_enclosure(j, n, bits)
    return lo.numerator * (scale // lo.denominator), hi.numerator * (scale // hi.denominator)


def sqrt_lower(q: Fraction, bits: int = 96) -> Fraction:
    """Certified rational lower bound for sqrt(q), q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative argument")
    scale = 1 << bits
    s = math.isqrt(q.numerator * q.denominator * scale * scale)
    return Fraction(s, q.denominator * scale)


def sqrt_upper(q: Fraction, bits: int = 96) -> Fraction:
    """Certified rational upper bound for sqrt(q), q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative argument")
    scale = 1 << bits
    nd = q.numerator * q.denominator * scale * scale
    s = math.isqrt(nd)
    if s * s < nd:
        s += 1
    return Fraction(s, q.denominator * scale)


def abs_upper(z: Cyclo, bits: int = 96) -> Fraction:
    """Certified rational upper bound for |z|."""
    s = z.abs_squared()
    if s.is_rational():
        return sqrt_upper(s.as_fraction(), bits)
    _, hi = s.real_bounds(bits)
    return sqrt_upper(max(hi, _ZERO), bits)


def abs_lower(z: Cyclo, bits: int = 96) -> Fraction:
    """Certified rational lower bound for |z|."""
    s = z.abs_squared()
    if s.is_rational():
        return sqrt_lower(s.as_fraction(), bits)
    lo, _ = s.real_bounds(bits)
    return sqrt_lower(max(lo, _ZERO), bits)
