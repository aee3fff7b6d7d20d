"""Finite abelian groups: elements, subgroups, automorphisms, characters.

Groups are given by invariant factors d_1 | d_2 | ... | d_r.  Everything
is exact and enumerable, which is what makes the orbit statistics and the
catalog search over small groups fully checkable.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cyclotomic import Cyclo

_ENUMERATION_LIMIT = 100_000


class LimitExceeded(RuntimeError):
    """A workload past a documented bound, refused before its work starts."""


@dataclass(frozen=True)
class FinAbGroup:
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError("each invariant factor must divide the next")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def element(self, coords) -> "Element":
        if len(coords) != self.rank:
            raise ValueError("coordinate count does not match rank")
        return Element(self, tuple(c % d for c, d in zip(coords, self.invariant_factors)))

    def identity(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def elements(self):
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield Element(self, coords)

    def element_index(self, el: "Element") -> int:
        idx = 0
        for c, d in zip(el.coords, self.invariant_factors):
            idx = idx * d + c
        return idx

    def element_from_index(self, idx: int) -> "Element":
        coords = []
        for d in reversed(self.invariant_factors):
            coords.append(idx % d)
            idx //= d
        return Element(self, tuple(reversed(coords)))

    def __repr__(self):
        return "Z" + "xZ".join(str(d) for d in self.invariant_factors) if self.rank else "0"


@dataclass(frozen=True)
class Element:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __add__(self, other: "Element") -> "Element":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return Element(
            self.group,
            tuple((a + b) % d for a, b, d in zip(self.coords, other.coords, self.group.invariant_factors)),
        )

    def __neg__(self) -> "Element":
        return Element(self.group, tuple((-a) % d for a, d in zip(self.coords, self.group.invariant_factors)))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def additive_order(self) -> int:
        return math.lcm(1, *(d // math.gcd(c, d) for c, d in zip(self.coords, self.group.invariant_factors)))

    def __repr__(self):
        return "(" + ",".join(map(str, self.coords)) + ")"


class Automorphism:
    """Group automorphism given by an integer matrix acting on coordinates.

    Column j is the image of the j-th standard generator.  Index-level code
    reads v through ``perm`` and ``orbits``, both built once per object.
    Construction reduces the entries and checks the shape, well-definedness,
    and bijectivity as a trivial kernel: only index 0 maps to 0.  With
    ``check=False`` the matrix must already be square and reduced, and is
    taken as given.
    """

    def __init__(self, group: FinAbGroup, matrix, check: bool = True):
        self.group = group
        if not check:
            self.matrix = tuple(map(tuple, matrix))
            return
        self.matrix = tuple(tuple(int(x) % group.invariant_factors[i] for x in row) for i, row in enumerate(matrix))
        if len(self.matrix) != group.rank or any(len(r) != group.rank for r in self.matrix):
            raise ValueError("matrix shape does not match group rank")
        self._validate()

    def _validate(self):
        if not _is_homomorphism(self.group.invariant_factors, self.matrix):
            raise ValueError("matrix does not define a homomorphism")
        if self.group.order > _ENUMERATION_LIMIT:
            raise ValueError("group too large for the bijectivity check")
        if self.perm.count(0) != 1:
            raise ValueError("matrix does not define a bijection")

    @cached_property
    def perm(self) -> tuple[int, ...]:
        """v as a permutation of element indices: perm[i] indexes v(element i)."""
        group = self.group
        rows = _translations(group)   # one lookup per perm, not one per column
        images = [0]
        # indices run with the last coordinate fastest, so build from the last column out:
        # each column's multiples translate the whole block built so far
        for j in reversed(range(group.rank)):
            col = 0   # the index of column j, whose entries are already reduced
            for row, d in zip(self.matrix, group.invariant_factors):
                col = col * d + row[j]
            shift, block = rows[col], images
            images = list(block)
            for _ in range(group.invariant_factors[j] - 1):
                block = [shift[x] for x in block]
                images.extend(block)
        return tuple(images)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Forward orbit of each element index over one period: (i, perm[i], ...)."""
        perm = self.perm
        orbits: list = [None] * len(perm)
        for i in range(len(perm)):
            if orbits[i] is None:
                cycle = [i]
                while perm[cycle[-1]] != i:
                    cycle.append(perm[cycle[-1]])
                for k, x in enumerate(cycle):
                    orbits[x] = tuple(cycle[k:] + cycle[:k])
        return tuple(orbits)

    def __call__(self, g: Element) -> Element:
        d = self.group.invariant_factors
        return Element(
            self.group,
            tuple(sum(self.matrix[i][j] * g.coords[j] for j in range(len(d))) % d[i] for i in range(len(d))),
        )

    @staticmethod
    def identity(group: FinAbGroup) -> "Automorphism":
        return Automorphism(group, [[1 if i == j else 0 for j in range(group.rank)] for i in range(group.rank)],
                            check=False)

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.group == other.group and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.group, self.matrix))

    def __repr__(self):
        return f"Aut{self.matrix}"


def _is_homomorphism(d: tuple[int, ...], matrix) -> bool:
    """Is the image of each generator j killed by d_j?"""
    r = len(d)
    return all((matrix[i][j] * d[j]) % d[i] == 0 for i in range(r) for j in range(r))


class Subgroup:
    """Subgroup held as the bitmask of its element indices, closed at construction."""

    def __init__(self, group: FinAbGroup, generators):
        self.group = group
        self.generators = tuple(generators)
        if any(g.group != group for g in self.generators):
            raise ValueError("elements of different groups")
        self.mask = _span(group, [group.element_index(g) for g in self.generators])
        if group.order % self.order != 0:
            raise AssertionError("subgroup order must divide group order")

    @cached_property
    def indices(self) -> tuple[int, ...]:
        """The member element indices, ascending."""
        return tuple(_bit_indices(self.mask))

    @cached_property
    def members(self) -> frozenset[Element]:
        return frozenset(self.elements_sorted())

    def __contains__(self, el: Element) -> bool:
        return el.group == self.group and bool(self.mask >> self.group.element_index(el) & 1)

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def elements_sorted(self):
        # index order is coordinate order
        return [self.group.element_from_index(i) for i in self.indices]

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.group == other.group and self.mask == other.mask

    def __hash__(self):
        return hash((self.group, self.mask))

    def __repr__(self):
        gens = ",".join(repr(g) for g in self.generators)
        return f"<{gens}>"


def _closure(mul, gens) -> int:
    """Bitmask of the subgroup generated by the element indices ``gens``."""
    mask, frontier = 1, [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = mul[s][x]
            if not mask >> y & 1:
                mask |= 1 << y
                frontier.append(y)
    return mask


def _span(group: FinAbGroup, gens) -> int:
    """``_closure`` over the translation rows of the generators only, never the whole table."""
    return _closure(_translations(group), gens)


def subgroup_lattice(mul) -> list[tuple[int, ...]]:
    """Generator indices of every subgroup of the group with index table ``mul``.

    Breadth-first closure from the trivial subgroup: each subgroup found is
    extended by every element index outside it, in index order, and keeps
    the generators it was first found with.  Sorted by (order, member indices).
    """
    gens_of = {1: ()}                           # subgroup bitmask -> generator indices
    frontier = [1]
    while frontier:
        mask = frontier.pop()
        for g in range(len(mul)):
            if mask >> g & 1:
                continue
            gens = gens_of[mask] + (g,)
            closed = _closure(mul, gens)
            if closed not in gens_of:
                gens_of[closed] = gens
                frontier.append(closed)
    return [gens_of[m] for m in sorted(gens_of, key=lambda m: (m.bit_count(), _bit_indices(m)))]


def _bit_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class Character:
    """Character of a finite abelian group, itself coordinatized by the dual group."""

    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(c % d for c, d in zip(self.coords, self.group.invariant_factors))
        object.__setattr__(self, "coords", cs)

    @property
    def root_order(self) -> int:
        return self.group.exponent

    def exponent(self, g: Element) -> int:
        """Pairing exponent e with chi(g) = zeta_L^e, L the group exponent."""
        L = self.root_order
        return sum(c * x * (L // d) for c, x, d in zip(self.coords, g.coords, self.group.invariant_factors)) % L

    def value(self, g: Element) -> Cyclo:
        return Cyclo.root_of_unity(self.root_order, self.exponent(g))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __mul__(self, other: "Character") -> "Character":
        return Character(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __repr__(self):
        return "chi" + repr(self.coords)


# -- element-index tables ----------------------------------------------------
# Hot loops carry elements as their indices 0..order-1 (``element_index``).


class _Translations(dict):
    """A group's element-index translation rows, each built when first asked for: [c][i] indexes element i + c."""

    def __init__(self, group: FinAbGroup):
        self.group = group

    def __missing__(self, c: int) -> tuple[int, ...]:
        g = self.group.element_from_index(c)
        row = self[c] = tuple(self.group.element_index(x + g) for x in self.group.elements())
        return row


_translations = lru_cache(maxsize=None)(_Translations)


@lru_cache(maxsize=None)
def addition_table(group: FinAbGroup) -> tuple[tuple[int, ...], ...]:
    """Element-index addition: add[i][j] indexes element i + element j."""
    return tuple(map(_translations(group).__getitem__, range(group.order)))


@lru_cache(maxsize=None)
def negation_table(group: FinAbGroup) -> tuple[int, ...]:
    """Element-index negation: neg[i] indexes -(element i)."""
    return tuple(group.element_index(-group.element_from_index(i)) for i in range(group.order))


@lru_cache(maxsize=None)
def exponent_table(chi: Character) -> tuple[int, ...]:
    """Character exponents by element index: chi(element i) = zeta_L^table[i]."""
    G = chi.group
    return tuple(chi.exponent(G.element_from_index(i)) for i in range(G.order))


def all_characters(group: FinAbGroup):
    for coords in itertools.product(*(range(d) for d in group.invariant_factors)):
        yield Character(group, coords)


def dual_automorphism(v: Automorphism) -> Automorphism:
    """The automorphism of the dual group sending chi to chi o v."""
    d = v.group.invariant_factors
    L = v.group.exponent
    r = v.group.rank
    m = [[0] * r for _ in range(r)]
    for j in range(r):
        for i in range(r):
            num = v.matrix[i][j] * (L // d[i])
            if num % (L // d[j]) != 0:
                raise AssertionError("dual matrix entry is not integral")
            m[j][i] = (num // (L // d[j])) % d[j]
    return Automorphism(v.group, m, check=False)


# -- orbit statistics ----------------------------------------------------


def _orbit_indices(v: Automorphism, g: Element) -> tuple[int, ...]:
    if g.group != v.group:
        raise ValueError("element and automorphism live on different groups")
    return v.orbits[v.group.element_index(g)]


def orbit(v: Automorphism, g: Element) -> list[Element]:
    """The v-orbit {v^i(g) : i in Z} in order of first appearance."""
    return [v.group.element_from_index(i) for i in _orbit_indices(v, g)]


def least_period(v: Automorphism, g: Element) -> int:
    """Least p > 0 with v^p(g) = g; equals the orbit length in a finite group."""
    return len(_orbit_indices(v, g))


def multiplicity_set(group: FinAbGroup, H: Subgroup, v: Automorphism) -> frozenset[int]:
    """Orbit-in-subgroup counts over all nonzero elements of H."""
    return _orbit_counts(_cycle_masks(v.perm), H.mask & ~1)


def _orbit_counts(cycles: tuple[int, ...], mask: int) -> frozenset[int]:
    """The multiplicity set from v's cycle masks and H's mask: the v-orbit of a nonzero h is its cycle."""
    return frozenset((c & mask).bit_count() for c in cycles if c & mask)


def multiplicity_set_naive(group: FinAbGroup, H: Subgroup, v: Automorphism) -> frozenset[int]:
    """Independent recount: repeated application of v, no orbit reuse or caching."""
    counts = set()
    for h in H.elements_sorted():
        if h.is_identity():
            continue
        hits = 0
        x = h
        while True:
            if x in H.members:
                hits += 1
            x = v(x)
            if x == h:
                break
        counts.add(hits)
    return frozenset(counts)


def character_orbit_average(chi: Character, b: Element, v: Automorphism) -> Cyclo:
    """(1/p) * sum of chi(v^i(b)) over one least period p of b under v."""
    orb = _orbit_indices(v, b)
    exponent = exponent_table(chi)
    counts = Counter(exponent[i] for i in orb)
    return Cyclo.from_exponent_counts(chi.root_order, counts, len(orb))


# -- separation witnesses --------------------------------------------------


class SameOrbit(Exception):
    """The two inputs lie on the same dual-automorphism orbit."""


@dataclass
class WitnessResult:
    witness: Element | None
    value_a: Cyclo | None = None
    value_b: Cyclo | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None


def same_dual_orbit(chi: Character, xi: Character, v: Automorphism) -> bool:
    vhat = dual_automorphism(v)
    return Element(xi.group, xi.coords) in orbit(vhat, Element(chi.group, chi.coords))


def separation_witness(chi: Character, xi: Character, v: Automorphism) -> WitnessResult:
    """An element b with exactly distinct orbit averages for chi and xi.

    Raises SameOrbit when chi and xi lie on one dual orbit (no witness can
    exist there: the averages agree identically).
    """
    if same_dual_orbit(chi, xi, v):
        raise SameOrbit(f"{chi} and {xi} lie on the same dual orbit")
    for b in sorted(v.group.elements(), key=lambda e: e.coords):
        la = character_orbit_average(chi, b, v)
        lb = character_orbit_average(xi, b, v)
        if la != lb:
            return WitnessResult(b, la, lb)
    return WitnessResult(None)


# -- annihilators and duality ----------------------------------------------


def annihilator(K: FinAbGroup, H: Subgroup) -> list[Character]:
    """All characters of K vanishing on H; exactly order(K)/order(H) of them."""
    out = [chi for chi in all_characters(K) if all(chi.exponent(h) == 0 for h in H.members)]
    assert len(out) == K.order // H.order
    return sorted(out, key=lambda c: c.coords)


def annihilator_subgroup(K: FinAbGroup, H: Subgroup) -> Subgroup:
    """The annihilator of H realized as a subgroup of the dual group."""
    chars = annihilator(K, H)
    return Subgroup(K, [Element(K, c.coords) for c in chars])


# -- enumeration -----------------------------------------------------------


@lru_cache(maxsize=None)
def abelian_group_types(order: int) -> tuple[tuple[int, ...], ...]:
    """All invariant-factor chains d_1 | ... | d_r with product = order, lex sorted."""
    if order == 1:
        return ((),)

    def chains(n: int, max_last: int):
        # chains with product n whose last factor divides max_last
        out = []
        for d in range(2, n + 1):
            if n % d == 0 and max_last % d == 0:
                if d == n:
                    out.append((d,))
                for rest in chains(n // d, d):
                    out.append(rest + (d,))
        return out

    return tuple(sorted(chains(order, order)))


def all_subgroups(group: FinAbGroup) -> list[Subgroup]:
    """Every subgroup, by ``subgroup_lattice`` over the addition table; deterministic order."""
    return [Subgroup(group, [group.element_from_index(i) for i in gens])
            for gens in subgroup_lattice(addition_table(group))]


def automorphisms(group: FinAbGroup):
    """All automorphisms, by matrix enumeration over exact-order generator images."""
    d = group.invariant_factors
    r = group.rank
    if r == 0:
        yield Automorphism(group, [], check=False)
        return
    candidates = []
    for j in range(r):
        cands = [g for g in group.elements() if g.additive_order() == d[j]]
        candidates.append(sorted(cands, key=lambda e: e.coords))
    for cols in itertools.product(*candidates):
        matrix = [[cols[j].coords[i] for j in range(r)] for i in range(r)]
        if not _is_homomorphism(d, matrix):
            continue
        aut = Automorphism(group, matrix, check=False)
        if aut.perm.count(0) == 1:   # a trivial kernel: v is a bijection
            yield aut


@dataclass
class CatalogRecord:
    target: frozenset[int]
    group: FinAbGroup
    subgroup: Subgroup
    automorphism: Automorphism
    verified: bool


# Most candidate matrices ``automorphisms`` may test for one group of the
# catalog.  Z2^4 (50,625), Z2^3xZ4 (54,000) and Z3^3 (17,576) pass; Z2^5
# (31^5 = 28,629,151, hours of enumeration) does not.
_AUT_GUARD = 10**6


@lru_cache(maxsize=None)
def _candidate_matrices(factors: tuple[int, ...]) -> int:
    """The matrices ``automorphisms`` tests: exact-order images per generator, multiplied."""
    orders: dict[int, int] = {}
    for cs in itertools.product(*(range(d) for d in factors)):
        o = math.lcm(1, *(d // math.gcd(c, d) for c, d in zip(cs, factors)))
        orders[o] = orders.get(o, 0) + 1
    return math.prod(orders.get(d, 0) for d in factors)


class _GroupScan:
    """One group's catalog enumeration, advanced on demand and shared by every query.

    ``first`` maps each multiplicity set met so far to the first (v, H) that
    produces it in the order of ``automorphisms`` x ``all_subgroups``, which
    is the order ``catalog_search`` reports hits in.  Each subgroup is kept
    as the bitmask of its nonzero element indices, and each v's ``perm`` is
    cut into the bitmasks of its cycles; ``_orbit_counts`` turns the two into
    the multiplicity set, as it does for ``multiplicity_set``.
    """

    def __init__(self, factors: tuple[int, ...]):
        self.group = FinAbGroup(factors)
        self.subgroups = all_subgroups(self.group)
        self.masks = [H.mask & ~1 for H in self.subgroups]
        self.first: dict[frozenset[int], tuple[Automorphism, Subgroup]] = {}
        self.exhausted = False
        self._auts = automorphisms(self.group)
        self._taken = 0          # automorphisms drawn from the generator
        self._pending = None     # drawn but not yet committed to ``first``
        self._partitions: set[tuple[int, ...]] = set()

    def find(self, E: frozenset[int]) -> tuple[Automorphism, Subgroup] | None:
        while E not in self.first and not self.exhausted:
            self._advance()
        return self.first.get(E)

    def _advance(self):
        if self._pending is None:
            try:
                self._pending = next(self._auts)
            except StopIteration:
                self.exhausted = True
                return
            except BaseException:
                # a generator that raised is finished: resume a fresh one past what was taken
                self._auts = itertools.islice(automorphisms(self.group), self._taken, None)
                raise
            self._taken += 1
        aut = self._pending
        cycles = _cycle_masks(aut.perm)
        # automorphisms with the same cycles (say v and v^-1) give the same sets
        if cycles not in self._partitions:
            new: dict[frozenset[int], int] = {}
            for i, m in enumerate(self.masks):
                new.setdefault(_orbit_counts(cycles, m), i)
            for E, i in new.items():
                self.first.setdefault(E, (aut, self.subgroups[i]))
            self._partitions.add(cycles)
        self._pending = None


@lru_cache(maxsize=None)
def _group_scan(factors: tuple[int, ...]) -> _GroupScan:
    return _GroupScan(factors)


def _cycle_masks(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Bitmasks of the cycles of perm through nonzero indices, by least member."""
    seen = 1
    cycles = []
    for i in range(1, len(perm)):
        if seen >> i & 1:
            continue
        c = 0
        x = i
        while not c >> x & 1:
            c |= 1 << x
            x = perm[x]
        seen |= c
        cycles.append(c)
    return tuple(cycles)


def catalog_search(E, bound: int) -> CatalogRecord | None:
    """Exhaustive search for (G, H, v) with multiplicity_set == E, order <= bound.

    Returns the first hit in a deterministic enumeration order, re-verified
    with the independent naive recount, or None when the bound is too small.
    Each group's enumeration is kept for the life of the process and resumed
    by later queries.  Raises LimitExceeded on reaching a group with
    more than ``_AUT_GUARD`` candidate automorphism matrices.
    """
    E = frozenset(int(x) for x in E)
    if not E or any(x < 1 for x in E):
        raise ValueError("target must be a nonempty set of positive integers")
    if bound < 2:
        raise ValueError(f"order bound must be at least 2 (bound = {bound})")
    for order in range(2, bound + 1):
        for factors in abelian_group_types(order):
            n = _candidate_matrices(factors)
            if n > _AUT_GUARD:
                raise LimitExceeded(
                    f"catalog search for {sorted(E)} reached {FinAbGroup(factors)!r}, whose "
                    f"automorphism enumeration would test {n:,} matrices (guard {_AUT_GUARD:,}); "
                    f"use a bound below {order}")
            scan = _group_scan(factors)
            hit = scan.find(E)
            if hit is not None:
                aut, H = hit
                if multiplicity_set_naive(scan.group, H, aut) != E:
                    raise AssertionError("cycle-mask and naive recounts disagree")
                return CatalogRecord(E, scan.group, H, aut, verified=True)
    return None


# -- serialization ----------------------------------------------------------


def format_triple(group: FinAbGroup, H: Subgroup, v: Automorphism) -> str:
    lines = [
        f"group = [{', '.join(map(str, group.invariant_factors))}]",
        "subgroup_gens = [" + ", ".join("[" + ", ".join(map(str, g.coords)) + "]"
                                        for g in _minimal_generators(H)) + "]",
        "aut = [" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in v.matrix) + "]",
    ]
    return "\n".join(lines)


def _minimal_generators(H: Subgroup) -> list[Element]:
    """Greedy generators in index order: each member outside the span so far joins."""
    gens: list[int] = []
    span = 1
    for i in H.indices:
        if span == H.mask:
            break
        if not span >> i & 1:
            gens.append(i)
            span = _span(H.group, gens)
    return [H.group.element_from_index(i) for i in gens]


def _parse_int_list(text: str) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected a bracketed list: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return []
    depth = 0
    parts, cur = [], ""
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    out = []
    for p in parts:
        p = p.strip()
        out.append(_parse_int_list(p) if p.startswith("[") else int(p))
    return out


def parse_triple(text: str) -> tuple[FinAbGroup, Subgroup, Automorphism]:
    """The triple written as ``key = value`` fields, one per line or separated by ``;``."""
    fields = {}
    for line in text.replace(";", "\n").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, val = line.partition("=")
        fields[key.strip()] = val.strip()
    missing = [key for key in ("group", "subgroup_gens", "aut") if key not in fields]
    if missing:
        raise ValueError(f"triple is missing {', '.join(missing)}")
    group = FinAbGroup(tuple(_parse_int_list(fields["group"])))
    gens = [group.element(tuple(c)) for c in _parse_int_list(fields["subgroup_gens"])]
    aut = Automorphism(group, _parse_int_list(fields["aut"]))   # refuses a group past _ENUMERATION_LIMIT
    return group, Subgroup(group, gens), aut
