"""Finite unitary models: tensor/symmetric powers and eigenvalue multiplicities.

The exact mode works with diagonal unitaries whose angles are rational turns
p/q chosen free of small integer relations; eigenvalues of restricted tensor
powers are then exact fractions mod 1 and multiplicity counting is literal.
The floating mode takes arbitrary unitary matrices and clusters eigenvalues
with a stability audit.

Exact turns are held as integer numerators over one common denominator q
(the lcm of the turn denominators), so every eigen-turn of a restricted
power is a sum of numerators mod q and the checks add and count ints.
Fractions are built only at the public boundary: ``FiniteUnitary.turns``,
``RestrictedPower.eigen_turns`` and the keys of ``multiplicity_function``.

A restriction picks the least tuple of each permutation orbit through value
patterns: a tuple is least in its orbit exactly when its order-preserving
relabelling onto 0..m-1 is.  One cached table per (d, k) lists every tuple
in code order with its pattern and content, and one cached set per (group,
d, k) holds the least patterns, so a restriction is a single filter pass.
The exact mode is pure Python; numpy is imported only inside the float-mode
functions (``FiniteUnitary(matrix=...)``, ``to_matrix``, the float branch of
``multiplicity_function`` and ``float_cluster_check``).

Continuity of spectrum has no finite-dimensional counterpart; its working
shadow here is relation-freeness of the angles, which makes the permutation
action on index tuples with distinct entries behave exactly like the action
on generic fibers.  Multiplicity assertions are made on that free part of
the spectrum; eigenvalues carried by repeated-index tuples are reported
separately as the vanishing-proportion degenerate part.

A (d, k) table enumerates a (2k+1)^ceil(d/2) half-box of relation sums and
d^k index tuples per restriction.  Past ``_SPECTRA_GUARD`` either count is
refused up front with ``SpectraGuardExceeded``, which ``cfspectra spectra``
reports as one ``limit error:`` line and exit 2; a non-positive d or k is a
``config error:`` line and exit 2, both before any table line is printed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .groups import subgroup_lattice
from .tower import Report

_CLUSTER_TOL = 1e-9

# The most relation sums or index tuples one spectra table may enumerate:
# d <= 10 at k = 3, 4 and d <= 14 at k = 2, each well under a second.
_SPECTRA_GUARD = 100_000


class SpectraGuardExceeded(RuntimeError):
    """A spectra table would enumerate more than ``_SPECTRA_GUARD`` sums or tuples."""


def _guard(size: int, what: str) -> None:
    if size > _SPECTRA_GUARD:
        raise SpectraGuardExceeded(f"{what} would enumerate {size:,} "
                                   f"(guard {_SPECTRA_GUARD:,}); lower d or k")


# -- unitaries ---------------------------------------------------------------


class FiniteUnitary:
    """A unitary in exact-diagonal form (rational turns) or as a float matrix.

    In exact form ``turns[i] == Fraction(nums[i], q)`` with ``q`` the lcm of
    the turn denominators.
    """

    def __init__(self, turns=None, matrix=None):
        if (turns is None) == (matrix is None):
            raise ValueError("give exactly one of turns or matrix")
        if turns is not None:
            self.turns = tuple(Fraction(t) % 1 for t in turns)
            self.q = math.lcm(*(t.denominator for t in self.turns))
            self.nums = tuple(t.numerator * (self.q // t.denominator) for t in self.turns)
            self.matrix = None
            self.dim = len(self.turns)
        else:
            import numpy as np

            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("matrix must be square")
            if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12):
                raise ValueError("matrix is not unitary within 1e-12")
            self.turns = self.q = self.nums = None
            self.matrix = m
            self.dim = m.shape[0]

    @property
    def exact(self) -> bool:
        return self.turns is not None

    def to_matrix(self):
        """The unitary as a complex numpy matrix."""
        if self.matrix is not None:
            return self.matrix
        import numpy as np

        return np.diag(np.exp(2j * np.pi * np.array([float(t) for t in self.turns])))

    def eigen_turns(self) -> tuple[Fraction, ...]:
        if not self.exact:
            raise ValueError("exact eigenvalues require diagonal-turn form")
        return self.turns


@lru_cache(maxsize=32)
def relation_free_turns(d: int, k: int) -> tuple[Fraction, ...]:
    """Angles p_i/q with no integer relation sum(n_i * theta_i) in Z, |n_i| <= k.

    Chosen as powers of a base exceeding k, so any small relation would be a
    vanishing base-B expansion; verified over the whole (2k+1)^d coefficient
    box before returning.  Also refuses a (d, k) table past the guard.
    """
    if d < 1 or k < 1:
        raise ValueError(f"dimension and power must be positive (d = {d}, k = {k})")
    _guard(max((2 * k + 1) ** -(-d // 2), d**k), f"spectra table d = {d}, k = {k}")
    B = 2 * k + 1
    ps = [B**i for i in range(d)]
    q = 2 * k * sum(ps) + 1
    if _has_relation(ps, q, k):
        raise AssertionError("relation found; base choice is broken")
    return tuple(Fraction(p, q) for p in ps)


def _box_sums(ps, q: int, k: int) -> list[int]:
    """sum(n_i * p_i) mod q for every n in [-k, k]^len(ps), in product order."""
    sums = [0]
    for p in ps:
        sums = [(s + c * p) % q for s in sums for c in range(-k, k + 1)]
    return sums


def _has_relation(ps, q: int, k: int) -> bool:
    """Whether some nonzero n in [-k, k]^len(ps) has sum(n_i * p_i) = 0 mod q.

    Meet in the middle: n splits into a left and a right half, and a relation
    is a left sum equal to minus a right sum, other than both halves zero.
    """
    h = -(-len(ps) // 2)
    left = Counter(_box_sums(ps[:h], q, k))
    right = _box_sums(ps[h:], q, k)
    del right[len(right) // 2]        # the zero right half, met only by a nonzero left one
    return left[0] > 1 or any(-r % q in left for r in right)


def generic_diagonal(d: int, k: int) -> FiniteUnitary:
    """A diagonal unitary with relation-free angles, safe for k-fold powers."""
    return FiniteUnitary(turns=relation_free_turns(d, k))


# -- permutation groups --------------------------------------------------------


class PermGroup:
    """A subgroup of the symmetric group on k points, as tuples of images."""

    def __init__(self, k: int, generators):
        self.k = k
        gens = [tuple(g) for g in generators]
        ident = tuple(range(k))
        elems = {ident}
        frontier = [ident]
        while frontier:
            g = frontier.pop()
            for s in gens:
                t = tuple(s[g[i]] for i in range(k))
                if t not in elems:
                    elems.add(t)
                    frontier.append(t)
        self.elements = sorted(elems)
        if math.factorial(k) % len(self.elements) != 0:
            raise AssertionError("subgroup order must divide k!")

    @property
    def order(self) -> int:
        return len(self.elements)

    @staticmethod
    def symmetric(k: int) -> "PermGroup":
        if k == 1:
            return PermGroup(1, [])
        gens = [tuple([1, 0] + list(range(2, k)))]
        if k > 2:
            gens.append(tuple(list(range(1, k)) + [0]))
        return PermGroup(k, gens)

    @staticmethod
    def trivial(k: int) -> "PermGroup":
        return PermGroup(k, [])

    def __repr__(self):
        return f"PermGroup(k={self.k}, order={self.order})"


def all_subgroups_sym(k: int) -> tuple[PermGroup, ...]:
    """Every subgroup of the symmetric group on k points (1 <= k <= 4).

    Sorted by (order, elements); cached per k, so callers share one tuple.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"subgroup enumeration supported for 1 <= k <= 4 only (k = {k})")
    return _subgroup_lattice(k)


@lru_cache(maxsize=4)
def _subgroup_lattice(k: int) -> tuple[PermGroup, ...]:
    """``subgroup_lattice`` over the index multiplication table of S_k."""
    perms = PermGroup.symmetric(k).elements     # sorted: index 0 is the identity
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(s[g[i]] for i in range(k))] for g in perms] for s in perms]
    # perms are sorted, so index order is element order and the sort matches (order, elements)
    return tuple(PermGroup(k, [perms[i] for i in gens]) for gens in subgroup_lattice(mul))


def orbit_count_burnside(gamma: PermGroup, d: int) -> int:
    """Number of orbits on index tuples, by averaging fixed-point counts."""
    total = 0
    for s in gamma.elements:
        cycles = 0
        seen = [False] * gamma.k
        for i in range(gamma.k):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = s[j]
        total += d**cycles
    return total // gamma.order


# -- restricted tensor powers ----------------------------------------------------


@dataclass
class RestrictedPower:
    """A tensor power restricted to the invariant subspace of a permutation group.

    For diagonal input the operator is diagonal in the orbit-sum basis; each
    basis vector is labelled by its orbit representative and carries the exact
    eigen-turn ``eigen_nums[i] / q`` (the sum of the angle turns along the tuple).
    """

    dim: int
    k: int
    gamma_order: int
    orbit_reps: tuple[tuple[int, ...], ...]
    q: int
    eigen_nums: tuple[int, ...]              # eigen-turn numerators mod q
    contents: tuple[tuple[int, ...], ...]  # sorted index multiset per basis vector

    @property
    def eigen_turns(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.q) for n in self.eigen_nums)


def invariant_restriction(V: FiniteUnitary, k: int, gamma: PermGroup) -> RestrictedPower:
    """V^(tensor k) restricted to the gamma-invariant subspace (exact diagonal mode).

    Index tuples are listed in code order (base-d, lexicographic) and each
    orbit is represented by its least tuple.  A tuple r is ``vals o p``: vals
    the increasing list of its values and p its value pattern, the
    order-preserving relabelling onto 0..m-1.  Permuting positions permutes
    r and p alike and vals is increasing, so r is least in its orbit exactly
    when p is least in the orbit of p; the restriction is one pass over the
    (d, k) table keeping the tuples whose pattern is least.  The eigen-turn
    of a tuple depends only on its content (sorted multiset), and each
    content's numerator is summed once.
    """
    if not V.exact:
        raise ValueError("exact restriction requires a diagonal-turn unitary")
    if gamma.k != k:
        raise ValueError("permutation group degree must equal the power")
    d = V.dim
    _guard(d**k, f"restriction of a dimension-{d} unitary to power {k}")
    table = _tuple_table(d, k)
    least = _least_patterns(tuple(gamma.elements), d, k)
    keep = [i for i, p in enumerate(table.pattern_ids) if p in least]
    nums, q = V.nums, V.q
    content_nums = [sum(nums[i] for i in c) % q for c in table.contents]
    cids = [table.content_ids[i] for i in keep]
    rp = RestrictedPower(len(keep), k, gamma.order, tuple(table.tuples[i] for i in keep), q,
                         tuple(content_nums[c] for c in cids),
                         tuple(table.contents[c] for c in cids))
    if rp.dim != orbit_count_burnside(gamma, d):
        raise AssertionError("orbit count disagrees with the Burnside average")
    return rp


class _TupleTable(NamedTuple):
    """Every index tuple of a (d, k) power in code order, with its pattern and content ids."""

    tuples: tuple[tuple[int, ...], ...]
    pattern_ids: list[int]
    patterns: dict[tuple[int, ...], int]     # pattern -> id; ids, and dict order, lexicographic
    content_ids: list[int]
    contents: list[tuple[int, ...]]          # sorted index multisets, by id


@lru_cache(maxsize=4)
def _tuple_table(d: int, k: int) -> _TupleTable:
    """The (d, k) tuple table.

    A pattern p is a code, and every tuple with pattern p is at least p entry
    by entry, so p is first met at its own code: pattern ids come in
    lexicographic order, and the tuple itself serves as the pattern's key.
    """
    tuples = tuple(itertools.product(range(d), repeat=k))
    patterns: dict = {}
    by_content: dict = {}        # content -> (content id, value -> rank)
    pattern_ids = []
    content_ids = []
    for r in tuples:
        content = tuple(sorted(r))
        entry = by_content.get(content)
        if entry is None:
            entry = by_content[content] = (len(by_content), {v: i for i, v in enumerate(sorted(set(r)))})
        cid, rank = entry
        pid = patterns.get(tuple(map(rank.__getitem__, r)))
        if pid is None:
            pid = patterns[r] = len(patterns)
        pattern_ids.append(pid)
        content_ids.append(cid)
    return _TupleTable(tuples, pattern_ids, patterns, content_ids, list(by_content))


@lru_cache(maxsize=64)
def _least_patterns(elements: tuple, d: int, k: int) -> frozenset[int]:
    """Ids of the (d, k) patterns that are least in their orbit under the permutations.

    Reading a pattern through sigma applies sigma^-1, which ranges over the
    same group.  Walking the patterns in lexicographic order, the first one
    met of each orbit is its least; the rest of the orbit is marked seen.
    The elements are sorted, so the identity, which needs no mark, is first.
    """
    patterns = _tuple_table(d, k).patterns
    seen = bytearray(len(patterns))
    least = []
    for p, pid in patterns.items():
        if not seen[pid]:
            least.append(pid)
            for sigma in elements[1:]:
                seen[patterns[tuple(map(p.__getitem__, sigma))]] = 1
    return frozenset(least)


def symmetric_power(V: FiniteUnitary, k: int) -> RestrictedPower:
    return invariant_restriction(V, k, PermGroup.symmetric(k))


# -- multiplicity functions --------------------------------------------------------


@dataclass
class MultiplicityFunction:
    clusters: dict
    mode: str
    stable: bool = True

    def values(self) -> Counter:
        return Counter(self.clusters.values())

    def multiplicity_set(self) -> frozenset[int]:
        return frozenset(self.clusters.values())

    def is_constant(self, value: int) -> bool:
        return set(self.clusters.values()) == {value}


def multiplicity_function(U) -> MultiplicityFunction:
    """Eigenvalue multiplicities: exact for turn-diagonal input, clustered for float."""
    if isinstance(U, RestrictedPower):
        counts = Counter(U.eigen_nums)
        return MultiplicityFunction({Fraction(n, U.q): c for n, c in counts.items()}, "exact")
    if isinstance(U, FiniteUnitary) and U.exact:
        return MultiplicityFunction(dict(Counter(U.turns)), "exact")
    import numpy as np

    m = U.to_matrix() if isinstance(U, FiniteUnitary) else np.asarray(U, dtype=complex)
    if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12):
        raise ValueError("input is not unitary within 1e-12")
    eigs = np.linalg.eigvals(m)
    clusters = _cluster(eigs, _CLUSTER_TOL)
    stable = len(clusters) == len(_cluster(eigs, _CLUSTER_TOL / 2))
    return MultiplicityFunction(clusters, "float", stable)


def _cluster(eigs, tol):
    import numpy as np

    order = np.argsort(np.angle(eigs))
    eigs = eigs[order]
    groups: list[list[complex]] = []
    for e in eigs:
        if groups and abs(e - groups[-1][-1]) < tol:
            groups[-1].append(e)
        else:
            groups.append([e])
    # the circle wraps: merge the last group into the first when adjacent
    if len(groups) > 1 and abs(groups[0][0] - groups[-1][-1]) < tol:
        groups[0].extend(groups.pop())
    return {g[0]: len(g) for g in groups}


# -- the homogeneous-multiplicity checks ----------------------------------------


def _power_hypothesis_ok(V: FiniteUnitary, k: int) -> bool:
    """The k-fold symmetric power has simple spectrum: all multiset sums distinct."""
    sums = [sum(c) % V.q for c in itertools.combinations_with_replacement(V.nums, k)]
    return len(set(sums)) == len(sums)


def homogeneous_multiplicity_check(V: FiniteUnitary, k: int, gamma: PermGroup) -> Report:
    """The invariant restriction has constant multiplicity k!/#gamma on the free spectrum.

    The free spectrum is carried by tuples with pairwise distinct indices,
    where the permutation action on tuples is free: the exact finite analogue
    of the generic fiber.  Repeated-index eigenvalues form the degenerate
    part, a vanishing fraction of the spectrum as the dimension grows; they
    are counted and reported but carry no constancy claim.
    """
    rep = Report()
    if len(set(V.nums)) != V.dim or not _power_hypothesis_ok(V, k):
        rep.add("hypothesis: simple symmetric power", k, False, "HypothesisFail")
        return rep
    rep.add("hypothesis: simple symmetric power", k, True)
    rest = invariant_restriction(V, k, gamma)
    counts = Counter(rest.eigen_nums)
    expected = math.factorial(k) // gamma.order
    free = {}
    degenerate = {}
    content_of_num = dict(zip(rest.eigen_nums, rest.contents))
    for num, mult in counts.items():
        if len(set(content_of_num[num])) == k:
            free[num] = mult
        else:
            degenerate[num] = mult
    ok = set(free.values()) == {expected}
    rep.add(f"free spectrum constant multiplicity {expected}", k, ok,
            f"multiplicities seen: {sorted(set(free.values()))}")
    rep.add("free spectrum nonempty", k, bool(free),
            f"free dim {sum(free.values())}, degenerate dim {sum(degenerate.values())}")
    if gamma.order == math.factorial(k):
        rep.add("full spectrum constant (symmetric case)", k, set(counts.values()) == {expected})
    return rep


def float_cluster_check(V: FiniteUnitary, k: int, gamma: PermGroup) -> Report:
    """Floating cross-check of the free-spectrum multiplicities via clustering."""
    import numpy as np

    rep = Report()
    rest = invariant_restriction(V, k, gamma)
    eigs = np.exp(2j * np.pi * np.array([n / rest.q for n in rest.eigen_nums]))
    clusters = _cluster(eigs, _CLUSTER_TOL)
    stable = len(clusters) == len(_cluster(eigs, _CLUSTER_TOL / 2))
    rep.add("cluster stability under tolerance halving", k, stable)
    exact = multiplicity_function(rest)
    rep.add("cluster count matches exact count", k, len(clusters) == len(exact.clusters))
    return rep


def product_power_multiplicity_check(V: FiniteUnitary, k: int) -> Report:
    """The (k-1)-fold symmetric power tensored with V has constant multiplicity k.

    Also verifies, entry by entry, that this operator coincides with the
    restriction of the k-fold tensor power to tensors invariant under the
    permutations fixing the last slot, through the canonical basis bijection.
    """
    rep = Report()
    if k < 1:
        raise ValueError("power must be positive")
    if k == 1:
        mf = multiplicity_function(V)
        rep.add("constant multiplicity 1", k, mf.is_constant(1))
        return rep
    if not _power_hypothesis_ok(V, k):
        rep.add("hypothesis: simple symmetric power", k, False, "HypothesisFail")
        return rep
    rep.add("hypothesis: simple symmetric power", k, True)
    d, q = V.dim, V.q
    sym = symmetric_power(V, k - 1)
    # product basis: (multiset of size k-1) x index, eigen-turn additive
    product_entries = {}
    for rep_tuple, num in zip(sym.orbit_reps, sym.eigen_nums):
        for j in range(d):
            product_entries[(tuple(sorted(rep_tuple)), j)] = (num + V.nums[j]) % q

    # restriction to permutations of the first k-1 slots
    gens = []
    if k - 1 >= 2:
        gens.append(tuple([1, 0] + list(range(2, k))))
    if k - 1 >= 3:
        gens.append(tuple(list(range(1, k - 1)) + [0, k - 1]))
    gamma = PermGroup(k, gens)
    rest = invariant_restriction(V, k, gamma)
    bijection_ok = len(product_entries) == rest.dim
    matched = 0
    for rep_tuple, num in zip(rest.orbit_reps, rest.eigen_nums):
        key = (tuple(sorted(rep_tuple[:-1])), rep_tuple[-1])
        if key in product_entries and product_entries[key] == num:
            matched += 1
    rep.add("restriction identity: basis bijection", k, bijection_ok,
            f"{len(product_entries)} product vs {rest.dim} restricted")
    rep.add("restriction identity: diagonal entries equal", k, matched == rest.dim,
            f"{matched}/{rest.dim} matched")

    counts = {}
    content = {}
    for (ms, j), t in product_entries.items():
        counts[t] = counts.get(t, 0) + 1
        content[t] = tuple(sorted(ms + (j,)))
    free_vals = {c for t, c in counts.items() if len(set(content[t])) == k}
    rep.add(f"free spectrum constant multiplicity {k}", k, free_vals == {k},
            f"multiplicities seen: {sorted(free_vals)}")
    return rep


# -- symmetric polynomial generation and extraction -------------------------------


def _elementary_symmetric(k: int, i: int) -> dict[tuple[int, ...], int]:
    """e_i in k variables as a dict over exponent vectors."""
    out = {}
    for comb in itertools.combinations(range(k), i):
        mono = [0] * k
        for j in comb:
            mono[j] = 1
        out[tuple(mono)] = 1
    return out


def _poly_mul(a, b, cap):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) > cap:
                continue
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _partitions_at_most(total_max: int, parts: int):
    """All partitions (weakly decreasing tuples) with at most `parts` parts, size <= total_max."""
    out = [()]
    def rec(prefix, remaining, max_part):
        for p in range(min(max_part, remaining), 0, -1):
            nxt = prefix + (p,)
            out.append(nxt)
            if len(nxt) < parts:
                rec(nxt, remaining - p, p)
    rec((), total_max, total_max)
    return [p for p in out if sum(p) <= total_max and len(p) <= parts]


def _generation_products(k: int, degree_cap: int) -> list[dict[tuple[int, ...], int]]:
    """Every monomial in e_1..e_k of weighted degree <= cap, as an integer polynomial."""
    es = {i: _elementary_symmetric(k, i) for i in range(k + 1)}
    products = []
    for exps in itertools.product(*(range(degree_cap // i + 1) for i in range(1, k + 1))):
        if sum(i * e for i, e in zip(range(1, k + 1), exps)) > degree_cap:
            continue
        poly = {(0,) * k: 1}
        for i, e in zip(range(1, k + 1), exps):
            for _ in range(e):
                poly = _poly_mul(poly, es[i], degree_cap)
        products.append(poly)
    return products


def _coefficient_rows(products) -> list[list[int]]:
    """One row per polynomial over the sorted union of their monomials."""
    monomials = sorted({m for p in products for m in p})
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in products:
        row = [0] * len(monomials)
        for m, c in p.items():
            row[index[m]] = c
        rows.append(row)
    return rows


def symmetric_generation_check(k: int, degree_cap: int) -> Report:
    """Products of the elementary symmetric polynomials span all symmetric ones.

    Verified by exact integer rank computation against the partition count
    up to the degree cap.
    """
    rep = Report()
    if k > 4 or degree_cap > 6:
        raise ValueError("desk-scale parameters only: k <= 4, degree cap <= 6")
    products = _generation_products(k, degree_cap)
    rank = _integer_rank(_coefficient_rows(products))
    target = len(_partitions_at_most(degree_cap, k))
    rep.add("span dimension equals partition count", k, rank == target,
            f"rank {rank} vs partitions {target}")
    # every product must be a symmetric polynomial: coefficients constant on orbits
    sym_ok = all(
        p.get(tuple(sorted(m, reverse=True)), 0) == c
        for p in products for m, c in p.items()
    )
    rep.add("products are symmetric", k, sym_ok)
    return rep


def _integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each pivot every remaining entry is a minor of the input, so the
    division by the previous pivot is exact and all entries stay integers.
    """
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    rank = 0
    prev = 1
    for col in range(cols):
        sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot_tail = rows[rank][col:]
        pv = pivot_tail[0]
        for r in range(rank + 1, len(rows)):
            row = rows[r]        # zero left of col: eliminated or already zero
            a = row[col]
            row[col:] = [(pv * x - a * y) // prev for x, y in zip(row[col:], pivot_tail)]
        prev = pv
        rank += 1
    return rank


def ratios_from_identity_mix(m: int) -> list[Fraction]:
    """The identity-to-adjoint weight ratios 1/k for mix ratios k = 1..m."""
    return [Fraction(1, k) for k in range(1, m + 1)]


def vandermonde_extraction_check(ratios) -> Report:
    """The power-sum system in the given distinct ratios is exactly invertible.

    Builds the (k+1) x (k+1) system whose rows are the powers of each ratio,
    closed by the trivial row pinning the top coefficient, inverts it over
    the rationals, and confirms the inverse recovers every coefficient vector.
    """
    rep = Report()
    ratios = [Fraction(r) for r in ratios]
    k = len(ratios)
    if len(set(ratios)) != k:
        raise ValueError("ratios must be pairwise distinct")
    rows = [[r**l for l in range(k + 1)] for r in ratios]
    rows.append([Fraction(0)] * k + [Fraction(1)])
    det, inv = _rational_det_inverse(rows)
    rep.add("system determinant nonzero", k, det != 0, f"det = {det}")
    if det == 0:
        return rep
    n = k + 1
    prod_ok = all(
        sum(inv[i][t] * rows[t][j] for t in range(n)) == (1 if i == j else 0)
        for i in range(n) for j in range(n)
    )
    rep.add("inverse recovers coefficients exactly", k, prod_ok)
    return rep


def _rational_det_inverse(rows) -> tuple[Fraction, list | None]:
    """One Gauss-Jordan pass: the determinant (pivot product, sign per swap) and the inverse, or (0, None)."""
    n = len(rows)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        sel = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if sel is None:
            return Fraction(0), None
        if sel != col:
            aug[col], aug[sel] = aug[sel], aug[col]
            det = -det
        pv = aug[col][col]
        det *= pv
        aug[col] = [a / pv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]
