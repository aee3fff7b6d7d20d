import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cfspectra.groups import LimitExceeded
from cfspectra.spectra import (
    FiniteUnitary,
    PermGroup,
    _coefficient_rows,
    _generation_products,
    _has_relation,
    _integer_rank,
    all_subgroups_sym,
    generic_diagonal,
    homogeneous_multiplicity_check,
    invariant_restriction,
    multiplicity_function,
    orbit_count_burnside,
    product_power_multiplicity_check,
    ratios_from_identity_mix,
    relation_free_turns,
    symmetric_generation_check,
    symmetric_power,
    vandermonde_extraction_check,
)
from float_oracle import float_cluster_check, float_multiplicities, to_matrix


def test_relation_free_turns_have_no_small_relations():
    turns = relation_free_turns(5, 3)
    assert len(set(turns)) == 5
    # spot check: no combination with coefficients in [-3, 3] sums to an integer
    import itertools

    for n in itertools.product(range(-3, 4), repeat=5):
        if any(n):
            assert sum(c * t for c, t in zip(n, turns)) % 1 != 0


def test_unitary_modes():
    """The exact turns, and their matrix in the float oracle: unitary, with the same spectrum."""
    V = generic_diagonal(4, 2)
    assert V.dim == 4 and V.turns == relation_free_turns(4, 2)
    assert V.turns == tuple(Fraction(n, V.q) for n in V.nums)
    m = to_matrix(V)
    assert np.allclose(m @ m.conj().T, np.eye(4))
    clusters, stable = float_multiplicities(m)
    assert stable and sorted(clusters.values()) == sorted(multiplicity_function(V).values())
    assert sorted(float_multiplicities(np.eye(3))[0].values()) == [3]
    with pytest.raises(ValueError):
        float_multiplicities(np.ones((2, 2)))


def test_perm_group_enumeration():
    assert PermGroup.symmetric(2).order == 2
    assert PermGroup.symmetric(3).order == 6
    assert PermGroup.symmetric(4).order == 24
    subs2 = all_subgroups_sym(2)
    assert sorted(h.order for h in subs2) == [1, 2]
    subs3 = all_subgroups_sym(3)
    assert sorted(h.order for h in subs3) == [1, 2, 2, 2, 3, 6]


def test_invariant_restriction_dimensions():
    V = generic_diagonal(2, 3)
    # full symmetric group: multiset count C(d+k-1, k)
    sym = symmetric_power(V, 3)
    assert sym.dim == math.comb(2 + 3 - 1, 3) == 4
    # trivial group: the full tensor power
    triv = invariant_restriction(V, 3, PermGroup(3, []))
    assert triv.dim == 2**3
    # cyclic group of order 3 on 2 symbols: (8 + 2 + 2)/3 = 4 orbits
    cyc = PermGroup(3, [(1, 2, 0)])
    rest = invariant_restriction(V, 3, cyc)
    assert rest.dim == 4 == orbit_count_burnside(cyc, 2)


def test_burnside_matches_direct_orbit_count():
    V = generic_diagonal(3, 3)
    for gamma in all_subgroups_sym(3):
        rest = invariant_restriction(V, 3, gamma)
        assert rest.dim == orbit_count_burnside(gamma, 3)


def test_multiplicity_function_examples():
    mf = multiplicity_function(FiniteUnitary(turns=[0, 0, 0]))
    assert mf == {Fraction(0): 3}
    mf2 = multiplicity_function(FiniteUnitary(turns=[Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]))
    assert set(mf2.values()) == {1}
    mf3 = multiplicity_function(FiniteUnitary(turns=[Fraction(1, 3), Fraction(1, 3), Fraction(1, 5)]))
    assert sorted(mf3.values()) == [1, 2]


def test_multiplicity_function_refuses_a_matrix():
    """Multiplicities are counted exactly only; a matrix goes to the float oracle."""
    with pytest.raises(TypeError, match="FiniteUnitary or a RestrictedPower"):
        multiplicity_function([[0, 1], [1, 0]])


def test_multiplicity_function_float_mode():
    """The float oracle clusters a matrix spectrum, and refuses a matrix that is not unitary."""
    angles = [0.1, 0.1, 0.4]
    m = np.diag(np.exp(2j * np.pi * np.array(angles)))
    clusters, stable = float_multiplicities(m)
    assert stable
    assert sorted(clusters.values()) == [1, 2]
    with pytest.raises(ValueError):
        float_multiplicities(np.ones((2, 2)))


@pytest.mark.parametrize("k", [2, 3])
def test_homogeneous_multiplicity_all_subgroups(k):
    V = generic_diagonal(5, k)
    for gamma in all_subgroups_sym(k):
        rep = homogeneous_multiplicity_check(V, k, gamma)
        assert rep.passed, (gamma, rep.render())


def test_homogeneous_multiplicity_known_values():
    V = generic_diagonal(5, 2)
    # symmetric: k!/#Gamma = 1; trivial: 2
    rep1 = homogeneous_multiplicity_check(V, 2, PermGroup.symmetric(2))
    assert any("multiplicity 1" in it.name and it.ok for it in rep1.items)
    rep2 = homogeneous_multiplicity_check(V, 2, PermGroup(2, []))
    assert any("multiplicity 2" in it.name and it.ok for it in rep2.items)
    # k = 3 with the cyclic subgroup: 6/3 = 2
    V3 = generic_diagonal(4, 3)
    rep3 = homogeneous_multiplicity_check(V3, 3, PermGroup(3, [(1, 2, 0)]))
    assert any("multiplicity 2" in it.name and it.ok for it in rep3.items)


def test_hypothesis_failure_reported_not_asserted():
    # angles with a deliberate collision: the symmetric square is not simple
    V = FiniteUnitary(turns=[Fraction(1, 8), Fraction(3, 8), Fraction(2, 8), Fraction(5, 8)])
    rep = homogeneous_multiplicity_check(V, 2, PermGroup.symmetric(2))
    assert not rep.passed
    assert any("HypothesisFail" in it.detail for it in rep.items)


@pytest.mark.parametrize("k,d", [(2, 5), (3, 5), (3, 4)])
def test_product_power_multiplicity(k, d):
    V = generic_diagonal(d, k)
    rep = product_power_multiplicity_check(V, k)
    assert rep.passed, rep.render()


def test_product_power_k1_simple():
    V = generic_diagonal(5, 1)
    rep = product_power_multiplicity_check(V, 1)
    assert rep.passed


def test_float_cluster_check_agrees():
    V = generic_diagonal(5, 2)
    for gamma in all_subgroups_sym(2):
        rep = float_cluster_check(V, 2, gamma)
        assert rep.passed, rep.render()


@pytest.mark.parametrize("k,cap", [(1, 4), (2, 4), (3, 5), (4, 6)])
def test_symmetric_generation(k, cap):
    rep = symmetric_generation_check(k, cap)
    assert rep.passed, rep.render()


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


def _repeated_multiplication_products(k: int, cap: int) -> list[dict[tuple[int, ...], int]]:
    """Oracle for ``_generation_products``: each monomial in e_1..e_k multiplied out from 1."""
    es = {i: _elementary_symmetric(k, i) for i in range(k + 1)}
    products = []
    for exps in itertools.product(*(range(cap // i + 1) for i in range(1, k + 1))):
        if sum(i * e for i, e in zip(range(1, k + 1), exps)) > cap:
            continue
        poly = {(0,) * k: 1}
        for i, e in zip(range(1, k + 1), exps):
            for _ in range(e):
                poly = _poly_mul(poly, es[i], cap)
        products.append(poly)
    return products


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generation_products_match_repeated_multiplication(k):
    for cap in range(7):
        got, want = _generation_products(k, cap), _repeated_multiplication_products(k, cap)
        assert got == want, (k, cap)
        assert [list(p.items()) for p in got] == [list(p.items()) for p in want], (k, cap)


def test_generation_rank_falls_back_to_all_columns(monkeypatch):
    """A product equal to another on the partition columns still counts in the full rank."""
    from cfspectra import spectra

    generation_products = spectra._generation_products

    def faulty(k, cap):
        products = generation_products(k, cap)
        return products[:-1] + [{**products[0], (0, 1, 0, 0): 1}]

    monkeypatch.setattr(spectra, "_generation_products", faulty)
    assert symmetric_generation_check(4, 6).render().splitlines() == [
        "  [ok] level 4: span dimension equals partition count (rank 27 vs partitions 27)",
        "  [FAIL] level 4: products are symmetric",
    ]


def _table_results(turns) -> str:
    """Every k = 4 table report and restriction of one unitary, as text; self-contained, so a
    fresh process can run its source."""
    from fractions import Fraction

    from cfspectra.spectra import (FiniteUnitary, all_subgroups_sym, homogeneous_multiplicity_check,
                                   invariant_restriction, product_power_multiplicity_check)

    V = FiniteUnitary(turns=turns)
    out = [product_power_multiplicity_check(V, 4).render()]
    for gamma in all_subgroups_sym(4):
        rest = invariant_restriction(V, 4, gamma)
        out += [homogeneous_multiplicity_check(V, 4, gamma).render(),
                repr(tuple(Fraction(n, rest.q) for n in rest.eigen_nums))]
    return repr(out)


def test_table_caches_are_keyed_on_the_unitary():
    """Two unitaries of the same (d, k) in one process each give what a fresh process gives."""
    import inspect
    import os
    import subprocess
    import sys
    from pathlib import Path

    generic = [str(t) for t in generic_diagonal(5, 4).turns]
    repeated = ["1/7", "2/7", "2/7", "3/11", "5/13"]    # the hypothesis fails
    in_process = [_table_results(turns) for turns in (generic, repeated)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for turns, got in zip((generic, repeated), in_process):
        code = inspect.getsource(_table_results) + f"print(_table_results({turns!r}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert got == proc.stdout.rstrip("\n")
    assert "HypothesisFail" in in_process[1] and "HypothesisFail" not in in_process[0]


def test_vandermonde_extraction():
    rep = vandermonde_extraction_check(ratios_from_identity_mix(3))
    assert rep.passed
    assert ratios_from_identity_mix(3) == [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    with pytest.raises(ValueError):
        vandermonde_extraction_check([Fraction(1, 2), Fraction(1, 2)])
    rep1 = vandermonde_extraction_check([Fraction(7, 3)])
    assert rep1.passed


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vandermonde_determinant_matches_sympy(m):
    """The reported determinant is the exact determinant of the power-sum system."""
    import sympy

    ratios = ratios_from_identity_mix(m)
    rows = [[sympy.Rational(r.numerator, r.denominator) ** l for l in range(m + 1)] for r in ratios]
    rows.append([0] * m + [1])
    det = vandermonde_extraction_check(ratios).items[0]
    assert (det.name, det.ok) == ("system determinant nonzero", True)
    assert det.detail == f"det = {sympy.Matrix(rows).det()}"


# -- oracles for the integer-turn path -------------------------------------------


def _brute_relation(ps, q, k):
    return any(any(n) and sum(c * p for c, p in zip(n, ps)) % q == 0
               for n in itertools.product(range(-k, k + 1), repeat=len(ps)))


def _test_bases(d, k):
    """The relation-free base of (d, k), then seeded bases with and without relations."""
    B = 2 * k + 1
    ps = [B**i for i in range(d)]
    yield ps, 2 * k * sum(ps) + 1
    rng = random.Random(f"bases:{d}:{k}")
    for _ in range(8):
        q = rng.choice([rng.randint(2, 60), rng.randint(10**5, 10**7)])
        yield [rng.randrange(q) for _ in range(d)], q


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_meet_in_the_middle_matches_brute_force_scan(d, k):
    for ps, q in _test_bases(d, k):
        assert _has_relation(ps, q, k) == _brute_relation(ps, q, k), (ps, q, k)


@pytest.mark.parametrize("plant", ["left", "right", "across"])
def test_planted_relation_is_caught(plant):
    d, k = 5, 4
    ps = [9**i for i in range(d)]
    q = 2 * k * sum(ps) + 1
    assert not _has_relation(ps, q, k)
    if plant == "left":            # both coordinates in the first half: 2 p_0 - p_1 = 0
        ps[1] = 2 * ps[0]
    elif plant == "right":         # both in the second half: p_3 + p_4 = 0 mod q
        ps[4] = q - ps[3]
    else:                          # p_0 + p_1 - p_4 = 0
        ps[4] = ps[0] + ps[1]
    assert _has_relation(ps, q, k)


def _moved(sigma, t):
    """sigma moves the entry at position i to position sigma(i)."""
    out = [None] * len(t)
    for i, x in enumerate(t):
        out[sigma[i]] = x
    return tuple(out)


def reference_restriction(V, k, gamma):
    """The orbit-set enumeration with Fraction sums: (reps, eigen-turns, contents)."""
    reps = []
    seen = set()
    for t in itertools.product(range(V.dim), repeat=k):
        if t in seen:
            continue
        orb = {_moved(sigma, t) for sigma in gamma.elements}
        seen.update(orb)
        reps.append(min(orb))
    reps.sort()
    turns = tuple(sum((V.turns[i] for i in rep), Fraction(0)) % 1 for rep in reps)
    return tuple(reps), turns, tuple(tuple(sorted(rep)) for rep in reps)


def _restriction_cases(k):
    if k == 8:
        cyclic = PermGroup(k, [tuple(range(1, k)) + (0,)])
        return [(generic_diagonal(2, k), gamma) for gamma in (PermGroup(k, []), cyclic)]
    mixed = FiniteUnitary(turns=[Fraction(1, 3), Fraction(3, 4), Fraction(5, 6), Fraction(7, 10)])
    assert mixed.q == 60 and mixed.nums == (20, 45, 50, 42)
    tied = FiniteUnitary(turns=[0, 0, Fraction(1, 2)])
    assert tied.q == 2 and tied.nums == (0, 0, 1)
    return [(V, gamma) for V in [generic_diagonal(d, k) for d in range(1, 8)] + [mixed, tied]
            for gamma in all_subgroups_sym(k)]


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_integer_restriction_matches_fraction_reference(k):
    for V, gamma in _restriction_cases(k):
        rest = invariant_restriction(V, k, gamma)
        reps, turns, contents = reference_restriction(V, k, gamma)
        assert rest.orbit_reps == reps, (V.dim, gamma)
        assert tuple(Fraction(n, rest.q) for n in rest.eigen_nums) == turns, (V.dim, gamma)
        assert rest.contents == contents, (V.dim, gamma)
        assert all(type(t) is Fraction for t in multiplicity_function(rest))


def test_restriction_at_the_guard_edge():
    """d = 2 admits k = 16 under the guard: each restriction stays under a second."""
    import time

    k = 16
    V = FiniteUnitary(turns=[Fraction(1, 3), Fraction(1, 7)])

    def timed(gamma):
        t0 = time.perf_counter()
        rest = invariant_restriction(V, k, gamma)
        assert time.perf_counter() - t0 < 1
        assert rest.eigen_nums == tuple(sum(V.nums[i] for i in r) % V.q for r in rest.orbit_reps)
        return rest

    every = timed(PermGroup(k, []))
    assert every.orbit_reps == tuple(itertools.product(range(2), repeat=k))
    necklaces = timed(PermGroup(k, [tuple(range(1, k)) + (0,)]))
    assert necklaces.dim == 4116            # binary necklaces of length 16
    assert all(r == min(r[i:] + r[:i] for i in range(k)) for r in necklaces.orbit_reps)


def test_subgroup_lattice_matches_generator_closure():
    for k in range(1, 5):
        full = PermGroup.symmetric(k).elements
        seen = {frozenset([tuple(range(k))])}
        want = [PermGroup(k, [])]
        frontier = list(want)
        while frontier:
            H = frontier.pop()
            for g in full:
                H2 = PermGroup(k, H.elements + [g])
                if frozenset(H2.elements) not in seen:
                    seen.add(frozenset(H2.elements))
                    want.append(H2)
                    frontier.append(H2)
        want.sort(key=lambda h: (h.order, h.elements))
        got = all_subgroups_sym(k)
        assert isinstance(got, tuple) and got is all_subgroups_sym(k)
        assert [h.elements for h in got] == [h.elements for h in want]
    assert len(all_subgroups_sym(4)) == 30


def _deficient_matrix(rng, rows, cols, rank):
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def test_integer_rank_matches_sympy():
    import sympy
    for k, cap in [(1, 4), (2, 4), (2, 6), (3, 5), (3, 6), (4, 6)]:
        products = _generation_products(k, cap)
        rows = _coefficient_rows(products)
        partition_rank = _integer_rank(_coefficient_rows(products, partitions_only=True))
        assert partition_rank == _integer_rank(rows) == sympy.Matrix(rows).rank(), (k, cap)
    rng = random.Random("rank")
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = _deficient_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        assert _integer_rank(m) == sympy.Matrix(m).rank(), m


def test_spectra_guard_refuses_before_enumerating(monkeypatch):
    from cfspectra import spectra

    with pytest.raises(LimitExceeded, match="95,367,431,640,625"):
        relation_free_turns(40, 2)
    monkeypatch.setattr(spectra, "_SPECTRA_GUARD", 1000)
    relation_free_turns.cache_clear()
    assert len(relation_free_turns(6, 3)) == 6          # 7^3 sums and 6^3 tuples
    with pytest.raises(LimitExceeded, match="1,296"):
        relation_free_turns(6, 4)                       # 9^3 sums but 6^4 tuples
    with pytest.raises(LimitExceeded, match="3,125"):
        invariant_restriction(FiniteUnitary(turns=[Fraction(j, 11) for j in range(5)]), 5,
                              PermGroup(5, []))
    for d, k in [(0, 2), (3, 0), (3, -1)]:
        with pytest.raises(ValueError):
            relation_free_turns(d, k)
    for k in (0, -1, 5):
        with pytest.raises(ValueError):
            all_subgroups_sym(k)
