import math
from fractions import Fraction

import numpy as np
import pytest

from cfspectra.spectra import (
    FiniteUnitary,
    MultiplicityFunction,
    PermGroup,
    all_subgroups_sym,
    float_cluster_check,
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


def test_relation_free_turns_have_no_small_relations():
    turns = relation_free_turns(5, 3)
    assert len(set(turns)) == 5
    # spot check: no combination with coefficients in [-3, 3] sums to an integer
    import itertools

    for n in itertools.product(range(-3, 4), repeat=5):
        if any(n):
            assert sum(c * t for c, t in zip(n, turns)) % 1 != 0


def test_unitary_modes():
    V = generic_diagonal(4, 2)
    assert V.exact and V.dim == 4
    m = V.to_matrix()
    assert np.allclose(m @ m.conj().T, np.eye(4))
    W = FiniteUnitary(matrix=np.eye(3))
    assert not W.exact
    with pytest.raises(ValueError):
        FiniteUnitary(matrix=np.ones((2, 2)))


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
    triv = invariant_restriction(V, 3, PermGroup.trivial(3))
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
    assert mf.clusters == {Fraction(0): 3}
    mf2 = multiplicity_function(FiniteUnitary(turns=[Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]))
    assert mf2.is_constant(1)
    mf3 = multiplicity_function(FiniteUnitary(turns=[Fraction(1, 3), Fraction(1, 3), Fraction(1, 5)]))
    assert sorted(mf3.clusters.values()) == [1, 2]


def test_multiplicity_function_float_mode():
    angles = [0.1, 0.1, 0.4]
    m = np.diag(np.exp(2j * np.pi * np.array(angles)))
    mf = multiplicity_function(m)
    assert mf.mode == "float" and mf.stable
    assert sorted(mf.clusters.values()) == [1, 2]
    with pytest.raises(ValueError):
        multiplicity_function(np.ones((2, 2)))


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
    rep2 = homogeneous_multiplicity_check(V, 2, PermGroup.trivial(2))
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


def test_vandermonde_extraction():
    rep = vandermonde_extraction_check(ratios_from_identity_mix(3))
    assert rep.passed
    assert ratios_from_identity_mix(3) == [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    with pytest.raises(ValueError):
        vandermonde_extraction_check([Fraction(1, 2), Fraction(1, 2)])
    rep1 = vandermonde_extraction_check([Fraction(7, 3)])
    assert rep1.passed
