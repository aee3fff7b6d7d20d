"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  The residual threshold 1/10 and the frozen
per-step residual constant were confirmed by one oracle run of the grid and
are not recalibrated at test time.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from cfspectra.cocycle import Cocycle, TailShift, check_coboundary_condition, commutes_with_shift
from cfspectra.experiment import ExperimentConfig, build_tower
from cfspectra.groups import (
    Character,
    Subgroup,
    catalog_search,
    character_orbit_average,
    multiplicity_set_naive,
    separation_witness,
)
from cfspectra.koopman import (
    cylinder_family,
    separation_check,
    skew_decomposition_check,
    tail_shift_residual,
    weak_limit_residual_even,
    weak_limit_residual_stagger,
)
from cfspectra.recurrence import (
    ergodicity_sweep,
    label_transport_witness,
    multiple_recurrence_search,
    recurrence_holds_at,
    return_cuts,
)
from cfspectra.spectra import (
    all_subgroups_sym,
    generic_diagonal,
    homogeneous_multiplicity_check,
    product_power_multiplicity_check,
)
from cfspectra.tower import (
    Cylinder,
    defect_fraction,
    validate_labels,
    validate_structure,
)
from float_oracle import float_cluster_check

RESIDUAL_THRESHOLD = Fraction(1, 10)
# frozen from the oracle run: stagger residuals on the desk tower stay under 1/n
STAGGER_RESIDUAL_CONSTANT = Fraction(1, 1)


def report(criterion: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" — {detail}" if detail else ""))
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def tower_12():
    """The {1,2}-target desk tower, deep enough for every level-2 transport."""
    cfg = ExperimentConfig(E={1, 2}, depth=24)
    tower, spec, schedule = build_tower(cfg)
    return tower, spec


@pytest.fixture(scope="module")
def tower_2():
    """The {2}-target desk tower for the residual and separation criteria."""
    cfg = ExperimentConfig(E={2}, depth=10)
    tower, spec, schedule = build_tower(cfg)
    return tower, spec


def test_criterion_1_group_realization():
    t0 = time.monotonic()
    targets = [{1}, {2}, {4}, {1, 2}, {1, 4}, {2, 4}]
    ok = True
    details = []
    for E in targets:
        rec = catalog_search(E, bound=40)
        if rec is None:
            ok = False
            details.append(f"{sorted(E)}: not found")
            continue
        recount = multiplicity_set_naive(rec.group, rec.subgroup, rec.automorphism)
        if recount != frozenset(E):
            ok = False
            details.append(f"{sorted(E)}: recount {sorted(recount)}")
        else:
            details.append(f"{sorted(E)}: order {rec.group.order}")
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 60
    report(1, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_2_homogeneous_multiplicity():
    t0 = time.monotonic()
    ok = True
    details = []
    for k in (2, 3):
        V = generic_diagonal(5, k)
        for gamma in all_subgroups_sym(k):
            rep = homogeneous_multiplicity_check(V, k, gamma)
            fl = float_cluster_check(V, k, gamma)
            if not (rep.passed and fl.passed):
                ok = False
                details.append(f"k={k}, order {gamma.order}: FAIL")
        details.append(f"k={k}: {len(all_subgroups_sym(k))} subgroups exact+stable")
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 30
    report(2, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_3_product_power_constancy():
    ok = True
    details = []
    for k in (2, 3):
        rep = product_power_multiplicity_check(generic_diagonal(5, k), k)
        ids = {it.name: it.ok for it in rep.items}
        if not rep.passed:
            ok = False
        details.append(f"k={k}: " + ("pass" if rep.passed else "FAIL"))
        if not any("diagonal entries equal" in name and good for name, good in ids.items()):
            ok = False
            details.append(f"k={k}: restriction identity missing")
    report(3, ok, "; ".join(details))


def test_criterion_4_structural_suite(tower_12):
    t0 = time.monotonic()
    tower, _ = tower_12
    ok = True
    details = []
    recipe_levels = [lvl for lvl in tower.levels if lvl.step is not None][:8]
    srep = validate_structure(tower)
    if not srep.passed:
        ok = False
        details.append("structure FAIL")
    for lvl in recipe_levels:
        n = lvl.step
        if lvl.tag.k == 0:
            expected_r = n**3 * 2  # the schedule element has period 2
        else:
            expected_r = n**3 * (lvl.tag.k + 1) * 2
        if lvl.r != expected_r:
            ok = False
            details.append(f"level {lvl.n}: cut count {lvl.r} != {expected_r}")
        if tower.mu_level(lvl.n) < 2 * tower.mu_level(lvl.n - 1):
            ok = False
            details.append(f"level {lvl.n}: measure doubling fails")
        if defect_fraction(tower, lvl.n) != Fraction(2, n**2):
            ok = False
            details.append(f"level {lvl.n}: defect != 2/{n}^2")
        if not validate_labels(lvl, tower).passed:
            ok = False
            details.append(f"level {lvl.n}: label conditions fail")
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 120
    report(4, ok, f"8 recipe levels, all exact; {elapsed:.1f}s" if ok else "; ".join(details))


def test_criterion_5_cocycle_suite(tower_12):
    import random

    tower, _ = tower_12
    coc = Cocycle(tower)
    rng = random.Random(0)
    N = 8
    h = tower.h(N)
    ok = True
    from cfspectra.tower import canonical_point

    for _ in range(10_000):
        x, y, z = (canonical_point(tower, rng.randrange(h), N) for _ in range(3))
        if coc.eval(x, y) + coc.eval(y, z) != coc.eval(x, z):
            ok = False
            break
    identity_ok = ok

    ts = TailShift(tower)
    checked = 0
    comm_ok = True
    while checked < 10_000:
        p = canonical_point(tower, rng.randrange(h), N)
        res = commutes_with_shift(ts, p)
        if res is None:
            continue
        checked += 1
        if not res:
            comm_ok = False
            break

    cob = check_coboundary_condition(tower)
    terms_ok = all(
        term == Fraction(1, tower.level(n).step ** 2)
        for n, term in zip(cob.levels, cob.terms) if tower.level(n).step is not None
    )
    ok = identity_ok and comm_ok and terms_ok
    report(5, ok, f"identity 10^4 triples: {identity_ok}; commutation 10^4 points: "
                  f"{comm_ok}; deficit terms exact: {terms_ok}")


def _grid_max(tower, kind, chars, family, n, tag):
    worst = Fraction(0)
    for _, A in family:
        for _, B in family:
            if kind == "even":
                for chi in chars:
                    worst = max(worst, weak_limit_residual_even(tower, chi, tag.el, A, B, n))
            elif kind == "stagger":
                for chi in chars:
                    worst = max(worst, weak_limit_residual_stagger(tower, chi, tag.el, tag.k, A, B, n))
            else:
                worst = max(worst, tail_shift_residual(tower, A, B, n))
    return worst


def test_criterion_6_weak_limits(tower_2):
    t0 = time.monotonic()
    tower, spec = tower_2
    chars = spec.fiber_characters
    family = cylinder_family(tower, max_level=2)
    ok = True
    details = []
    for kind, steps in [
        ("even", tower.steps_tagged(lambda tag: tag.k == 0)),
        ("stagger", tower.stagger_steps()),
        ("tail", list(range(2, tower.depth))),
    ]:
        if kind != "tail" and len(steps) < 3:
            ok = False
            details.append(f"{kind}: fewer than 3 scheduled indices")
            continue
        curve = []
        for n in steps:
            tag = tower.level(n + 1).tag if kind != "tail" else None
            curve.append(_grid_max(tower, kind, chars, family, n, tag))
        decreasing = all(a > b for a, b in zip(curve, curve[1:]))
        deepest = curve[-1]
        if not decreasing or deepest >= RESIDUAL_THRESHOLD:
            ok = False
        details.append(f"{kind}: {' > '.join(f'{float(v):.4g}' for v in curve)}")
        if kind == "stagger":
            if any(v > STAGGER_RESIDUAL_CONSTANT / n for v, n in zip(curve, steps)):
                ok = False
                details.append("stagger residual exceeds the frozen 1/n envelope")
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 600
    report(6, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_7_separation(tower_2):
    tower, spec = tower_2
    chars = spec.fiber_characters
    chi = next(c for c in chars if not c.is_trivial())
    xi = next(c for c in chars if c.is_trivial())
    wit = separation_witness(chi, xi, tower.v)
    ok = wit.found
    gap_exact = (wit.value_a - wit.value_b).abs_squared()
    ok &= gap_exact != 0
    n = tower.steps_tagged(lambda tag: tag.k == 0 and tag.el == wit.witness)[-1]
    res = separation_check(tower, chi, xi, wit.witness, Cylinder(1, (0,)), Cylinder(1, (0,)), n)
    ok &= res.certified
    report(7, ok, f"witness {wit.witness}, |gap|^2 = {gap_exact.as_fraction()}, "
                  f"bounds {float(res.bound_a):.3g}+{float(res.bound_b):.3g} "
                  f"< gap {float(res.gap_lower):.3g} at step {n}")


def test_criterion_8_skew_decomposition(tower_2):
    tower, spec = tower_2
    K = tower.group
    ok = True
    details = []
    full = Subgroup(K, [K.element_from_index(i) for i in range(1, K.order)])
    zero = Subgroup(K, [])
    for H, hname in [(full, "K"), (zero, "0")]:
        for m in (0, 1, -1, 2 * tower.h(3)):
            rep = skew_decomposition_check(tower, H, 4, m)
            if not rep.passed:
                ok = False
                details.append(f"H={hname}, m={m}: FAIL")
    report(8, ok, "exact block equality for H in {K, 0}, m in {0, +/-1, 2h_3} at depth 4"
           if ok else "; ".join(details))


def test_criterion_9_ergodicity_inputs(tower_12):
    tower, spec = tower_12
    ok = True
    details = []
    # return-cut densities at every ratio-1 stagger level of index <= 8
    for n in tower.stagger_steps(k=1):
        if n + 1 > 8:
            continue
        rc = return_cuts(tower, n)
        if not rc.certified:
            ok = False
            details.append(f"level {n + 1}: densities below 1/3")
    details.append("densities >= 1/3 at levels <= 8")

    counts = []
    for p in (1, 2):
        entries = ergodicity_sweep(tower, p, 2)   # verifies every witness once
        counts.append(len(entries))
        if not all(ratio > bound for _, ratio, bound in entries):
            ok = False
            details.append(f"p={p}: a witness carries no more than its summable weight")
    details.append(f"{counts[0]} single and {counts[1]} pair transports verified, each above its weight")

    a = next(l.tag.el for l in tower.levels if l.tag is not None and l.tag.k == 0)
    period = 2
    for p in (1, 2):
        rep = label_transport_witness(tower, p, 2, (0,) * p, a)
        ratio_power_ok = rep.ratio ** p > Fraction(1, (2 * period)) ** p
        if not (rep.label_ok and ratio_power_ok):
            ok = False
            details.append(f"p={p}: label witness fails")
    details.append("label value certified for p <= 2")
    report(9, ok, "; ".join(details))


def test_criterion_10_multiple_recurrence(tower_12):
    tower, _ = tower_12
    A = Cylinder(1, (0,))
    found = multiple_recurrence_search(tower, A, 2, 2 * tower.h(3), 4)
    ok = found is not None
    detail = "no k found"
    if found:
        k, mass = found
        monotone = recurrence_holds_at(tower, A, 2, k, 5)
        ok &= mass > 0 and monotone
        detail = f"k = {k}, mass = {mass}, holds again at depth 5: {monotone}"
    report(10, ok, detail)
