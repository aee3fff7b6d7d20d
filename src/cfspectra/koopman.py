"""Weighted shift operators on tower rungs and certified weak-limit residuals.

Every quantity here is a pairing of cylinder indicators computed exactly by
the pairing engine; residuals are certified upper bounds: an exact modulus
bound on the deviation plus the exact truncation error mass.  Comparisons
against thresholds therefore never involve floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ne

from .cocycle import CosetSpace, TailShift, rung_label_indices
from .cyclotomic import Cyclo, _canonical, abs_lower, abs_upper
from .groups import (
    Character,
    LimitExceeded,
    Subgroup,
    addition_table,
    annihilator,
    character_orbit_average,
    exponent_table,
    negation_table,
    same_dual_orbit,
)
from .pairings import LevelPairing, PairingEngine
from .tower import Cylinder, Report, Tag, Tower

_BITS = 128

# The most residual cells (scheduled steps x characters x family^2) one grid
# may certify.  A cell takes 25-40 microseconds on depth 7-12 towers at
# --max-level 1 and 2 (best of three, CPython 3.11 on a 2-CPU x86-64 host),
# so this is 2.5-4 s of work; larger grids are refused up front.
_GRID_GUARD = 100_000


def _engine(tower: Tower) -> PairingEngine:
    """The tower's one pairing engine, shared by all its characters."""
    return tower.cached("pairing_engine", PairingEngine, tower)


def _orbit_average(tower: Tower, chi: Character, a) -> Cyclo:
    """``character_orbit_average(chi, a, tower.v)``, kept per tower for each (chi, a)."""
    return tower.cached(("orbit_average", chi.coords, a.coords), character_orbit_average, chi, a, tower.v)


def pairing(tower: Tower, chi: Character, m: int, A: Cylinder, B: Cylinder,
            N: int | None = None) -> LevelPairing:
    """<U^m 1_A, 1_B> at depth N (default: the full built depth)."""
    N = tower.depth if N is None else N
    return _engine(tower).pairing(chi, m, A, B, N)


def _require_tag(tower: Tower, n: int, tag: Tag) -> None:
    if tower.level(n + 1).tag != tag:
        raise ValueError(f"step {n} carries {tower.level(n + 1).tag}, not {tag}")


def weak_limit_residual_even(tower: Tower, chi: Character, a, A: Cylinder, B: Cylinder,
                             n: int, N: int | None = None) -> Fraction:
    """Certified bound on |<U^{2h_n} 1_A, 1_B> - l * <1_A, 1_B>|.

    Here l is the orbit average of chi at the step element a; the step n must
    carry the k = 0 (even) recipe with that element.
    """
    _require_tag(tower, n, Tag(a, 0))
    return _residual(tower, chi, a, 0, A, B, n, N)


def weak_limit_residual_stagger(tower: Tower, chi: Character, b, k: int, A: Cylinder,
                                B: Cylinder, n: int, N: int | None = None) -> Fraction:
    """Certified bound on the stagger-step limit deviation.

    The target mixes the identity (weighted by the orbit average over k+1)
    with the one-step-back pairing weighted by k/(k+1); the step n must carry
    the recipe for b with this k >= 1.
    """
    if k < 1:
        raise ValueError(f"stagger mix ratio k = {k} is below 1")
    _require_tag(tower, n, Tag(b, k))
    return _residual(tower, chi, b, k, A, B, n, N)


def _residual(tower, chi, el, k, A, B, n, N) -> Fraction:
    """The step-n residual of one cell."""
    p = pairing(tower, chi, 2 * tower.h(n), A, B, N)
    scaled = _orbit_average(tower, chi, el) * pairing(tower, chi, 0, A, B, N).value
    back = pairing(tower, chi, -1, A, B, N) if k >= 1 else None
    return _deviation(p, scaled, k, back)


def _deviation(p: LevelPairing, scaled: Cyclo, k: int, back: LevelPairing | None) -> Fraction:
    """Certified bound on |p - target|, target = (scaled + k * back) / (k+1).

    Here scaled is l * <1_A, 1_B>, l the orbit average of chi at the step
    element, and back the <U^-1 1_A, 1_B> pairing; at k = 0 the target is
    scaled alone and back is not read.  All three lie in chi's field, so
    they share one order.
    """
    # p - target = ((k+1) p - scaled - k back) / (k+1), formed on integer numerators
    # over one denominator; at k = 0 the back term has weight 0, and scaled stands in
    # for the unread back pairing
    x, y = p.value, scaled
    b = back.value if k >= 1 else scaled
    den = math.lcm(x.den, y.den, b.den)
    sx, sy, sb = (k + 1) * (den // x.den), den // y.den, k * (den // b.den)
    nums = [sx * u - sy * v - sb * w for u, v, w in zip(x.nums, y.nums, b.nums)]
    bound = p.error_bound
    if k >= 1:   # bound + k/(k+1) * back's error bound, as one fraction
        f = back.error_bound
        bound = Fraction((k + 1) * bound.numerator * f.denominator + k * f.numerator * bound.denominator,
                         (k + 1) * bound.denominator * f.denominator)
    return abs_upper(_canonical(x.order, nums, den * (k + 1)), _BITS) + bound


def tail_shift_residual(tower: Tower, A: Cylinder, B: Cylinder, n: int,
                        N: int | None = None) -> Fraction:
    """Certified bound on |<U^{Z_n} 1_A, 1_B> - <U_S 1_A, 1_B>|.

    Z_n is the partial sum of the per-level shifts.  At truncation depth N the
    tail-shift map acts on the certified domain as the rung shift by Z_N, so
    its pairing is the Z_N-shift pairing and carries the top-window error mass.
    """
    N = tower.depth if N is None else N
    ts = TailShift(tower)
    trivial = Character(tower.group, (0,) * tower.group.rank)
    zn = ts.z_prefix(n)
    zN = ts.z_prefix(N)
    if max(zn, zN) >= tower.h(N):
        raise ValueError("depth insufficient for the accumulated shift")
    pt = pairing(tower, trivial, zn, A, B, N)
    ps = pairing(tower, trivial, zN, A, B, N)
    return abs_upper(pt.value - ps.value, _BITS) + pt.error_bound + ps.error_bound


@dataclass
class SeparationResult:
    bound_a: Fraction
    bound_b: Fraction
    gap_lower: Fraction
    certified: bool


def separation_check(tower: Tower, chi: Character, xi: Character, a, A: Cylinder,
                     B: Cylinder, n: int) -> SeparationResult:
    """Certify that the two weighted limits at an even step stay apart.

    Both pairings approach their orbit-average targets within certified
    bounds; the result is certified when the exact gap between the two
    targets exceeds the sum of the bounds.
    """
    if same_dual_orbit(chi, xi, tower.v):
        raise ValueError("characters lie on the same dual orbit; no separation to certify")
    ra = weak_limit_residual_even(tower, chi, a, A, B, n)
    rb = weak_limit_residual_even(tower, xi, a, A, B, n)
    la = _orbit_average(tower, chi, a)
    lb = _orbit_average(tower, xi, a)
    inner = pairing(tower, chi, 0, A, B).value.as_fraction()
    gap = abs_lower(la - lb, _BITS) * inner
    return SeparationResult(ra, rb, gap, gap > ra + rb)


# -- explicit rung operators (shallow depths) ---------------------------------


class LevelOperator:
    """The weighted m-shift on depth-N rung functions, stored explicitly.

    A partial permutation: rung f maps to f+m when in range, with phase
    chi(rung_label(f+m) - rung_label(f)) tracked as a root-of-unity exponent;
    the phase exponent is None exactly off the stack.
    """

    def __init__(self, tower: Tower, chi: Character, m: int, N: int):
        self.tower = tower
        self.chi = chi
        self.m = m
        self.L = chi.root_order
        exp_of = exponent_table(chi)
        ex = [exp_of[i] for i in rung_label_indices(tower, N)]
        h = tower.h(N)
        lo = min(h, max(0, -m))   # the rungs [lo, hi) stay on the stack under the m-shift
        hi = max(lo, min(h, h - m))
        self.phase_exponent = ([None] * lo + [(b - a) % self.L for a, b in zip(ex[lo:hi], ex[lo + m:hi + m])]
                               + [None] * (h - hi))
        self.undefined_count = self.phase_exponent.count(None)
        self.error_mass = Fraction(self.undefined_count, tower.cut_product(N))


def skew_decomposition_check(tower: Tower, H: Subgroup, N: int, m: int) -> Report:
    """Verify that the fiberwise character transform block-diagonalizes the skew shift.

    The skew shift on (rung, coset) pairs advances the rung by m and translates
    the coset by the rung-label increment a_f.  Conjugating by the character
    transform of the fiber must give, per character chi of the fiber, the
    diagonal entry chi(a_f) on each rung and zero between distinct characters;
    the LevelOperator blocks must carry exactly those diagonal phases.  All
    checks are exact root-of-unity identities on element indices, grouped by
    the finitely many values of a_f.
    """
    rep = Report()
    G = tower.group
    cosets = CosetSpace(G, H)
    chars = annihilator(G, H)
    L = G.exponent
    labels = rung_label_indices(tower, N)
    h = tower.h(N)
    add, neg = addition_table(G), negation_table(G)
    # the increment a_f = l(f+m) - l(f) of every rung, as an element index; None off the stack
    inc = [add[labels[f + m]][neg[labels[f]]] if 0 <= f + m < h else None for f in range(h)]
    # index order is coordinate order, so the increments come out sorted by coords
    increments = sorted(set(inc) - {None})
    undefined_count = inc.count(None)
    exps = {chi.coords: exponent_table(chi) for chi in chars}

    for chi in chars:
        e_chi = exps[chi.coords]
        for xi in chars:
            e_xi = exps[xi.coords]
            ok = True
            detail = ""
            for a in increments:
                # conjugated matrix entry between (f, chi) and (f+m, xi):
                # (1/#cosets) * sum over coset reps of xi(a + kappa) * conj(chi(kappa))
                counts: dict[int, int] = {}
                row = add[a]
                for k in cosets.rep_indices:
                    e = (e_xi[row[k]] - e_chi[k]) % L
                    counts[e] = counts.get(e, 0) + 1
                entry = Cyclo.from_exponent_counts(L, counts, cosets.size)
                if chi.coords == xi.coords:
                    expected = Cyclo.root_of_unity(L, e_chi[a])
                else:
                    expected = Cyclo.zero(L)
                if entry != expected:
                    ok = False
                    detail = f"increment {G.element_from_index(a).coords}: entry {entry} != {expected}"
                    break
            name = (f"fiber block chi={chi.coords}" if chi.coords == xi.coords
                    else f"off-diagonal chi={chi.coords}, xi={xi.coords}")
            rep.add(name, N, ok, detail)

    # each weighted operator must carry, rung for rung, the diagonal entry chi(a_f)
    # just certified, and be undefined exactly off the stack
    for chi in chars:
        block = LevelOperator(tower, chi, m, N)
        e_chi = exps[chi.coords]
        want = [None if a is None else e_chi[a] for a in inc]
        mism = sum(map(ne, block.phase_exponent, want))
        rep.add(f"block phases chi={chi.coords}", N, mism == 0, f"{mism} mismatches")
        rep.add(f"error mass chi={chi.coords}", N,
                block.error_mass == Fraction(undefined_count, tower.cut_product(N)))
    return rep


# -- residual grids -------------------------------------------------------------


def check_grid_size(tower: Tower, n_chars: int, max_level: int) -> None:
    """Refuse a grid over ``cylinder_family(tower, max_level)`` past ``_GRID_GUARD`` cells.

    The cell count is estimated from the stack heights alone, before any
    cylinder is built.
    """
    if not 0 <= max_level <= tower.depth:
        raise ValueError(f"max level {max_level} outside 0..{tower.depth} (the tower depth)")
    family = 1 + sum(tower.h(n) for n in range(1, max_level + 1))
    _refuse_grid(tower, n_chars, family, f"to max level {max_level}", "lower --max-level")


def _refuse_grid(tower: Tower, n_chars: int, family: int, grid: str, remedy: str) -> None:
    """LimitExceeded when scheduled steps x ``n_chars`` x ``family``^2 passes ``_GRID_GUARD`` cells."""
    steps = sum(1 for lvl in tower.levels if lvl.tag is not None)
    cells = steps * n_chars * family**2
    if cells > _GRID_GUARD:
        raise LimitExceeded(
            f"residual grid {grid} would certify {cells:,} cells "
            f"({steps} steps x {n_chars} characters x {family:,}^2 cylinder pairs; "
            f"guard {_GRID_GUARD:,}); {remedy}")


def cylinder_family(tower: Tower, max_level: int) -> list[tuple[str, Cylinder]]:
    """The fixed dense family: the base stack plus all singleton rungs at low levels."""
    fam: list[tuple[str, Cylinder]] = [("X0", Cylinder(0, (0,)))]
    for n in range(1, max_level + 1):
        for f in range(tower.h(n)):
            fam.append((f"{n}:{f}", Cylinder.single(n, f)))
    return fam


@dataclass
class ResidualRow:
    n: int
    tag: str
    chi: tuple[int, ...]
    a_id: str
    b_id: str
    residual: Fraction
    error: Fraction


def residual_grid(tower: Tower, chars: list[Character], family: list[tuple[str, Cylinder]]) -> list[ResidualRow]:
    """All weak-limit residuals over the scheduled steps and the cylinder family.

    Each (chi, A, B) takes its <1_A, 1_B> and <U^-1 1_A, 1_B> pairings once
    for all steps, and l * <1_A, 1_B> once per step element.  The pairs are
    taken deepest base level first, so each propagation walk to a lower base
    continues from the one above it.  The rows come out as per-cell
    ``_residual`` calls in step, character, A, B order would give them.

    Each pair {chi, conj chi} is certified once: a character whose conjugate
    was computed earlier in ``chars`` takes copies of the conjugate's rows.
    The copies are exact.  Conjugation sends chi(W) to conj chi(W) for the
    integer Z[K] vector W of every pairing, and l to its conjugate, so
    conj chi's p - target is the conjugate of chi's; ``abs_upper`` reads only
    z * conj(z), and the error masses do not depend on the character.  The
    twin is looked up as a ``Character``, group included, so a character of
    another group still reaches ``PairingEngine.pairing`` and is refused.

    Refused with LimitExceeded, before any pairing, past ``_GRID_GUARD`` cells,
    counted over every character, copied or not.
    """
    _refuse_grid(tower, len(chars), len(family), f"over {len(family):,} cylinders", "use a smaller family")
    steps = []   # (n, tag, tag text, 2h_n) per scheduled step
    for lvl in tower.levels:
        if lvl.tag is not None:
            tg = lvl.tag
            coords = "+".join(map(str, tg.el.coords))
            steps.append((lvl.step, tg, f"stagger:{coords}:k={tg.k}" if tg.k else f"even:{coords}",
                          2 * tower.h(lvl.step)))
    adjoint = any(tg.k for _, tg, _, _ in steps)
    N = tower.depth
    pairs = [(a, b) for a in family for b in family]
    deepest_first = sorted(range(len(pairs)), key=lambda i: -max(pairs[i][0][1].level, pairs[i][1][1].level))
    eng = _engine(tower)
    cells = []   # cells[c][i][s]: the row of character c, pair i and step s
    computed = {}   # character -> its per_pair rows, for each character certified here
    for chi in chars:
        twin = computed.get(Character(chi.group, tuple(-c for c in chi.coords)))
        if twin is not None:
            cells.append([[ResidualRow(r.n, r.tag, chi.coords, r.a_id, r.b_id, r.residual, r.error) for r in out]
                          for out in twin])
            continue
        averages = {tg.el: _orbit_average(tower, chi, tg.el) for _, tg, _, _ in steps}
        per_pair = [None] * len(pairs)
        for i in deepest_first:
            (a_id, A), (b_id, B) = pairs[i]
            p0 = eng.pairing(chi, 0, A, B, N).value
            back = eng.pairing(chi, -1, A, B, N) if adjoint else None
            scaled = {el: l * p0 for el, l in averages.items()}   # l * <1_A, 1_B> per step element
            out = per_pair[i] = []
            for n, tg, tag, shift in steps:
                p = eng.pairing(chi, shift, A, B, N)
                res = _deviation(p, scaled[tg.el], tg.k, back)
                out.append(ResidualRow(n, tag, chi.coords, a_id, b_id, res, p.error_bound))
        computed[chi] = per_pair
        cells.append(per_pair)
    rows = [per_pair[i][s] for s in range(len(steps)) for per_pair in cells for i in range(len(pairs))]
    rows.sort(key=lambda r: (r.n, r.tag, r.chi, r.a_id, r.b_id))
    return rows


def residual_csv(rows: list[ResidualRow]) -> str:
    """The residual grid as CSV text, one line per row after the header."""
    lines = ["n,tag,chi_id,A_id,B_id,residual_num,residual_den,error_num,error_den"]
    for r in rows:
        chi_id = "+".join(map(str, r.chi)) if r.chi else "0"
        lines.append(f"{r.n},{r.tag},{chi_id},{r.a_id},{r.b_id},"
                     f"{r.residual.numerator},{r.residual.denominator},"
                     f"{r.error.numerator},{r.error.denominator}")
    return "\n".join(lines) + "\n"
