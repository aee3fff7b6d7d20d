"""Weighted shift operators on tower rungs and certified weak-limit residuals.

Every quantity here is a pairing of cylinder indicators computed exactly by
the pairing engine; residuals are certified upper bounds: an exact modulus
bound on the deviation plus the exact truncation error mass.  Comparisons
against thresholds therefore never involve floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import ne

from .cocycle import CosetSpace, TailShift, rung_label_indices
from .cyclotomic import Cyclo, abs_lower, abs_upper
from .groups import (
    Character,
    Subgroup,
    addition_table,
    annihilator,
    character_orbit_average,
    exponent_table,
    negation_table,
    same_dual_orbit,
)
from .pairings import LevelPairing, PairingEngine
from .tower import Cylinder, EvenTag, Report, StaggerTag, Tower

_BITS = 128

# The most residual cells (scheduled steps x characters x family^2) one grid
# may certify.  A cell takes about half a millisecond on depth 8-12 towers,
# so this is about a minute of work; larger grids are refused up front.
_GRID_GUARD = 100_000


class GridGuardExceeded(RuntimeError):
    """A residual grid would certify more than ``_GRID_GUARD`` cells."""


def _engine(tower: Tower, chi: Character) -> PairingEngine:
    key = ("engine", chi.coords)
    eng = tower._cache.get(key)
    if eng is None:
        eng = PairingEngine(tower, chi)
        tower._cache[key] = eng
    return eng


def _orbit_average(tower: Tower, chi: Character, a) -> Cyclo:
    """``character_orbit_average(chi, a, tower.v)``, kept per tower for each (chi, a)."""
    cache = tower._cache.setdefault("orbit_averages", {})
    key = (chi.coords, a.coords)
    avg = cache.get(key)
    if avg is None:
        avg = cache[key] = character_orbit_average(chi, a, tower.v)
    return avg


def pairing(tower: Tower, chi: Character, m: int, A: Cylinder, B: Cylinder,
            N: int | None = None) -> LevelPairing:
    """<U^m 1_A, 1_B> at depth N (default: the full built depth)."""
    N = tower.depth if N is None else N
    return _engine(tower, chi).pairing(m, A, B, N)


def _require_tag(tower: Tower, n: int, kind, **attrs):
    lvl = tower.level(n + 1)
    if not isinstance(lvl.tag, kind):
        raise ValueError(f"step {n} does not carry a {kind.__name__} recipe level")
    for name, val in attrs.items():
        if getattr(lvl.tag, name) != val:
            raise ValueError(f"step {n} tag has {name}={getattr(lvl.tag, name)}, expected {val}")
    return lvl


def weak_limit_residual_even(tower: Tower, chi: Character, a, A: Cylinder, B: Cylinder,
                             n: int, N: int | None = None) -> Fraction:
    """Certified bound on |<U^{2h_n} 1_A, 1_B> - l * <1_A, 1_B>|.

    Here l is the orbit average of chi at the step element a; the step n must
    carry the even recipe with that element.
    """
    _require_tag(tower, n, EvenTag, a=a)
    return _residual_even(tower, chi, a, A, B, n, N)[0]


def _residual_even(tower, chi, a, A, B, n, N) -> tuple[Fraction, LevelPairing]:
    """The even-step residual and the 2h_n-shift pairing it was taken from."""
    p = pairing(tower, chi, 2 * tower.h(n), A, B, N)
    inner = pairing(tower, chi, 0, A, B, N)
    target = _orbit_average(tower, chi, a) * inner.value
    return abs_upper(p.value - target, _BITS) + p.error_bound, p


def weak_limit_residual_stagger(tower: Tower, chi: Character, b, k: int, A: Cylinder,
                                B: Cylinder, n: int, N: int | None = None) -> Fraction:
    """Certified bound on the stagger-step limit deviation.

    The target mixes the identity (weighted by the orbit average over k+1)
    with the one-step-back pairing weighted by k/(k+1).
    """
    _require_tag(tower, n, StaggerTag, b=b, k=k)
    return _residual_stagger(tower, chi, b, k, A, B, n, N)[0]


def _residual_stagger(tower, chi, b, k, A, B, n, N) -> tuple[Fraction, LevelPairing]:
    """The stagger-step residual and the 2h_n-shift pairing it was taken from."""
    p = pairing(tower, chi, 2 * tower.h(n), A, B, N)
    back = pairing(tower, chi, -1, A, B, N)
    l = _orbit_average(tower, chi, b)
    target = l * pairing(tower, chi, 0, A, B, N).value / (k + 1) + back.value * Fraction(k, k + 1)
    dev = abs_upper(p.value - target, _BITS)
    return dev + p.error_bound + Fraction(k, k + 1) * back.error_bound, p


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
        self.N = N
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
    steps = sum(1 for lvl in tower.levels if lvl.tag is not None)
    family = 1 + sum(tower.h(n) for n in range(1, max_level + 1))
    cells = steps * n_chars * family**2
    if cells > _GRID_GUARD:
        raise GridGuardExceeded(
            f"residual grid to max level {max_level} would certify {cells:,} cells "
            f"({steps} steps x {n_chars} characters x {family:,}^2 cylinder pairs; "
            f"guard {_GRID_GUARD:,}); lower --max-level")


def cylinder_family(tower: Tower, max_level: int = 2) -> list[tuple[str, Cylinder]]:
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


def residual_grid(tower: Tower, chars: list[Character], family=None) -> list[ResidualRow]:
    """All weak-limit residuals over the scheduled steps and the cylinder family."""
    family = cylinder_family(tower) if family is None else family
    rows: list[ResidualRow] = []
    for lvl in tower.levels:
        if lvl.tag is None:
            continue
        n, tg = lvl.step, lvl.tag
        if isinstance(tg, EvenTag):
            tag = f"even:{'+'.join(map(str, tg.a.coords))}"
        else:
            tag = f"stagger:{'+'.join(map(str, tg.b.coords))}:k={tg.k}"
        for chi in chars:
            for a_id, A in family:
                for b_id, B in family:
                    if isinstance(tg, EvenTag):
                        res, p = _residual_even(tower, chi, tg.a, A, B, n, None)
                    else:
                        res, p = _residual_stagger(tower, chi, tg.b, tg.k, A, B, n, None)
                    rows.append(ResidualRow(n, tag, chi.coords, a_id, b_id, res, p.error_bound))
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
