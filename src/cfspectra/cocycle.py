"""Cocycles over the tower's tail relation, skew-product fibers, and the tail-shift map.

The cocycle attaches to each pair of tail-equivalent points the sum of
cut-label differences along their decompositions.  On rungs of a fixed
truncation depth this reduces to a difference of "rung labels", the label
sums along the canonical decomposition; that reduction is what makes all
the exact pairing computations downstream finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import Element, FinAbGroup, Subgroup, addition_table, negation_table
from .tower import Point, Tower, apply_T


def rung_label(tower: Tower, f: int, N: int) -> Element:
    """Sum of cut labels along the depth-N canonical decomposition of rung f."""
    key = ("rung_label", N, f)
    cached = tower._cache.get(key)
    if cached is not None:
        return cached
    n_min, _, coords = tower.decompose(f, N)
    add = addition_table(tower.group)
    total = 0
    for j in range(1, N + 1):
        total = add[total][tower.level(j).label_index(coords.get(j, 0))]
    el = tower._cache[key] = tower.elements[total]
    return el


def rung_label_indices(tower: Tower, N: int) -> list[int]:
    """Rung labels for all of [0, h_N), as element indices; built level by level."""
    key = ("rung_label_indices", N)
    cached = tower._cache.get(key)
    if cached is not None:
        return cached
    add = addition_table(tower.group)
    newmass = 0
    arr = [newmass]  # level 0: the single rung carries the identity (index 0)
    for n in range(1, N + 1):
        lvl = tower.level(n)
        # rungs outside the embedded region decompose with all-zero coordinates
        newmass = add[newmass][lvl.label_index(0)]
        new = [newmass] * lvl.h
        # the rungs over cut c are those of the level below plus the cut's label
        segments: dict[int, list[int]] = {}
        stride, width = lvl.z * len(tower.v_pow), len(arr)
        for c, count, g, _ in lvl.shift_classes(0):
            if g not in segments:
                segments[g] = [add[g][b] for b in arr]
            for start in (c + stride * s for s in range(count)):
                new[start:start + width] = segments[g]
        if len(new) != lvl.h:
            raise IndexError(f"level {n}: a cut's stack leaves [0, h)")
        arr = new
    tower._cache[key] = arr
    return arr


class NotEquivalent(Exception):
    """The two points are not tail-equivalent within their truncation."""


class Cocycle:
    """The label cocycle of a tower: sums of per-level label differences."""

    def __init__(self, tower: Tower):
        self.tower = tower

    def eval(self, x: Point, y: Point) -> Element:
        """Cocycle value between tail-equivalent points.

        Points truncated at a common depth share their implicit tail, so any
        two of them are equivalent and the value is the finite sum of label
        differences along the canonical coordinates.  Distinct truncations
        leave the implicit tails incomparable and are rejected.
        """
        t = self.tower
        if x.truncation != y.truncation:
            raise NotEquivalent("points have different truncation depths")
        N = x.truncation
        cx = t.gamma_coords(x.rung(t), N)
        cy = t.gamma_coords(y.rung(t), N)
        add, neg = addition_table(t.group), negation_table(t.group)
        total = 0
        for j in range(1, N + 1):
            if cx[j - 1] != cy[j - 1]:
                lvl = t.level(j)
                total = add[add[total][lvl.label_index(cx[j - 1])]][neg[lvl.label_index(cy[j - 1])]]
        return t.elements[total]


# -- coset fibers of the skew product ----------------------------------------


class CosetSpace:
    """The finite fiber K/H with uniform weights; each coset is named by its least element index."""

    def __init__(self, group: FinAbGroup, H: Subgroup):
        if H.group != group:
            raise ValueError("subgroup of a different group")
        self.group = group
        self.H = H
        add = addition_table(group)
        self.rep_indices: list[int] = []
        seen = 0   # bitmask of the element indices in the cosets met so far
        for r in range(group.order):   # index order: each coset is met first at its least index
            if not seen >> r & 1:
                self.rep_indices.append(r)
                for i in H.indices:
                    seen |= 1 << add[r][i]
        self.size = len(self.rep_indices)
        assert self.size == group.order // H.order

    def canonical(self, g: Element) -> Element:
        """The least element of the coset g + H."""
        if g.group != self.group:
            raise ValueError("element of a different group")
        row = addition_table(self.group)[self.group.element_index(g)]
        return self.group.element_from_index(min(row[i] for i in self.H.indices))

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.size)


# -- the tail-shift commuting map ---------------------------------------------


class TailShift:
    """The map shifting the rung by z_1+...+z_n and every higher cut by z_m.

    Domain certification at truncation depth N checks, for some admissible
    level n: the rung bound at n, and that every known coordinate above n
    survives the z-shift.  Conditions beyond the truncation are out of
    sight by construction; the per-level descriptions are exactly the
    pieces that are checkable from the stored data.
    """

    def __init__(self, tower: Tower):
        self.tower = tower
        self.z = [0] * (tower.depth + 1)
        for n in range(1, tower.depth + 1):
            self.z[n] = tower.level(n).z if tower.level(n).tag is not None else 0

    def z_prefix(self, n: int) -> int:
        return sum(self.z[1:n + 1])

    def apply(self, p: Point) -> Point | None:
        """The shifted point, or None when no admissible level certifies p."""
        t = self.tower
        N = p.truncation
        rung = p.rung(t)
        n_min, f0, coords = t.decompose(rung, N)
        level_rung = f0
        for n in range(n_min, N + 1):
            if n > n_min:
                level_rung += coords[n]
            if level_rung + self.z_prefix(n) >= t.h(n):
                continue
            ok = True
            for m in range(n + 1, N + 1):
                c = coords[m]
                if c + self.z[m] not in t.level(m):
                    ok = False
                    break
            if ok:
                new_rung = level_rung + self.z_prefix(n)
                tail = tuple(coords[m] + self.z[m] for m in range(n + 1, N + 1))
                return Point(n, new_rung, tail)
        return None

def commutes_with_shift(ts: TailShift, cocycle: Cocycle, p: Point) -> bool | None:
    """Exact check of T(S(p)) == S(T(p)) where both sides are defined."""
    t = ts.tower
    tp = apply_T(t, p, 1)
    sp = ts.apply(p)
    if tp is None or sp is None:
        return None
    left = ts.apply(tp)
    right = apply_T(t, sp, 1)
    if left is None or right is None:
        return None
    return left.rung(t) == right.rung(t) and left.truncation == right.truncation


# -- coboundary-condition bookkeeping ------------------------------------------


@dataclass
class AlignedCutsReport:
    levels: list[int]
    aligned_counts: list[int]
    cut_counts: list[int]
    terms: list[Fraction]
    partial_sums: list[Fraction]

    @property
    def total(self) -> Fraction:
        return self.partial_sums[-1] if self.partial_sums else Fraction(0)


def _aligned_classes(tower: Tower, n: int) -> list[tuple[int, int, int, int]]:
    """``shift_classes`` of the aligned cuts (every cut on a seed level, where z_n = 0)."""
    lvl = tower.level(n)
    if lvl.tag is None or lvl.z == 0:
        return lvl.shift_classes(0)
    v1 = tower.v.perm
    return [cls for cls in lvl.shift_classes(lvl.z) if cls[3] == v1[cls[2]]]


def check_coboundary_condition(tower: Tower) -> AlignedCutsReport:
    """Per-level aligned-cut deficits 1 - #aligned/#cuts and their partial sums."""
    levels, acounts, ccounts, terms, partials = [], [], [], [], []
    run = Fraction(0)
    for n in range(1, tower.depth + 1):
        lvl = tower.level(n)
        ac = sum(cls[1] for cls in _aligned_classes(tower, n))
        term = 1 - Fraction(ac, lvl.r)
        run += term
        levels.append(n)
        acounts.append(ac)
        ccounts.append(lvl.r)
        terms.append(term)
        partials.append(run)
    return AlignedCutsReport(levels, acounts, ccounts, terms, partials)
