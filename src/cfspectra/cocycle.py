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
from itertools import takewhile

from .groups import Element, FinAbGroup, LimitExceeded, Subgroup, addition_table, negation_table
from .tower import Point, Tower, apply_T

# The most rungs a rung-indexed table may list.  A table takes about 8 bytes a
# rung; the largest any caller builds is h_4 = 82,998 (the {2} and {1,2}
# towers, the acceptance suite's skew check at N = 4): 0.7 MB in 3 ms
# (tracemalloc peak, CPython 3.11 on a 2-CPU x86-64 host).  So a table stays
# under about 8 MB; h_5 = 21,247,488 of those towers (183 MB) and h_4 =
# 1,327,320 of {8} are refused up front.
_LABEL_TABLE_GUARD = 1_000_000


def rung_label(tower: Tower, f: int, N: int) -> int:
    """Element index of the depth-N rung label of f: the label sum ``decompose`` returns plus the cut-0 labels
    of the levels 1..n_min under its stop.  IndexError when one of those levels has no cut 0."""
    n_min, _, _, label = tower.decompose(f, N)
    return addition_table(tower.group)[label][_zero_label_sum(tower, n_min)]


def _zero_label_sum(tower: Tower, n: int) -> int:
    """Element index of the sum of the cut-0 labels of levels 1..n.  IndexError naming the first level
    without cut 0 when one of them has none."""
    sums = tower.cached("zero_label_sums", _zero_label_sums, tower)
    if n >= len(sums):
        raise IndexError(f"level {len(sums)}: no cut 0")
    return sums[n]


def _zero_label_sums(tower: Tower) -> list[int]:
    """Entry n indexes the sum of the cut-0 labels of levels 1..n, up to the first level without cut 0."""
    add, sums = addition_table(tower.group), [0]   # level 0: the identity (index 0)
    for lvl in takewhile(lambda lvl: 0 in lvl, tower.levels):
        sums.append(add[sums[-1]][lvl.label_index(0)])
    return sums


def rung_label_indices(tower: Tower, N: int) -> list[int]:
    """Rung labels for all of [0, h_N), as element indices; kept by ``Tower.cached``.

    Refused with LimitExceeded, before anything is built, past ``_LABEL_TABLE_GUARD`` rungs.
    """
    h = tower.h(N)
    if h > _LABEL_TABLE_GUARD:
        raise LimitExceeded(f"rung label table at depth {N} would list h_{N} = {h:,} rungs "
                            f"(guard {_LABEL_TABLE_GUARD:,}); lower the depth")
    return tower.cached(("rung_label_indices", N), _rung_label_table, tower, N)


def _rung_label_table(tower: Tower, N: int) -> list[int]:
    """Rung labels for all of [0, h_N), as element indices; built level by level."""
    add = addition_table(tower.group)
    arr = [0]  # level 0: the single rung carries the identity (index 0)
    for n in range(1, N + 1):
        lvl = tower.level(n)
        # rungs outside the embedded region decompose with all-zero coordinates
        new = [_zero_label_sum(tower, n)] * lvl.h
        # the rungs over cut c are those of the level below plus the cut's label
        segments: dict[int, list[int]] = {}
        stride, width = lvl.class_stride, len(arr)
        for c, count, g, _ in lvl.shift_classes(0):
            if g not in segments:
                segments[g] = [add[g][b] for b in arr]
            for start in (c + stride * s for s in range(count)):
                new[start:start + width] = segments[g]
        if len(new) != lvl.h:
            raise IndexError(f"level {n}: a cut's stack leaves [0, h)")
        arr = new
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
        differences along the canonical coordinates: the difference of the
        two rung labels at that depth.  Distinct truncations leave the
        implicit tails incomparable and are rejected.
        """
        t = self.tower
        if x.truncation != y.truncation:
            raise NotEquivalent("points have different truncation depths")
        N = x.truncation
        add, neg = addition_table(t.group), negation_table(t.group)
        return t.elements[add[rung_label(t, x.rung(t), N)][neg[rung_label(t, y.rung(t), N)]]]


# -- coset fibers of the skew product ----------------------------------------


class CosetSpace:
    """The finite fiber K/H with uniform weights; each coset is named by its least element index."""

    def __init__(self, group: FinAbGroup, H: Subgroup):
        if H.group != group:
            raise ValueError("subgroup of a different group")
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
        self.z = [0] + [lvl.z for lvl in tower.levels]   # seed levels have z = 0

    def z_prefix(self, n: int) -> int:
        return sum(self.z[1:n + 1])

    def apply(self, p: Point) -> Point | None:
        """The shifted point, or None when no admissible level certifies p."""
        t = self.tower
        N = p.truncation
        n_min, level_rung, coords, _ = t.decompose(p.rung(t), N)
        for n in range(n_min, N + 1):
            level_rung += coords.get(n, 0)   # n_min has no coordinate
            if (level_rung + self.z_prefix(n) < t.h(n)
                    and all(coords[m] + self.z[m] in t.level(m) for m in range(n + 1, N + 1))):
                return Point(n, level_rung + self.z_prefix(n),
                             tuple(coords[m] + self.z[m] for m in range(n + 1, N + 1)))
        return None

def commutes_with_shift(ts: TailShift, p: Point) -> bool | None:
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
    terms: list[Fraction]
    partial_sums: list[Fraction]

    @property
    def total(self) -> Fraction:
        return self.partial_sums[-1] if self.partial_sums else Fraction(0)


def _aligned_classes(tower: Tower, n: int) -> list[tuple[int, int, int, int]]:
    """``shift_classes`` of the aligned cuts (every cut on a seed level, where z_n = 0)."""
    lvl = tower.level(n)
    if lvl.z == 0:
        return lvl.shift_classes(0)
    v1 = tower.v.perm
    return [cls for cls in lvl.shift_classes(lvl.z) if cls[3] == v1[cls[2]]]


def check_coboundary_condition(tower: Tower) -> AlignedCutsReport:
    """Per-level aligned-cut deficits 1 - #aligned/#cuts and their partial sums."""
    levels, acounts, terms, partials = [], [], [], []
    run = Fraction(0)
    for n in range(1, tower.depth + 1):
        lvl = tower.level(n)
        ac = sum(cls[1] for cls in _aligned_classes(tower, n))
        term = 1 - Fraction(ac, lvl.r)
        run += term
        levels.append(n)
        acounts.append(ac)
        terms.append(term)
        partials.append(run)
    return AlignedCutsReport(levels, acounts, terms, partials)
