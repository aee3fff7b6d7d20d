"""Inductive cutting-and-stacking towers with group-labelled cuts.

A tower is a sequence of levels; each level has an integer height and a
finite set of cut positions below that height.  Each cut carries a label
in a finite abelian group; labels are generated by explicit ramp patterns
so that the shift-equivariance and frequency-band conditions checked by
``validate_labels`` hold by construction.  All quantities are exact:
heights and cuts are Python ints, measures are Fractions.

Labels are stored and checked as element indices 0..|K|-1 through index
tables of the group law and of the powers of v; ``Level.label`` hands a
label out as an ``Element``.

A recipe level is tagged ``Tag(el, k)``: a stepping element ``el`` and a
mix ratio ``k >= 0``.  Its cuts mix gaps of 2*h and 2*h+1 in the ratio
1 : k, with labels stepping through the automorphism orbit of ``el`` on the
2*h gaps and constant on the 2*h+1 gaps.  The k = 0 level has only 2*h
gaps; tower files, schedules and residual CSVs call it ``even`` and the
k >= 1 levels ``stagger``.

Two hand-seeded levels start the induction; recipe extension begins at
step 2 (level 3).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .groups import (Automorphism, Element, FinAbGroup, LimitExceeded, _parse_int_list, addition_table,
                     least_period, negation_table)

_EMBED_GUARD = 5_000_000


@dataclass(frozen=True)
class Tag:
    """Recipe tag: stepping element el and mix ratio k; k = 0 is the even level."""

    el: Element
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("mix ratio k must be >= 0")


class GeneratorExhausted(Exception):
    """No structured label pattern passed validation (a bug signal for recipe levels)."""


class Level:
    """One tower level: height, shift, and its cuts and labels in block form.

    Every level has cuts ``block + stride * {0..reps-1}`` over a sorted block
    lying in ``[0, stride)``, so the copies come out in cut order, and labels
    on the block as element indices in block order; the label of a cut in the
    q-th copy follows the automorphism power rule
    ``label(d + stride*q) = v^q(label(d))``.  A recipe level repeats a short
    block ``z`` apart, so its stride is its shift ``z``; ``parse_tower``
    keeps the recipe's block (the ``Tower.extend`` level when the file is
    its rendering) when the file's cuts and labels repeat it.  Seed levels,
    and parsed levels that do not repeat their recipe, are one copy
    (``reps == 1``) whose stride is one past the last cut: past the block,
    divmod by the stride gives copy 1 or more, which is no copy, as it is
    for a recipe level past its last copy.  No cut is stored: membership,
    rank and the k-th cut use divmod by the stride and bisect on the block,
    and pair counts use ``shift_classes``, whose classes repeat
    ``class_stride = stride * period of v`` apart.
    ``z`` is the level's shift z_n alone (0 on seed levels).
    The format-1 lines are rendered from the block (``_cut_blocks``,
    ``_label_copies``); ``cuts`` is read only by ``embed`` and by the
    parser's seed-level check and per-entry fallback.
    A tagged level n was built at step ``n - 1``.
    ``elements`` and ``v_pow`` are the owning tower's index tables.
    """

    def __init__(self, n, h, z, block, reps, block_labels, tag, elements, v_pow):
        self.n = n
        self.h = h
        self.z = z
        self.block = tuple(block)
        self.reps = reps
        self.stride = z if reps > 1 else self.block[-1] + 1
        self.class_stride = self.stride * len(v_pow)
        self.block_labels = tuple(block_labels)
        self.tag = tag
        self.step = None if tag is None else n - 1
        self._elements = elements
        self._v_pow = v_pow

    @property
    def r(self) -> int:
        return len(self.block) * self.reps

    @property
    def cuts(self) -> tuple[int, ...]:
        """Every cut in increasing order, built on demand and not kept."""
        return tuple([d + self.stride * q for q in range(self.reps) for d in self.block])

    def _locate(self, c: int) -> tuple[int, int] | None:
        """(copy, block index) of cut c, or None when c is not a cut."""
        q, d = divmod(c, self.stride)
        i = bisect.bisect_left(self.block, d)
        return (q, i) if 0 <= q < self.reps and i < len(self.block) and self.block[i] == d else None

    def __contains__(self, c: int) -> bool:
        return self._locate(c) is not None

    def rank(self, x: int) -> int:
        """The number of cuts below x."""
        q, d = divmod(x, self.stride)
        if q < 0 or q >= self.reps:
            return 0 if q < 0 else self.r
        return q * len(self.block) + bisect.bisect_left(self.block, d)

    def cut(self, k: int) -> int:
        """The k-th cut in increasing order; a negative k counts from the top."""
        if not -self.r <= k < self.r:
            raise IndexError(k)
        q, i = divmod(k % self.r, len(self.block))
        return self.block[i] + self.stride * q

    def label_index(self, c: int) -> int:
        """Element index of the label of cut c."""
        loc = self._locate(c)
        if loc is None:
            raise KeyError(c)
        return self._v_pow[loc[0] % len(self._v_pow)][self.block_labels[loc[1]]]

    def label(self, c: int) -> Element:
        return self._elements[self.label_index(c)]

    def cut_labels(self) -> list[int]:
        """Label indices of every cut, in cut order, built on demand and not kept."""
        rows = [self._v_pow[q % len(self._v_pow)] for q in range(self.reps)]
        return [row[g] for row in rows for g in self.block_labels]

    def shift_classes(self, delta: int) -> list[tuple[int, int, int, int]]:
        """The cuts c with c + delta a cut, by block index and copy residue mod the period P of v.

        The pair (block[i] + stride*q, block[j] + stride*(q + t)) has labels v^q(g_i), v^(q+t)(g_j),
        so each entry (c, count, g, g2) stands for the cuts c + class_stride*s, s < count, labelled g,
        whose partners c + delta are labelled g2.  O(|block| * P) work instead of O(r).
        """
        block, stride, reps, v_pow = self.block, self.stride, self.reps, self._v_pow
        P = len(v_pow)
        out = []
        for d, g in zip(block, self.block_labels):
            t, e = divmod(d + delta, stride)
            j = bisect.bisect_left(block, e)
            if j == len(block) or block[j] != e:
                continue
            lo, hi = max(0, -t), min(reps, reps - t)
            for q in range(lo, min(hi, lo + P)):
                out.append((d + stride * q, (hi - 1 - q) // P + 1,
                            v_pow[q % P][g], v_pow[(q + t) % P][self.block_labels[j]]))
        return out

    def class_cuts(self, classes) -> list[int]:
        """The cuts a list of ``shift_classes`` entries stands for, in increasing order."""
        return sorted(c + self.class_stride * s for c, count, *_ in classes for s in range(count))

    def __repr__(self):
        return f"Level(n={self.n}, h={self.h}, r={self.r}, tag={self.tag})"


class Tower:
    """A finite stack of levels over a label group (K, v).

    ``levels`` is a tuple, changed only by assigning a new one, which clears every table ``cached`` keeps.
    """

    def __init__(self, group: FinAbGroup, v: Automorphism):
        if v.group != group:
            raise ValueError("automorphism must act on the label group")
        self.group = group
        self.v = v
        self.elements = tuple(group.elements())   # index -> Element
        self.v_pow = _power_tables(v)
        self._cache: dict = {}
        self._levels: tuple[Level, ...] = ()

    # -- seeding and extension ------------------------------------------

    @staticmethod
    def seeded(group: FinAbGroup, v: Automorphism) -> "Tower":
        """The default hand-seeded tower: levels 1 and 2 with zero labels."""
        t = Tower(group, v)
        # index 0 is the identity
        t.levels = (Level(1, 3, 0, (0, 1), 1, (0, 0), None, t.elements, t.v_pow),
                    Level(2, 12, 0, (0, 3, 6), 1, (0, 0, 0), None, t.elements, t.v_pow))
        return t

    @property
    def levels(self) -> tuple[Level, ...]:
        return self._levels

    @levels.setter
    def levels(self, levels) -> None:
        self._levels = tuple(levels)
        self._cache.clear()

    def cached(self, key, build, *args):
        """The table ``_cache[key]``, built as ``build(*args)`` (never None) on first use and kept
        until the levels change; the key holds only strings, ints and coordinate tuples."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build(*args)
        return value

    @property
    def depth(self) -> int:
        return len(self._levels)

    def level(self, n: int) -> Level:
        if not 1 <= n <= self.depth:
            raise IndexError(f"level {n} not built (depth {self.depth})")
        return self._levels[n - 1]

    def h(self, n: int) -> int:
        return 1 if n == 0 else self.level(n).h

    def cut_product(self, n: int) -> int:
        """Product of cut counts over levels 1..n."""
        return self.cached("cut_products", _cut_products, self)[max(n, 0)]

    def mu_level(self, n: int) -> Fraction:
        """Measure of the level-n stack (height over cut product)."""
        return Fraction(self.h(n), self.cut_product(n)) if n else Fraction(1)

    def extend(self, tag: Tag) -> Level:
        """Append the next level following the recipe for ``tag``."""
        if self.depth < 2:
            raise ValueError("seed levels 1..2 must exist before extension")
        lvl = self._recipe_level(tag)
        if not validate_labels(lvl, self).passed:
            raise GeneratorExhausted(f"no valid label pattern for {tag} at step {lvl.step}")
        self.levels = (*self._levels, lvl)
        return lvl

    def _recipe_level(self, tag: Tag) -> Level:
        """The level ``extend`` appends for ``tag`` at this depth: the recipe's block on the ramp, which steps
        through the orbit of ``tag.el`` for ``ramp_len`` cuts, then stays.  One pattern is enough: starting the
        ramp at v^o(el) relabels every cut by v^o, which leaves every count of ``validate_labels`` unchanged."""
        n = self.depth
        rec = recipe(self, n, tag)
        add = addition_table(self.group)
        steps = [row[self.group.element_index(tag.el)] for row in self.v_pow]
        labels = [0]
        for t in range(1, len(rec.block)):
            labels.append(add[labels[-1]][steps[(t - 1) % len(steps)]] if t < rec.ramp_len else labels[-1])
        return Level(n + 1, rec.h, rec.z, rec.block, rec.reps, labels, tag, self.elements, self.v_pow)

    # -- decomposition ----------------------------------------------------

    def decompose(self, f: int, N: int) -> tuple[int, int, dict[int, int], int]:
        """Unique decomposition of rung f at depth N, in one walk down from level N.

        Returns (n_min, f0, coords, label) with f = f0 + sum(coords.values()), coords[j] a cut of
        level j for n_min < j <= N, f0 in [0, h(n_min)), n_min minimal, and label the element index
        of the sum of the coordinates' labels.  At each level j the coordinate is the unique cut c
        with f - c in [0, h_{j-1}), read off the level's ``cut_rows`` row; the walk stops at the
        first level without one.
        """
        if not 0 <= f < self.h(N):
            raise ValueError(f"rung {f} outside [0, h_{N})")
        rows, add, label = self.cached("cut_rows", _cut_rows, self), addition_table(self.group), 0
        coords: dict[int, int] = {}
        for j in range(N, 0, -1):
            block, stride, reps, h_prev, labels = rows[j]
            q = min(f // stride, reps - 1)   # the copy holding the last cut <= f, or the one after it
            i = bisect.bisect_right(block, f - stride * q) - 1
            if i < 0:   # below the copy's first cut: the last cut (i = -1) of the copy before
                if q == 0:
                    return j, f, coords, label
                q -= 1
            c = block[i] + stride * q
            if f - c >= h_prev:
                return j, f, coords, label
            coords[j] = c
            f -= c
            label = add[label][self.v_pow[q % len(self.v_pow)][labels[i]]]
        return 0, f, coords, label

    # -- tag bookkeeping ---------------------------------------------------

    def steps_tagged(self, predicate) -> list[int]:
        return [lvl.step for lvl in self.levels if lvl.step is not None and predicate(lvl.tag)]

    def stagger_steps(self, b: Element | None = None, k: int | None = None) -> list[int]:
        return self.steps_tagged(lambda t: t.k >= 1 and (b is None or t.el == b) and (k is None or t.k == k))


def _cut_products(tower: Tower) -> list[int]:
    """Prefix products of the cut counts: entry n is the product over levels 1..n."""
    return list(itertools.accumulate((lvl.r for lvl in tower.levels), operator.mul, initial=1))


def _cut_rows(tower: Tower) -> list:
    """The rows ``Tower.decompose`` walks: (block, stride, reps, h_{n-1}, block_labels) per built level n, after
    a None for level 0."""
    return [None] + [(lvl.block, lvl.stride, lvl.reps, tower.h(lvl.n - 1), lvl.block_labels) for lvl in tower.levels]


def _power_tables(v: Automorphism) -> tuple[tuple[int, ...], ...]:
    """Index tables of v^0, v^1, ... up to the order of v: table[t][i] indexes v^t(element i)."""
    order = math.lcm(*map(len, v.orbits))
    return tuple(tuple(orb[t % len(orb)] for orb in v.orbits) for t in range(order))


class Recipe(NamedTuple):
    """The shape of a recipe level, derived from the level below it and the tag."""

    h: int
    z: int
    r: int
    block: tuple[int, ...]
    reps: int
    ramp_len: int


def recipe(tower: Tower, n: int, tag: Tag) -> Recipe:
    """The recipe for level n + 1 of ``tower`` at step n, read from h_n and the tag.

    r = n^3 (k+1) m, z = m n (2h(k+1) + k), h' = 2 r h + k r/(k+1); the block
    is n m cuts 2h apart on the label ramp, then n k m cuts 2h+1 apart with a
    constant label.  m is the period of the tag's element under v; the block
    lies in [0, z) and repeats n^2 times.  At k = 0 (the even level) this is
    r = n^3 m, z = 2 h n m, h' = 2 r h, with every cut on the ramp.
    """
    h, k = tower.h(n), tag.k
    m = least_period(tower.v, tag.el)
    r = recipe_cut_count(tower.v, n, tag)
    block = (tuple(2 * h * t for t in range(n * m))
             + tuple(2 * h * (n * m - 1) + (2 * h + 1) * j for j in range(1, n * k * m + 1)))
    # k * r // (k + 1) is exact: k + 1 divides r
    return Recipe(2 * r * h + k * r // (k + 1), m * n * (2 * h * (k + 1) + k), r, block, n * n, n * m)


def recipe_cut_count(v: Automorphism, n: int, tag: Tag) -> int:
    """The cut count r = n^3 (k+1) m of the recipe level built at step n; it needs no height."""
    return n**3 * (tag.k + 1) * least_period(v, tag.el)


# -- validation ------------------------------------------------------------


@dataclass
class CheckItem:
    name: str
    level: int
    ok: bool
    detail: str = ""


@dataclass
class Report:
    items: list[CheckItem] = field(default_factory=list)

    def add(self, name, level, ok, detail=""):
        self.items.append(CheckItem(name, level, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(it.ok for it in self.items)

    def failures(self) -> list[CheckItem]:
        return [it for it in self.items if not it.ok]

    def render(self) -> str:
        out = []
        for it in self.items:
            status = "ok" if it.ok else "FAIL"
            msg = f"  [{status}] level {it.level}: {it.name}"
            if it.detail:
                msg += f" ({it.detail})"
            out.append(msg)
        return "\n".join(out)


def validate_labels(level: Level, tower: Tower) -> Report:
    """Exact checks of the label conditions on one level.

    Verifies shift-equivariance of labels under the z-translation, the
    per-orbit-power increment frequency bands, and (for k >= 1) the
    carry-class frequency band.  All comparisons are exact rational
    inequalities over counts of ``Level.shift_classes``.  Across copies,
    equivariance is ``v_pow[q + 1] == v o v_pow[q]`` on the block labels.
    """
    rep = Report()
    if level.tag is None:
        rep.add("seed level, no label conditions", level.n, True)
        return rep
    G, v_pow, v1 = tower.group, tower.v_pow, tower.v.perm
    add, neg = addition_table(G), negation_table(G)
    n, r = level.step, level.r
    h_prev = tower.h(level.n - 1)

    classes = level.shift_classes(level.z)
    bad = level.class_cuts([(c, min(count, 3)) for c, count, g, g1 in classes if g1 != v1[g]])
    rep.add("shift-equivariance", level.n, not bad,
            f"violated at cuts {bad[:3]}" if bad else f"checked {sum(cls[1] for cls in classes)} cuts")

    el, k = level.tag.el, level.tag.k
    m = least_period(tower.v, el)
    center, width = Fraction(1, (k + 1) * m), Fraction(2, n * m)

    two_h = 2 * h_prev
    increments: dict[int, int] = {}   # label(c + 2h) - label(c) -> number of cuts
    for _, count, g0, g in level.shift_classes(two_h):
        d = add[g][neg[g0]]
        increments[d] = increments.get(d, 0) + count
    e = G.element_index(el)
    for i in range(m):
        size = increments.get(v_pow[i % len(v_pow)][e], 0)
        freq = Fraction(size, r)
        ok = abs(freq - center) < width
        rep.add(f"increment-class-band i={i}", level.n, ok,
                f"|{freq} - {center}| vs {width}, class size {size}")

    if k >= 1:   # only a level with 2h+1 gaps has a carry class
        size = sum(count for _, count, g0, g in level.shift_classes(two_h + 1) if g0 == g)
        freq = Fraction(size, r)
        ok = abs(freq - Fraction(k, k + 1)) < Fraction(2, n)
        rep.add("carry-class-band", level.n, ok, f"|{freq} - {Fraction(k, k+1)}| vs {Fraction(2, n)}")
    return rep


def validate_structure(tower: Tower) -> Report:
    """Exact checks of the structural conditions across all built levels."""
    rep = Report()
    for n in range(1, tower.depth + 1):
        lvl = tower.level(n)
        h_prev = tower.h(n - 1)
        rep.add("zero cut present", n, 0 in lvl)
        rep.add("more than one cut", n, lvl.r > 1)
        r_recipe = lvl.r if lvl.tag is None else recipe_cut_count(tower.v, n - 1, lvl.tag)
        rep.add("cut count matches recipe", n, lvl.r == r_recipe, f"{lvl.r} vs {r_recipe}")
        top, block = lvl.cut(-1), lvl.block
        rep.add("stack containment", n, top + h_prev <= lvl.h,
                f"max cut {top} + {h_prev} vs height {lvl.h}")
        gaps = [b - a for a, b in itertools.pairwise(block)]   # and, between copies, one boundary gap
        if lvl.reps > 1:
            gaps.append(lvl.stride + block[0] - block[-1])
        rep.add("cut disjointness", n, all(gap >= h_prev for gap in gaps))
    mus = [tower.mu_level(n) for n in range(tower.depth + 1)]
    for n in range(1, tower.depth + 1):
        rep.add("measure nondecreasing", n, mus[n] >= mus[n - 1], f"{mus[n]} vs {mus[n-1]}")
        if tower.level(n).tag is not None:
            rep.add("measure doubling", n, mus[n] >= 2 * mus[n - 1], f"{mus[n]} vs 2*{mus[n-1]}")
        if n > 2:
            rep.add("measure growth floor", n, mus[n] >= Fraction(2) ** (n - 2))
    return rep


def validate_tower(tower: Tower) -> Report:
    rep = validate_structure(tower)
    for lvl in tower.levels:
        sub = validate_labels(lvl, tower)
        rep.items.extend(sub.items)
    return rep


# -- cylinders, points, measure ---------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """The set of points whose level-n rung lies in a fixed subset."""

    level: int
    rungs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rungs", tuple(sorted(set(self.rungs))))
        if not self.rungs:
            raise ValueError("empty cylinders are not represented")

    @staticmethod
    def single(level: int, f: int) -> "Cylinder":
        return Cylinder(level, (f,))


def measure(tower: Tower, cyl: Cylinder) -> Fraction:
    """Exact measure: rung count over the cut product at the cylinder's level."""
    if cyl.level > tower.depth:
        raise ValueError("cylinder level beyond tower depth")
    if any(not 0 <= f < tower.h(cyl.level) for f in cyl.rungs):
        raise ValueError("cylinder rungs out of range")
    return Fraction(len(cyl.rungs), tower.cut_product(cyl.level))


def embed(tower: Tower, cyl: Cylinder, target_level: int) -> Cylinder:
    """Re-express a cylinder at a deeper level by summing over cut choices."""
    if target_level < cyl.level:
        raise ValueError("target level must not precede the cylinder level")
    rungs = list(cyl.rungs)
    for j in range(cyl.level + 1, target_level + 1):
        cj = tower.level(j).cuts
        if len(rungs) * len(cj) > _EMBED_GUARD:
            raise LimitExceeded(f"explicit embedding to level {target_level} would list "
                                f"{len(rungs) * len(cj):,} rungs at level {j} "
                                f"(guard {_EMBED_GUARD:,}); lower the depth")
        rungs = [f + c for f in rungs for c in cj]
    return Cylinder(target_level, tuple(rungs))


@dataclass(frozen=True)
class Point:
    """A truncated point: level rung plus explicit cut coordinates above it.

    ``walk`` is set only by ``canonical_point``: the ``cut_rows`` table its ``decompose`` read, and the label sum
    that walk returned.  It holds only while ``tower.cached`` still returns that table, so on another tower, or
    once the levels change, the point is checked as a hand-built one is.
    """

    level: int
    f: int
    tail: tuple[int, ...]
    walk: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def truncation(self) -> int:
        return self.level + len(self.tail)

    def walk_label(self, tower: Tower) -> int | None:
        """The label sum of the ``decompose`` walk that made the point, or None when none holds for ``tower``."""
        w = self.walk
        return w[1] if w is not None and w[0] is tower.cached("cut_rows", _cut_rows, tower) else None

    def rung(self, tower: Tower) -> int:
        if self.walk_label(tower) is None:   # a carried walk's coordinates came from decompose
            if not 0 <= self.f < tower.h(self.level):
                raise ValueError("rung out of range at the point's level")
            for offset, c in enumerate(self.tail):
                if c not in tower.level(self.level + 1 + offset):
                    raise ValueError(f"tail coordinate {c} is not a cut of level {self.level + 1 + offset}")
        return self.f + sum(self.tail)


def canonical_point(tower: Tower, rung: int, N: int) -> Point:
    """The point with the given depth-N rung, in minimal-level form, carrying its ``decompose`` walk."""
    n_min, f0, coords, label = tower.decompose(rung, N)
    # decompose fills coords from level N down, so reversed they run n_min + 1, ..., N
    return Point(n_min, f0, tuple(reversed(coords.values())), (tower.cached("cut_rows", _cut_rows, tower), label))


def apply_T(tower: Tower, p: Point, m: int) -> Point | None:
    """Shift by m rungs at the point's truncation depth; None when it leaves the stack."""
    N = p.truncation
    r = p.rung(tower)
    r2 = r + m
    if not 0 <= r2 < tower.h(N):
        return None
    return canonical_point(tower, r2, N)


def defect_fraction(tower: Tower, n: int) -> Fraction:
    """Fraction of level-n cuts lost under the level's shift: |cuts ^ (cuts - z)| / |cuts|."""
    lvl = tower.level(n)
    kept = sum(cls[1] for cls in lvl.shift_classes(lvl.z))   # |cuts & (cuts - z)|
    return Fraction(2 * (lvl.r - kept), lvl.r)


# -- serialization -----------------------------------------------------------


def _gap_runs(block, stride: int, reps: int) -> list[list[int]]:
    """The gaps between consecutive cuts of ``block + stride*{0..reps-1}`` in copy order, as maximal [gap, count]
    runs.

    Copies are joined by the boundary gap ``stride + block[0] - block[-1]``; O(reps * runs per block) steps.
    """
    block_runs = [(gap, len(list(same))) for gap, same in
                  itertools.groupby(b - a for a, b in itertools.pairwise(block))]
    runs = []
    for q in range(reps):
        for gap, count in [(stride + block[0] - block[-1], 1)] * (q > 0) + block_runs:
            if runs and runs[-1][0] == gap:
                runs[-1][1] += count
            else:
                runs.append([gap, count])
    return runs


def _compress_aps(start: int, runs):
    """Greedy start:step:count arithmetic blocks over a sequence given by its first value and ``_gap_runs``,
    one block at a time, each after the first with its leading ``,``: the pieces concatenate to the text.

    Each block takes the rest of the current gap run, and the gap after it is skipped to reach the next
    block's start; a last lone value is ``v:1:1``.  The text is the greedy per-value scan's.
    """
    sep = ""
    i, left = 0, runs[0][1] if runs else 0   # left: gaps of run i not yet used
    while True:
        if left == 0:
            if i + 1 >= len(runs):
                yield f"{sep}{start}:1:1"
                return
            i += 1
            left = runs[i][1]
        gap = runs[i][0]
        yield f"{sep}{start}:{gap}:{left + 1}"
        sep = ","
        start += gap * left
        if i + 1 == len(runs):
            return
        i += 1
        start += runs[i][0]
        left = runs[i][1] - 1


def _cut_blocks(lvl: Level):
    """A level's ``cuts =`` value block by block, compressed from its block."""
    return _compress_aps(lvl.block[0], _gap_runs(lvl.block, lvl.stride, lvl.reps))


def _label_copies(lvl: Level, texts):
    """A level's ``labels =`` value copy by copy: each copy's ``cut=coords`` entries, after a ``;`` from the
    second copy on, so the pieces concatenate to the value.

    ``texts`` maps a label index to its coordinate text.  The copy q uses the template of the
    residue q mod P (the period of v), whose block labels are ``v^q`` of the block's.
    """
    v_pow, block, stride = lvl._v_pow, lvl.block, lvl.stride
    P = len(v_pow)
    templates = [";" + ";".join([f"%d={texts[row[g]]}" for g in lvl.block_labels]) for row in v_pow[:lvl.reps]]
    copies = (templates[q % P] % tuple(map((stride * q).__add__, block)) for q in range(lvl.reps))
    yield next(copies)[1:]
    yield from copies


def _coords_str(el: Element) -> str:
    return ",".join(map(str, el.coords)) if el.coords else "-"


def _plain(text: str) -> bool:
    """Whether ``text`` is plain decimal digits, as the writer writes every number."""
    return text.isascii() and text.isdecimal()


def _coords_from_str(text: str) -> tuple[int, ...]:
    """The coordinates written ``a,b,...`` in plain decimal digits, or ``-`` for none."""
    if text != "-" and not _plain(text.replace(",", "")):
        raise ValueError(f"coordinates {text!r} are not plain decimal digits")
    return () if text == "-" else tuple(map(int, text.split(",")))


def serialize_tower(tower: Tower, out) -> None:
    """Write the tower as format-1 text to the text stream ``out``: the ``cuts =`` and ``labels =`` values
    one block or copy at a time, so no line of the text is ever held whole."""
    out.write("# cfspectra tower format 1\n")
    out.write(f"group = [{', '.join(map(str, tower.group.invariant_factors))}]\n")
    out.write("aut = [" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in tower.v.matrix) + "]\n")
    out.write(f"depth = {tower.depth}\n")
    texts = [_coords_str(el) for el in tower.elements]   # label index -> coordinate text
    for lvl in tower.levels:
        if lvl.tag is None:
            tag = "seed"
        elif lvl.tag.k == 0:
            tag = f"even {_coords_str(lvl.tag.el)}"
        else:
            tag = f"stagger {_coords_str(lvl.tag.el)} k={lvl.tag.k}"
        out.write(f"level {lvl.n}\ntag = {tag}\nh = {lvl.h}\nz = {lvl.z}\ncuts = ")
        out.writelines(_cut_blocks(lvl))
        out.write("\nlabels = ")
        out.writelines(_label_copies(lvl, texts))
        out.write("\n")


class TowerParseError(Exception):
    pass


def parse_tower(stream) -> Tower:
    """The tower written in format 1 on the text stream ``stream`` (an open file, or ``io.StringIO``), read
    one level at a time in the layout ``serialize_tower`` writes: ``group``, ``aut`` and ``depth``, then per
    level ``level n`` and ``tag``, ``h``, ``z``, ``cuts`` and ``labels``, in that order.

    Lines end at a newline only; blank lines, ``#`` lines and blanks around a line or its ``=`` are
    skipped.  Any other layout is a ``TowerParseError`` that names the level and what was expected.
    A tagged level's ``cuts`` and ``labels`` are compared, as they stream in, with the rendering of the
    level ``Tower.extend`` appends at that depth; any other text is read entry by entry.
    """
    try:
        return _parse_tower_inner(stream)
    except (TowerParseError, OSError, UnicodeDecodeError):   # a failed read is not a malformed file
        raise
    except Exception as exc:
        raise TowerParseError(f"malformed tower file: {exc}") from exc


_READ_CHUNK = 8192   # the fewest characters a readline call asks for
_READ_CAP = 1 << 16   # the most: larger pieces pass malloc's mmap threshold, which cost deep-build 5 MB of peak RSS


def _rest_of_line(stream, line: str) -> str:
    """``line``, the start of one of the stream's lines, with the rest of it, without its closing newline.

    A long line is read in pieces of a 32nd of what is already read, within ``_READ_CHUNK`` and
    ``_READ_CAP`` characters, and grown by ``+=``, which resizes a str that nothing else holds in place:
    iterating the stream would join each line from its pieces and hold the longest line twice.  Where the
    interpreter copies instead (under a tracer), the growing pieces keep the copying down.
    """
    if line[-1:] == "\n":
        return line[:-1]
    while piece := stream.readline(min(_READ_CAP, max(_READ_CHUNK, len(line) >> 5))):
        if piece[-1] == "\n":
            line += piece[:-1]
            break
        line += piece
    return line


def _next_head(stream) -> str:
    """The start of the stream's next line that is neither blank nor a ``#`` comment, from its first
    non-blank character, read on until it holds a non-blank character after its first ``=`` or its
    newline; "" at the end of the text."""
    head = ""
    while piece := stream.readline(_READ_CHUNK):
        head = (head + piece).lstrip()
        if head[:1] == "#":
            _rest_of_line(stream, head)
            head = ""
        elif head[-1:] == "\n" or head.partition("=")[2].strip():
            break
    return head


def _unexpected(where: str, want: str, head: str) -> TowerParseError:
    """The refusal of the line ``head`` starts, shown by its key (the whole line when it has no ``=``) cut to
    40 characters."""
    found = repr(head.partition("=")[0].strip()[:40]) if head else "the end of the file"
    return TowerParseError(f"{where}expected {want}, found {found}")


def _expect(stream, where: str, key: str) -> tuple[str, int]:
    """``(head, start)``: the next line's head as ``_next_head`` reads it, which must open with ``key =``,
    and where its value starts."""
    head = _next_head(stream)
    name, eq, value = head.partition("=")
    if not eq or name.rstrip() != key:
        raise _unexpected(where, repr(f"{key} ="), head)
    return head, len(head) - len(value.lstrip())


def _value(stream, where: str, key: str) -> str:
    """The stripped value of the next line, which must open with ``key =``."""
    head, start = _expect(stream, where, key)
    return _rest_of_line(stream, head)[start:].strip()


def _streamed(stream, text: str, start: int, render) -> str | None:
    """None when the stream's line, of which ``text`` has been read, goes on from ``text[start]`` with the
    pieces of ``render()`` and then only blanks; else the line's value, from ``text[start]`` and stripped.

    Each piece is compared as it is read: ``stream.readline`` asked for as many characters as the piece
    has returns exactly them when they are there, for a piece holds no line break and no blank.  Nothing
    matched is kept; a line that differs is rebuilt by rendering its matched prefix again.
    """
    pos, matched = start, 0
    for piece in render():
        got = text[pos:pos + len(piece)]
        pos += len(got)
        if len(got) < len(piece) and text[-1:] != "\n":   # the line goes on past text
            got += stream.readline(len(piece) - len(got))
        if got != piece:
            prefix = "".join(itertools.islice(render(), matched))
            return _rest_of_line(stream, text[:start] + prefix + got + text[pos:])[start:].strip()
        matched += 1
    rest = _rest_of_line(stream, text[pos:])
    return ("".join(render()) + rest).strip() if rest.strip() else None


def _read_entries(n: int, cuts_text: str, entries: str, group: FinAbGroup,
                  index_of: dict) -> tuple[tuple[int, ...], list[int]]:
    """Every cut of a level's ``cuts`` value, and the label index of each from its ``labels`` value,
    whatever the order of the entries."""
    aps = []
    for blk in cuts_text.split(","):
        start, step, count = (int(x) for x in blk.split(":"))
        if count < 1:
            raise TowerParseError(f"level {n}: malformed cut block {blk!r} (count below 1)")
        if not _plain(blk.replace(":", "")):
            raise TowerParseError(f"level {n}: malformed cut block {blk!r}")
        aps.append((start, step, count))
    if sum(ap[2] for ap in aps) != entries.count(";") + 1:   # refused before any cut is expanded
        raise TowerParseError(f"level {n}: labels do not cover the cuts exactly")
    cuts = tuple(start + step * i for start, step, count in aps for i in range(count))
    if any(b <= a for a, b in itertools.pairwise(cuts)):
        raise TowerParseError(f"level {n}: cuts are not strictly increasing")
    labels = [None] * len(cuts)   # label indices in cut order
    i = -1
    for entry in entries.split(";"):
        cpart, _, coordpart = entry.partition("=")
        g = index_of.get(coordpart)
        if g is None:
            g = index_of[coordpart] = group.element_index(group.element(_coords_from_str(coordpart)))
        if not _plain(cpart):
            raise TowerParseError(f"level {n}: malformed cut {cpart!r}")
        c = int(cpart)
        i += 1
        if i == len(cuts) or cuts[i] != c:   # not the next cut: look it up
            i = bisect.bisect_left(cuts, c)
        if i == len(cuts) or cuts[i] != c or labels[i] is not None:   # an extra or repeated cut
            raise TowerParseError(f"level {n}: labels do not cover the cuts exactly")
        labels[i] = g
    if None in labels:
        raise TowerParseError(f"level {n}: labels do not cover the cuts exactly")
    return cuts, labels


def _parse_tag(group: FinAbGroup, n: int, text: str) -> Tag | None:
    """Level n's tag from its ``tag =`` value: exactly ``seed`` (None), ``even <coords>`` or
    ``stagger <coords> k=<k>``."""
    words = text.split()
    size = {"seed": 1, "even": 2, "stagger": 3}.get(words[0] if words else "")   # words in the value
    if size is None:
        raise TowerParseError(f"unknown tag {text!r}")
    malformed = TowerParseError(f"level {n}: malformed tag {text!r}")
    if len(words) != size or size == 3 and words[2][:2] != "k=":
        raise malformed
    if size == 1:
        return None
    try:
        coords, k = _coords_from_str(words[1]), int(words[2][2:]) if size == 3 else 0
    except ValueError:
        raise malformed from None
    if size == 3 and k < 1:
        raise TowerParseError(f"level {n}: stagger mix ratio k={k} is below 1 (k = 0 is written even)")
    return Tag(group.element(coords), k)


def _parse_tower_inner(stream) -> Tower:
    group = FinAbGroup(tuple(_parse_int_list(_value(stream, "", "group"))))
    v = Automorphism(group, _parse_int_list(_value(stream, "", "aut")))
    depth = int(_value(stream, "", "depth"))
    tower = Tower.seeded(group, v)
    seeds, tower.levels = tower.levels, ()   # the file's levels 1-2 must equal these
    texts = [_coords_str(el) for el in tower.elements]   # label index -> coordinate text
    index_of = {s: i for i, s in enumerate(texts)}   # coordinate text -> label index
    where = ""
    while head := _next_head(stream):
        n = tower.depth + 1
        if head.split(maxsplit=1)[:1] != ["level"]:
            raise _unexpected(where, repr(f"level {n}") if n <= depth else "the end of the file", head)
        header = _rest_of_line(stream, head).strip()
        words = header.split()
        if len(words) != 2 or not words[1].isdecimal():
            raise TowerParseError(f"malformed level header {header!r}")
        m = int(words[1])
        if m > depth:   # refused before the level's values are read
            raise TowerParseError(f"level {m} beyond declared depth {depth}")
        if m != n:
            raise TowerParseError(f"level {m} out of order")
        where = f"level {n}: "
        tag_text = _value(stream, where, "tag")
        tag = _parse_tag(group, n, tag_text)
        if (tag is None) != (n <= 2):   # every tower grows by recipe from Tower.seeded
            raise TowerParseError(f"level {n}: levels 1-2 must be tagged seed and later levels even or stagger")
        h, z = int(_value(stream, where, "h")), int(_value(stream, where, "z"))
        if tag is None:
            cuts, labels = _read_entries(n, _value(stream, where, "cuts"), _value(stream, where, "labels"),
                                         group, index_of)
            lvl = seeds[n - 1]
            if (h, z, cuts, labels) != (lvl.h, lvl.z, lvl.cuts, lvl.cut_labels()):
                raise TowerParseError(f"level {n}: seed level differs from Tower.seeded "
                                      f"(h = {lvl.h}, z = {lvl.z}, cuts = {lvl.cuts}, zero labels)")
        else:
            lvl = tower._recipe_level(tag)
            if (h, z) != (lvl.h, lvl.z):
                raise TowerParseError(f"level {n}: h = {h}, z = {z} disagree with the {tag_text} recipe "
                                      f"(h = {lvl.h}, z = {lvl.z})")
            # each value is checked against the level Tower.extend builds as it streams in
            cuts = _streamed(stream, *_expect(stream, where, "cuts"), functools.partial(_cut_blocks, lvl))
            labels = _streamed(stream, *_expect(stream, where, "labels"), functools.partial(_label_copies, lvl, texts))
            if cuts is not None or labels is not None:
                # any other valid file: the recipe's block if the file repeats its first copy by v^q, else one copy
                cuts, labels = _read_entries(n, "".join(_cut_blocks(lvl)) if cuts is None else cuts,
                                             "".join(_label_copies(lvl, texts)) if labels is None else labels,
                                             group, index_of)
                lvl = Level(n, h, z, lvl.block, lvl.reps, labels[:len(lvl.block)], tag, tower.elements, tower.v_pow)
                if lvl.cuts != cuts or lvl.cut_labels() != labels:
                    lvl = Level(n, h, z, cuts, 1, labels, tag, tower.elements, tower.v_pow)
        tower.levels = (*tower.levels, lvl)
    if tower.depth != depth:
        raise TowerParseError(f"declared depth {depth} but parsed {tower.depth} levels")
    return tower
