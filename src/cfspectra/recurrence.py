"""Return-structure combinatorics: transport witnesses and recurrence searches.

The stagger levels place cuts at both gap 2h and gap 2h+1, so a block of
rungs can be transported down the stack by shifts of 2h while its rung
offset either stays (cuts returning after 2h) or drops by one (cuts
returning after 2h+1).  Chaining such levels moves any rung to any lower
rung with an explicitly certified measure fraction; that is the input the
product-ergodicity criterion consumes.  Everything here is verified by
per-level set inclusions and exact rational density counts, both taken
over ``Level.shift_classes`` rather than cut by cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cocycle import rung_label
from .groups import Element, addition_table, least_period, negation_table
from .tower import Cylinder, EvenTag, StaggerTag, Tower, embed


# -- return cuts ---------------------------------------------------------------


@dataclass
class ReturnCuts:
    """Cuts of one stagger level that survive the two forward shifts, as shift classes."""

    level: int
    even: list   # Level.shift_classes of the cuts c with c + 2h a cut
    odd: list    # ... with c + 2h + 1 a cut
    density_even: Fraction
    density_odd: Fraction

    @property
    def certified(self) -> bool:
        third = Fraction(1, 3)
        return self.density_even >= third and self.density_odd >= third


def return_cuts(tower: Tower, n: int) -> ReturnCuts:
    """The two return-cut families of the level built at step n (stagger, ratio 1)."""
    lvl = tower.level(n + 1)
    if not isinstance(lvl.tag, StaggerTag) or lvl.tag.k != 1:
        raise ValueError(f"step {n} does not carry a ratio-1 stagger level")
    h = tower.h(n)
    even, density_even = _returning(tower, n + 1, 2 * h)
    odd, density_odd = _returning(tower, n + 1, 2 * h + 1)
    return ReturnCuts(n + 1, even, odd, density_even, density_odd)


def _returning(tower: Tower, lvl: int, step: int) -> tuple[list, Fraction]:
    """The cuts c of level lvl with c + step a cut, as ``Level.shift_classes``, and their share of the level."""
    key = ("returning", lvl, step)
    cached = tower._cache.get(key)
    if cached is None:
        level = tower.level(lvl)
        classes = level.shift_classes(step)
        cached = tower._cache[key] = (classes, Fraction(sum(cls[1] for cls in classes), level.r))
    return cached


# -- transport witnesses ----------------------------------------------------------


@dataclass
class TransportWitness:
    """A product block transported between rung tuples by one integer shift.

    Per coordinate i the block is f_i plus a choice set at every level in
    (base, top]: ``plan[i][level] = s`` chooses the cuts c with c + s a cut,
    and a level missing from the plan keeps all its cuts.  A layered witness
    steps by s = 2h (rung offset kept) or s = 2h + 1 (offset drops), h the
    height of the level below; a slip witness steps by multiples of them.
    A negative shift transports the block built for the reversed tuple.
    """

    p: int
    base_level: int
    top_level: int
    start: tuple[int, ...]
    target: tuple[int, ...]
    shift: int
    plan: tuple[dict, ...]
    measure_ratios: tuple[Fraction, ...]
    flipped: bool = False
    slip: int = 0
    slip_level: int | None = None


class NoWitness(Exception):
    """The tower is not deep enough to transport the requested tuple."""

    def __init__(self, message, required_depth=None):
        super().__init__(message)
        self.required_depth = required_depth


def _stagger_one_levels(tower: Tower, above: int) -> list[int]:
    return [lvl.n for lvl in tower.levels
            if isinstance(lvl.tag, StaggerTag) and lvl.tag.k == 1 and lvl.n > above]


def transport_witness(tower: Tower, base_level: int, start, target) -> TransportWitness:
    """A witness moving the product cylinder over ``start`` onto ``target``.

    Same-orientation tuples follow the layered construction through ratio-1
    stagger levels; strictly mixed orientations for p = 2 slide the two
    coordinates along the two cut spacings of a single stagger level.
    """
    start = tuple(start)
    target = tuple(target)
    p = len(start)
    drops = tuple(f - g for f, g in zip(start, target))
    h_base = tower.h(base_level)
    if any(not 0 <= f < h_base for f in start + target):
        raise ValueError("rungs outside the base level")
    if all(d >= 0 for d in drops):
        return _layered_witness(tower, base_level, start, target, flipped=False)
    if all(d <= 0 for d in drops):
        w = _layered_witness(tower, base_level, target, start, flipped=True)
        return w
    if p != 2:
        raise NoWitness("mixed-orientation tuples handled for p = 2 only")
    return _slip_witness(tower, base_level, start, target)


def _layered_witness(tower, base_level, start, target, flipped):
    p = len(start)
    drops = tuple(f - g for f, g in zip(start, target))
    s = max(drops)
    levels = _stagger_one_levels(tower, base_level)
    if len(levels) < s:
        raise NoWitness(
            f"need {s} ratio-1 stagger levels above {base_level}, found {len(levels)}",
            required_depth=s,
        )
    chosen = levels[:s]
    top = max(chosen) if chosen else base_level
    evens = [2 * tower.h(lvl - 1) for lvl in chosen]
    plan = []
    ratios = []
    for i in range(p):
        entry: dict = {}
        ratio = Fraction(1)
        for j, (lvl, even) in enumerate(zip(chosen, evens)):
            entry[lvl] = even + (j < drops[i])
            ratio *= _returning(tower, lvl, entry[lvl])[1]
        plan.append(entry)
        ratios.append(ratio)
    shift = sum(evens)
    if flipped:
        return TransportWitness(p, base_level, top, target, start, -shift,
                                tuple(plan), tuple(ratios), flipped=True)
    return TransportWitness(p, base_level, top, start, target, shift,
                            tuple(plan), tuple(ratios))


def _slip_witness(tower, base_level, start, target):
    (f, d), (f2, d2) = start, target
    delta = (d2 - d) - (f2 - f)
    for lvl in tower.levels:
        if not isinstance(lvl.tag, StaggerTag) or lvl.n <= base_level:
            continue
        h = tower.h(lvl.n - 1)
        step_a = (2 * h + 1) * delta
        step_b = 2 * h * delta
        ratios = (_returning(tower, lvl.n, step_a)[1], _returning(tower, lvl.n, step_b)[1])
        if all(ratios):
            shift = (f2 - f) + step_a
            assert shift == (d2 - d) + step_b
            return TransportWitness(2, base_level, lvl.n, start, target, shift,
                                    ({lvl.n: step_a}, {lvl.n: step_b}), ratios, slip=delta, slip_level=lvl.n)
    raise NoWitness(f"no stagger level can absorb a slip of {delta}")


def verify_witness(tower: Tower, w: TransportWitness) -> bool:
    """Structural verification: per-level inclusions plus the shift bookkeeping.

    Each selected choice set must land back in the cuts under its designated
    step, the per-coordinate rung drops must sum against the shift, and every
    choice set must be nonempty.  Together these force the containment of the
    shifted block, level by level.
    """
    src = w.target if w.flipped else w.start
    dst = w.start if w.flipped else w.target
    shift = -w.shift if w.flipped else w.shift

    def inclusion_ok(lvl: int, step: int) -> bool:
        # a class c + z*P*s, s < count, lands in the cuts when its two ends do:
        # both ends then sit over one block cut, and so does every copy between
        key = ("plan_inclusion", lvl, step)
        verdict = tower._cache.get(key)
        if verdict is None:
            level = tower.level(lvl)
            stride = level.z * len(tower.v_pow)
            choice = _returning(tower, lvl, step)[0]
            verdict = bool(choice) and all(c + step in level and c + step + stride * (count - 1) in level
                                           for c, count, *_ in choice)
            tower._cache[key] = verdict
        return verdict

    for i in range(w.p):
        expected_gain = 0
        for lvl in range(w.base_level + 1, w.top_level + 1):
            step = w.plan[i].get(lvl, 0)
            if step and not inclusion_ok(lvl, step):
                return False
            expected_gain += step
        # the shift splits into cut gains plus the rung-offset move
        if expected_gain + (dst[i] - src[i]) != shift:
            return False
    return True


def ergodicity_sweep(tower: Tower, p: int, base_level: int, tuples) -> list[TransportWitness]:
    """Transport witnesses for every requested (start, target) rung tuple."""
    if p not in (1, 2):
        raise ValueError("desk-scale sweep supports p in {1, 2}")
    out = []
    for start, target in tuples:
        w = transport_witness(tower, base_level, start, target)
        if not verify_witness(tower, w):
            raise AssertionError(f"witness failed structural verification: {start}->{target}")
        out.append(w)
    return out


def all_rung_pairs(tower: Tower, base_level: int, p: int):
    """Every ordered (start, target) tuple of base-level rungs, p coordinates."""
    rungs = range(tower.h(base_level))
    singles = [((f,), (g,)) for f in rungs for g in rungs]
    if p == 1:
        return singles
    return [((f, d), (f2, d2)) for f in rungs for f2 in rungs for d in rungs for d2 in rungs]


# -- the summable-weight audit ------------------------------------------------------


def geometric_weight(p: int):
    """delta(g) = (1/8) * 4^(-sum |g_i|).

    Its total over all of Z^p is (5/3)^p / 8, which is below 1/2 only for p <= 2.
    """

    def delta(diffs):
        return Fraction(1, 8) * Fraction(1, 4) ** sum(abs(d) for d in diffs)

    return delta


def geometric_weight_total(p: int) -> Fraction:
    return Fraction(1, 8) * Fraction(5, 3) ** p


def transport_density_audit(tower: Tower, p: int, base_level: int, tuples,
                            delta=None) -> list[tuple]:
    """Check each witness carries more mass than the summable weight demands.

    The criterion needs, for every rung tuple, a transported block of product
    measure exceeding delta(differences) times the product cylinder measure;
    the audit certifies the exact inequality witness by witness.
    """
    if delta is None:
        if geometric_weight_total(p) >= Fraction(1, 2):
            raise ValueError("weight function must sum below 1/2")
        delta = geometric_weight(p)
    results = []
    for start, target in tuples:
        w = transport_witness(tower, base_level, start, target)
        if not verify_witness(tower, w):
            raise AssertionError("witness failed verification")
        ratio = Fraction(1)
        for r in w.measure_ratios:
            ratio *= r
        bound = delta(tuple(f - g for f, g in zip(start, target)))
        results.append((start, target, ratio, bound, ratio > bound))
    return results


# -- label-value witnesses -----------------------------------------------------------


@dataclass
class LabelWitnessReport:
    step: int
    shift: int
    ratio: Fraction
    ratio_bound: Fraction
    ratio_ok: bool
    samples_checked: int
    label_ok: bool


def label_transport_witness(tower: Tower, p: int, base_level: int, rungs,
                            a: Element, samples: int = 64) -> LabelWitnessReport:
    """Blocks whose backward 2h-shift carries the cocycle value exactly ``a``.

    Uses the first even-tag level for ``a`` above the base: the increment
    class at power zero returns into the cuts under the backward shift, has
    density above 1/(2 * period), and every sampled block rung realizes the
    label increment a along the shift.
    """
    rungs = tuple(rungs)
    if len(rungs) != p:
        raise ValueError("one start rung per coordinate")
    lvl = next((l for l in tower.levels
                if isinstance(l.tag, EvenTag) and l.tag.a == a and l.n > base_level + 1), None)
    if lvl is None:
        raise NoWitness(f"no even level for {a} above level {base_level + 1}")
    k = lvl.n - 1  # the step whose height drives the shift
    h = tower.h(k)
    G = tower.group
    add, neg = addition_table(G), negation_table(G)
    e = G.element_index(a)
    # the class: cuts c + 2h over the pairs (c, c + 2h) whose label increment is a
    classes = _returning(tower, lvl.n, 2 * h)[0]
    cls = [(c + 2 * h, count) for c, count, g0, g in classes if add[g][neg[g0]] == e]
    size = sum(count for _, count in cls)
    m = least_period(tower.v, a)
    ratio = Fraction(size, lvl.r)
    bound = Fraction(1, 2 * m)
    N = lvl.n
    checked = 0
    ok = True
    stride = lvl.z * len(tower.v_pow)
    top_picks = sorted({_nth(cls, stride, i) for i in (0, size // 2, size - 1)})
    mid_levels = [tower.level(j) for j in range(base_level + 1, k + 1)]
    for mid in _spread_product(mid_levels, limit=max(1, samples // (len(top_picks) * p))):
        for c_top in top_picks:
            for f in rungs:
                g = f + sum(mid) + c_top
                val = rung_label(tower, g, N) - rung_label(tower, g - 2 * h, N)
                checked += 1
                if val != a:
                    ok = False
    return LabelWitnessReport(k, -2 * h, ratio, bound, ratio > bound, checked, ok)


def _nth(classes, stride: int, k: int) -> int:
    """The k-th smallest cut (from 0) of classes (c, count): the cuts c + stride*s, s < count."""
    lo, hi = 0, max(c + stride * (count - 1) for c, count in classes)
    while lo < hi:   # the least x with more than k class cuts <= x
        x = (lo + hi) // 2
        if sum(min(count, (x - c) // stride + 1) for c, count in classes if c <= x) > k:
            hi = x
        else:
            lo = x + 1
    return lo


def _spread_product(levels, limit: int = 16):
    """A deterministic spread of cut combinations: ends and middles first."""
    picks = [sorted({lvl.cut(0), lvl.cut(lvl.r // 2), lvl.cut(-1)}) for lvl in levels]
    return itertools.islice(itertools.product(*picks), limit)


# -- multiple recurrence -----------------------------------------------------------


def multiple_recurrence_search(tower: Tower, A: Cylinder, p: int, k_max: int,
                               N: int) -> tuple[int, Fraction] | None:
    """Least k <= k_max with positive (p+1)-fold intersection mass at depth N.

    A miss is a truncation statement, not a disproof; a hit is exact and
    monotone with depth.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, not {k_max}")
    _check_depth(tower, N)
    if k_max * p >= tower.h(N):
        raise ValueError("search range exceeds the depth height")
    rungs = set(embed(tower, A, N).rungs)
    for k in range(1, k_max + 1):
        hits = sum(1 for _ in _k_step_hits(rungs, p, k))
        if hits:
            return k, Fraction(hits, tower.cut_product(N))
    return None


def recurrence_holds_at(tower: Tower, A: Cylinder, p: int, k: int, N: int) -> bool:
    """Does the k-step (p+1)-fold intersection have positive mass at depth N?"""
    _check_depth(tower, N)
    return next(_k_step_hits(set(embed(tower, A, N).rungs), p, k), None) is not None


def _check_depth(tower: Tower, N: int) -> None:
    if not 0 <= N <= tower.depth:
        raise ValueError(f"depth {N} is outside 0..{tower.depth}")


def _k_step_hits(rungs: set[int], p: int, k: int):
    """The rungs f whose steps f + k, ..., f + p*k all stay in the set."""
    return (f for f in rungs if all(f + j * k in rungs for j in range(1, p + 1)))
