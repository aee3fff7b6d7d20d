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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from . import pairings
from .cocycle import rung_label
from .groups import Element, LimitExceeded, addition_table, least_period, negation_table
from .tower import Cylinder, Tag, Tower


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
    if lvl.tag is None or lvl.tag.k != 1:
        raise ValueError(f"step {n} does not carry a ratio-1 stagger level")
    h = tower.h(n)
    even, density_even = _returning(tower, n + 1, 2 * h)
    odd, density_odd = _returning(tower, n + 1, 2 * h + 1)
    return ReturnCuts(n + 1, even, odd, density_even, density_odd)


def _returning(tower: Tower, lvl: int, step: int) -> tuple[list, Fraction]:
    """The cuts c of level lvl with c + step a cut, as ``Level.shift_classes``, and their share of the level."""
    return tower.cached(("returning", lvl, step), _returning_classes, tower, lvl, step)


def _returning_classes(tower: Tower, lvl: int, step: int) -> tuple[list, Fraction]:
    level = tower.level(lvl)
    classes = level.shift_classes(step)
    return classes, Fraction(sum(cls[1] for cls in classes), level.r)


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
    chosen, evens, by_drop = tower.cached(("layers", base_level, s), _layers, tower, base_level, s)
    top = max(chosen) if chosen else base_level
    plan = tuple({lvl: even + (j < drop) for j, (lvl, even) in enumerate(zip(chosen, evens))}
                 for drop in drops)
    ratios = tuple(by_drop[drop] for drop in drops)
    shift = sum(evens)
    if flipped:
        return TransportWitness(p, base_level, top, target, start, -shift, plan, ratios, flipped=True)
    return TransportWitness(p, base_level, top, start, target, shift, plan, ratios)


def _layers(tower: Tower, base_level: int, s: int) -> tuple[list[int], list[int], list[Fraction]]:
    """The first s ratio-1 stagger levels above the base, their even steps 2h, and the ratios by drop.

    A coordinate dropping by ``drop`` (0..s) takes the 2h + 1 step below
    level index ``drop`` and the 2h step from it on, so its measure ratio is
    a prefix product of odd-step shares times a suffix product of even-step
    shares.
    """
    levels = [n + 1 for n in tower.stagger_steps(k=1) if n >= base_level]
    if len(levels) < s:
        raise NoWitness(
            f"need {s} ratio-1 stagger levels above {base_level}, found {len(levels)}",
            required_depth=s,
        )
    chosen = levels[:s]
    evens = [2 * tower.h(lvl - 1) for lvl in chosen]
    odd = [Fraction(1)]
    for lvl, even in zip(chosen, evens):
        odd.append(odd[-1] * _returning(tower, lvl, even + 1)[1])
    even_from = [Fraction(1)]
    for lvl, even in zip(reversed(chosen), reversed(evens)):
        even_from.append(even_from[-1] * _returning(tower, lvl, even)[1])
    return chosen, evens, [o * e for o, e in zip(odd, reversed(even_from))]


def _slip_witness(tower, base_level, start, target):
    (f, d), (f2, d2) = start, target
    delta = (d2 - d) - (f2 - f)
    for lvl in tower.levels:
        if lvl.tag is None or lvl.tag.k == 0 or lvl.n <= base_level:
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

    for i in range(w.p):
        expected_gain = 0
        for lvl in range(w.base_level + 1, w.top_level + 1):
            step = w.plan[i].get(lvl, 0)
            if step and not tower.cached(("plan_inclusion", lvl, step), _inclusion_ok, tower, lvl, step):
                return False
            expected_gain += step
        # the shift splits into cut gains plus the rung-offset move
        if expected_gain + (dst[i] - src[i]) != shift:
            return False
    return True


def _inclusion_ok(tower: Tower, lvl: int, step: int) -> bool:
    """Whether the cuts c of level lvl with c + step a cut form a nonempty set that step maps into the cuts."""
    # a class c + class_stride*s, s < count, lands in the cuts when its two ends do:
    # both ends then sit over one block cut, and so does every copy between
    level = tower.level(lvl)
    choice = _returning(tower, lvl, step)[0]
    return bool(choice) and all(c + step in level and c + step + level.class_stride * (count - 1) in level
                                for c, count, *_ in choice)


# The most transport witnesses, h_b^(2p) at base level b, one ergodicity sweep may build.  The largest any
# caller makes, p = 2 at base level 2 (12^4 = 20,736), takes 0.38-0.55 s, 18-27 microseconds a witness (best of
# three, CPython 3.11 on a 2-CPU x86-64 host), so this is 2-3 s; p = 2 at base level 3 (384^4) is refused.
_SWEEP_GUARD = 100_000


def ergodicity_sweep(tower: Tower, p: int, base_level: int) -> list[tuple[TransportWitness, Fraction, Fraction]]:
    """The ergodicity certificate for the p-th Cartesian power, one entry per witness.

    Every ordered pair (start, target) of base-level rung p-tuples, in
    ``itertools.product`` order, gets one transport witness, verified once; a
    failed check raises ``AssertionError``.  An entry is ``(witness, ratio,
    bound)``: the product of the witness's measure ratios and the summable
    weight ``geometric_weight(p)`` of the rung differences.  The criterion
    needs ratio > bound for every entry: a transported block of product
    measure above the weight times the product cylinder's measure.
    Refused with LimitExceeded, before any witness is built, past ``_SWEEP_GUARD`` witnesses.
    """
    total = geometric_weight_total(p)
    if total >= Fraction(1, 2):
        raise ValueError(f"the weight total {total} at p = {p} is not below 1/2")
    if p not in (1, 2):
        raise ValueError("desk-scale sweep supports p in {1, 2}")
    count = tower.h(base_level) ** (2 * p)
    if count > _SWEEP_GUARD:
        raise LimitExceeded(f"ergodicity sweep at p = {p} over base level {base_level} would build "
                            f"{count:,} transport witnesses (guard {_SWEEP_GUARD:,}); lower the base level")
    delta = geometric_weight(p)
    bounds = {}   # the weight depends only on the sum of the |differences|
    rung_tuples = itertools.product(range(tower.h(base_level)), repeat=p)
    out = []
    for start, target in itertools.product(rung_tuples, repeat=2):
        w = transport_witness(tower, base_level, start, target)
        if not verify_witness(tower, w):
            raise AssertionError(f"witness failed structural verification: {start}->{target}")
        diffs = tuple(f - g for f, g in zip(start, target))
        size = sum(map(abs, diffs))
        if size not in bounds:
            bounds[size] = delta(diffs)
        out.append((w, reduce(mul, w.measure_ratios), bounds[size]))
    return out


# -- the summable weight ------------------------------------------------------------


def geometric_weight(p: int):
    """delta(g) = (1/8) * 4^(-sum |g_i|).

    Its total over all of Z^p is (5/3)^p / 8, which is below 1/2 only for p <= 2.
    """

    def delta(diffs):
        return Fraction(1, 8) * Fraction(1, 4) ** sum(abs(d) for d in diffs)

    return delta


def geometric_weight_total(p: int) -> Fraction:
    return Fraction(1, 8) * Fraction(5, 3) ** p


# -- label-value witnesses -----------------------------------------------------------


@dataclass
class LabelWitnessReport:
    step: int
    shift: int
    ratio: Fraction
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
                if l.tag == Tag(a, 0) and l.n > base_level + 1), None)
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
    top_picks = sorted({_nth(cls, lvl.class_stride, i) for i in (0, size // 2, size - 1)})
    mid_levels = [tower.level(j) for j in range(base_level + 1, k + 1)]
    limit = max(1, samples // (len(top_picks) * p))
    sampled = [f + sum(mid) + c_top for mid in _spread_product(mid_levels, limit) for c_top in top_picks for f in rungs]
    # a list, not a generator: every sampled rung is checked, past a miss too
    ok = all([add[rung_label(tower, g, N)][neg[rung_label(tower, g - 2 * h, N)]] == e for g in sampled])
    return LabelWitnessReport(k, -2 * h, ratio, ratio > bound, len(sampled), ok)


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
    _check_query(tower, A, N)
    if k_max * p >= tower.h(N):
        raise ValueError("search range exceeds the depth height")
    for k in range(1, k_max + 1):
        hits = _return_count(tower, A, p, k, N)
        if hits:
            return k, Fraction(hits, tower.cut_product(N))
    return None


def recurrence_holds_at(tower: Tower, A: Cylinder, p: int, k: int, N: int) -> bool:
    """Does the k-step (p+1)-fold intersection have positive mass at depth N?"""
    _check_query(tower, A, N)
    return _return_count(tower, A, p, k, N) > 0


def _check_query(tower: Tower, A: Cylinder, N: int) -> None:
    if not 0 <= N <= tower.depth:
        raise ValueError(f"depth {N} is outside 0..{tower.depth}")
    if A.level > N:
        raise ValueError(f"cylinder level {A.level} lies above depth {N}")
    if not 0 <= A.rungs[0] <= A.rungs[-1] < tower.h(A.level):
        raise ValueError(f"cylinder rungs outside 0..{tower.h(A.level) - 1}")


def _return_count(tower: Tower, A: Cylinder, p: int, k: int, N: int) -> int:
    """#{f in E_A(N) : f + k, ..., f + p*k in E_A(N)}, counted top down over the levels.

    A depth-j rung is a level-(j-1) rung plus a level-j cut, so f = y + c and
    f + d_i = y_i + c_i leave the residual shift y_i - y = d_i - (c_i - c),
    below h_{j-1} in modulus.  A state is the tuple of residual shifts with the
    number of cut tuples reaching it: the label-free p-shift form of
    ``PairingEngine.propagate``.  The cut b + stride*q of a level has the partners
    b' + stride*(q + t), so one block cut with one partner choice (b'_i, t_i) per
    coordinate stands for every copy q with q and each q + t_i in 0..reps-1.
    The states left at the cylinder's level are counted against its rungs.
    """
    states = {tuple(k * i for i in range(1, p + 1)): 1}
    for j in range(N, A.level, -1):
        lvl, h = tower.level(j), tower.h(j - 1)
        block, stride, reps = lvl.block, lvl.stride, lvl.reps
        new: dict[tuple[int, ...], int] = {}
        for ds, mult in states.items():
            for b in block:
                partners = []   # per coordinate: (t, c_i - c) for b' + stride*t within h of b + d
                for d in ds:
                    lo, hi = b + d - h + 1, b + d + h - 1
                    ts = range(max(lo // stride, 1 - reps), min(hi // stride, reps - 1) + 1)
                    partners.append([(t, e + stride * t - b) for t in ts
                                     for e in block[bisect_left(block, lo - stride * t):
                                                    bisect_right(block, hi - stride * t)]])
                for choice in itertools.product(*partners):
                    ts = [0] + [t for t, _ in choice]
                    copies = reps - max(ts) + min(ts)
                    if copies > 0:
                        key = tuple(d - delta for d, (_, delta) in zip(ds, choice))
                        new[key] = new.get(key, 0) + mult * copies
        states = new
        if len(states) > pairings._STATE_GUARD:
            raise LimitExceeded(f"recurrence count exceeded {pairings._STATE_GUARD} states "
                                f"at level {j}; lower the depth or the step")
    rungs = set(A.rungs)
    return sum(mult * sum(all(f + d in rungs for d in ds) for f in A.rungs)
               for ds, mult in states.items())
