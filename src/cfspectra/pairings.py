"""Exact inner products of shifted cylinder indicators with certified error bounds.

The central object is the weighted pairing

    P(chi, m, A, B, N) = sum over rungs f at depth N with f in E_B and
    f + m in E_A of chi(rung_label(f+m) - rung_label(f)) * mu(rung),

where E_A, E_B are the depth-N rung sets of two cylinders.  Every character
is a ring homomorphism Z[K] -> Z[zeta_L] on the group ring of the label
group K, so the sum is formed once in Z[K]: the pairing vector

    W(m, A, B, N) = sum over the same rungs of [rung_label(f+m) - rung_label(f)]

counts the label increments, and P(chi, ...) = chi(W) * mu(rung) is its
character transform, the same fiber character transform that
block-diagonalizes the skew product.  So one ``PairingEngine`` serves a
tower: it builds and keeps W, and a character enters only in that last
transform.

The rung sets are astronomically large at moderate depth, so W is never
formed rung by rung.  Instead the levelwise product structure of the rung
sets gives an exact recursion: writing Q_j(d) in Z[K] for the pairing
vector of the depth-j rung sets at shift d,

    Q_j(d) = sum over cut pairs (c, c') of level j with |d - (c'-c)| < h_{j-1}
             of [label(c') - label(c)] * Q_{j-1}(d - (c'-c)).

Cut differences of one level cluster far apart, so each shift meets only a
handful of (c'-c) values and the recursion stays tiny.  The coefficients of
the needed base shifts are propagated top-down over Z[K] once per
(m, N, base level) and shared by every character; the base sets then enter
only through a cheap explicit sum.  Group elements are indices 0..|K|-1 and
all counts are integers, so each character's value is an exact cyclotomic
number.

The certified error bound is the exact measure of the rungs of E_B that the
shift pushes out of [0, h_N): their true contribution is determined only by
deeper levels, and is at most their mass in modulus.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .cocycle import rung_label
from .cyclotomic import Cyclo
from .groups import Character, LimitExceeded, addition_table, exponent_table, negation_table
from .tower import Cylinder, Tower, embed

_STATE_GUARD = 4000

# a Z[K] vector: element index -> integer count (absent indices count zero)
_Ring = dict[int, int]


@dataclass
class LevelPairing:
    """An exact pairing value together with a certified truncation error bound."""

    value: Cyclo
    error_bound: Fraction
    depth: int
    shift: int


def _cut_tables(tower: Tower, base_level: int) -> tuple[list[int], list[int]]:
    """Running sums of top cuts and products of cut counts over the levels above base_level."""
    tops, prods = [0], [1]
    for j in range(base_level + 1, tower.depth + 1):
        lvl = tower.level(j)
        tops.append(tops[-1] + lvl.cut(-1))
        prods.append(prods[-1] * lvl.r)
    return tops, prods


def _mul_into(acc: _Ring, x: _Ring, y: _Ring, add: tuple[tuple[int, ...], ...]) -> None:
    """acc += x * y in Z[K], with add the element addition table."""
    for a, c1 in x.items():
        row = add[a]
        for b, c2 in y.items():
            g = row[b]
            acc[g] = acc.get(g, 0) + c1 * c2


class PairingEngine:
    """Evaluates weighted pairings over one tower, for every character of its label group.

    Everything before the final transform is the same for every character:
    the Z[K] kernels, walks, pairing vectors and error masses are memoized
    here, and a character enters only in ``pairing``'s last step.  The memos
    hold until a level of the tower is replaced; ``koopman`` keeps one engine
    per tower through ``Tower.cached``, which drops it when the levels change.
    """

    def __init__(self, tower: Tower):
        self.tower = tower
        self.add = addition_table(tower.group)
        self.neg = negation_table(tower.group)
        self.states: dict[tuple[int, int, int], dict[int, _Ring]] = {}
        self.vectors: dict[tuple[int, Cylinder, Cylinder, int], _Ring] = {}
        self.errors: dict[tuple[int, int, Cylinder], Fraction] = {}

    def add_orbit_range(self, slot: _Ring, g: int, count: int, start: int, mult: int) -> None:
        """Add mult * v^j(g) for j = start .. start+count-1 to slot."""
        orb = self.tower.v.orbits[g]   # the forward v-orbit of g, one full period
        p = len(orb)
        full, rem = divmod(count, p)
        if full:
            for x in orb:
                slot[x] = slot.get(x, 0) + full * mult
        for j in range(start, start + rem):
            x = orb[j % p]
            slot[x] = slot.get(x, 0) + mult

    # -- kernels -----------------------------------------------------------

    def level_kernel(self, n: int, lo: int, hi: int) -> dict[int, _Ring]:
        """All cut-difference transitions of level n with difference in [lo, hi].

        Returns {delta: Z[K] histogram} in increasing delta order, the
        histogram counting label(c + delta) - label(c) over all cut pairs at
        difference delta.
        """
        lvl = self.tower.level(n)
        add, neg, v_pow = self.add, self.neg, self.tower.v_pow
        lab = lvl.block_labels
        # cuts = block + stride*{0..reps-1}; the pairs (d1 + stride*j, d2 + stride*(j+t))
        # have increment v^j(v^t(label d2) - label d1), so one block pair at copy
        # offset t stands for the reps - |t| increments along a v-orbit.  A single
        # copy (reps == 1) has t = 0 only, when the window can meet its one block.
        block, stride, reps = lvl.block, lvl.stride, lvl.reps
        span = block[-1] - block[0]
        offsets = range(max((lo - span) // stride, 1 - reps), min((hi + span) // stride, reps - 1) + 1)
        left, right = bisect.bisect_left, bisect.bisect_right
        size = len(block)
        out: dict[int, _Ring] = {}
        for t in offsets:
            rows = [add[x] for x in v_pow[t % len(v_pow)]]   # rows[i][j]: v^t(i) + j
            shift = stride * t
            lo_t, hi_t = lo - shift, hi - shift
            tally: dict[int, _Ring] = {}   # block difference d2 - d1 -> increments
            # only the d1 whose partner window [lo_t + d1, hi_t + d1] meets
            # [block[0], block[-1]] can pair; their windows start in increasing
            # order, so each run is one bisect from the last start and a walk
            first = 0
            for i in range(left(block, block[0] - hi_t), right(block, block[-1] - lo_t)):
                d1 = block[i]
                j = first = left(block, lo_t + d1, first)
                top, minus = hi_t + d1, neg[lab[i]]
                while j < size and block[j] <= top:
                    slot = tally.setdefault(block[j] - d1, {})
                    g = rows[lab[j]][minus]
                    slot[g] = slot.get(g, 0) + 1
                    j += 1
            start, count = max(0, -t), reps - abs(t)
            for diff, hist in tally.items():
                slot = out.setdefault(diff + shift, {})
                for g, mult in hist.items():
                    self.add_orbit_range(slot, g, count, start, mult)
        return dict(sorted(out.items()))

    # -- propagation ---------------------------------------------------------

    def propagate(self, N: int, m: int, base_level: int) -> dict[int, _Ring]:
        """Coefficients of the base-level shifts reached from shift m at depth N.

        Returns {base_shift: Z[K] coefficient}; the pairing vector is then
        the sum over shifts of coefficient * Q_base(shift).  A walk to a
        higher base b of the same (N, m) already crossed levels N..b+1, so
        the walk continues from the least such b the engine holds.
        """
        add = self.add
        top, states = N, {m: {0: 1}}   # index 0 is the identity
        for b in range(base_level + 1, N):
            cached = self.states.get((N, m, b))
            if cached is not None:
                top, states = b, cached
                break
        if not states:
            return {}
        for j in range(top, base_level, -1):
            h_prev = self.tower.h(j - 1)
            lo = min(states) - h_prev + 1
            hi = max(states) + h_prev - 1
            kernel = self.level_kernel(j, lo, hi)
            deltas = list(kernel)
            new_states: dict[int, _Ring] = {}
            for d, hist in states.items():
                first = bisect.bisect_right(deltas, d - h_prev)
                last = bisect.bisect_left(deltas, d + h_prev)
                for delta in deltas[first:last]:
                    _mul_into(new_states.setdefault(d - delta, {}), hist, kernel[delta], add)
            states = new_states
            if not states:
                return {}
            if len(states) > _STATE_GUARD:
                raise LimitExceeded(
                    f"pairing propagation exceeded {_STATE_GUARD} states at level {j}; "
                    "this shift pattern is outside the supported desk workloads"
                )
        return states

    # -- base application and the public pairing -------------------------------

    def base_values(self, A: tuple[int, ...], B: tuple[int, ...], level: int,
                    shifts) -> dict[int, _Ring]:
        """Q_level(d) in Z[K] computed explicitly: sum over u in B with u + d in A."""
        t = self.tower
        add, neg = self.add, self.neg
        a_set = set(A)
        out: dict[int, _Ring] = {}
        label_cache: dict[int, int] = {}

        def lab(f: int) -> int:
            g = label_cache.get(f)
            if g is None:
                g = label_cache[f] = rung_label(t, f, level)
            return g

        for d in shifts:
            counts: _Ring = {}
            for u in B:
                if u + d in a_set:
                    g = add[lab(u + d)][neg[lab(u)]]
                    counts[g] = counts.get(g, 0) + 1
            out[d] = counts
        return out

    def pairing(self, chi: Character, m: int, A: Cylinder, B: Cylinder, N: int) -> LevelPairing:
        """<U^m 1_A, 1_B> weighted by chi at depth N: exact value plus certified boundary error."""
        t = self.tower
        if chi.group != t.group:
            raise ValueError("character must live on the tower's label group")
        if N > t.depth:
            raise ValueError("depth exceeds the built tower")
        if abs(m) >= t.h(N):
            raise ValueError("shift magnitude must stay below the depth height")
        key = (m, A, B, N)
        vector = self.vectors.get(key)
        if vector is None:
            base = max(A.level, B.level)
            A_base = embed(t, A, base).rungs
            B_base = embed(t, B, base).rungs
            pkey = (N, m, base)
            states = self.states.get(pkey)
            if states is None:
                states = self.states[pkey] = self.propagate(N, m, base)
            qvals = self.base_values(A_base, B_base, base, states.keys())
            vector = {}
            for d, hist in states.items():
                _mul_into(vector, hist, qvals[d], self.add)
            ekey = (N, m, B)
            if ekey not in self.errors:
                self.errors[ekey] = Fraction(out_of_range_count(t, B_base, base, N, m),
                                             t.cut_product(N))
            self.vectors[key] = vector
        # the character's transform chi(W): the one step a character enters
        counts: dict[int, int] = {}
        exponent = exponent_table(chi)
        for g, c in vector.items():
            e = exponent[g]
            counts[e] = counts.get(e, 0) + c
        value = Cyclo.from_exponent_counts(chi.root_order, counts, t.cut_product(N))
        return LevelPairing(value, self.errors[(N, m, B)], N, m)


# -- structured rung-set counting -------------------------------------------


def count_ge(tower: Tower, base_rungs: tuple[int, ...], base_level: int, N: int,
             threshold: int) -> int:
    """#{f in E at depth N : f >= threshold} for E = sorted base_rungs + cut sums."""
    tops, prods = tower.cached(("cut_tables", base_level), _cut_tables, tower, base_level)
    nb, top = len(base_rungs), base_rungs[-1]

    def rec(j: int, t: int) -> int:
        i = j - base_level
        if t <= 0:
            return nb * prods[i]
        if t > top + tops[i]:
            return 0
        if i == 0:
            return nb - bisect.bisect_left(base_rungs, t)
        lvl = tower.level(j)
        # cuts >= t contribute fully; cuts <= t - 1 - (largest rung below) contribute nothing
        full_from = lvl.rank(t)
        total = (lvl.r - full_from) * nb * prods[i - 1]
        for k in range(lvl.rank(t - top - tops[i - 1]), full_from):
            total += rec(j - 1, t - lvl.cut(k))
        return total

    return rec(N, threshold)


def out_of_range_count(tower: Tower, B_base: tuple[int, ...], base_level: int,
                       N: int, m: int) -> int:
    """#{f in E_B at depth N with f + m outside [0, h_N)}."""
    if m == 0:
        return 0
    if m > 0:
        return count_ge(tower, B_base, base_level, N, tower.h(N) - m)
    total = len(B_base) * tower.cut_product(N) // tower.cut_product(base_level)
    return total - count_ge(tower, B_base, base_level, N, -m)
