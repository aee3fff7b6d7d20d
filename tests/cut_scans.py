"""Per-cut scans over ``Level.cuts``: the test oracles for the block-form counts.

Every function here walks the full cut tuple of a level, as the library did
before its levels went block-native, so each block-form result, and each
format-1 line rendered from the block, can be checked against an independent
scan on every level and on its one-copy (``reps == 1``) twin.
"""

import bisect
import contextlib
from fractions import Fraction
from unittest.mock import patch

from cfspectra import tower as tower_module
from cfspectra.cocycle import _aligned_classes
from cfspectra.groups import least_period
from cfspectra.tower import Cylinder, EvenTag, Level, Report, StaggerTag, Tower, embed, recipe


def one_copy_twin(t):
    """The tower with every level rebuilt as one copy of its cuts (reps == 1)."""
    single = Tower(t.group, t.v)
    single.levels = [Level(lvl.n, lvl.h, lvl.z, lvl.cuts, 1, lvl.cut_labels(), lvl.tag,
                           single.elements, single.v_pow) for lvl in t.levels]
    return single


def reference_compress_aps(values) -> str:
    """Greedy start:step:count blocks over a sequence, value by value: the format-1 ``cuts =`` text."""
    vals = list(values)
    out = []
    i = 0
    while i < len(vals):
        if i + 1 >= len(vals):
            out.append(f"{vals[i]}:1:1")
            i += 1
            continue
        step = vals[i + 1] - vals[i]
        j = i + 1
        while j + 1 < len(vals) and vals[j + 1] - vals[j] == step:
            j += 1
        out.append(f"{vals[i]}:{step}:{j - i + 1}")
        i = j + 1
    return ",".join(out)


def reference_labels_text(level) -> str:
    """The format-1 ``labels =`` text, one ``cut=coords`` entry per cut from ``Level.label``."""
    return ";".join(f"{c}={','.join(map(str, level.label(c).coords)) or '-'}" for c in level.cuts)


@contextlib.contextmanager
def rendered_level_calls():
    """A list filled, per tagged level that ``parse_tower`` reads, with whether it kept the writer's rendering."""
    accepted = []
    rendered_level = tower_module._rendered_level

    def spy(*args):
        lvl = rendered_level(*args)
        accepted.append(lvl is not None)
        return lvl

    with patch.object(tower_module, "_rendered_level", spy):
        yield accepted


def reference_label_report(level, tower):
    """The three label checks on ``Element`` values, each class counted by its own scan."""
    rep = Report()
    if level.tag is None:
        rep.add("seed level, no label conditions", level.n, True)
        return rep
    v, n, r, tag = tower.v, level.step, level.r, level.tag
    cuts = set(level.cuts)
    label = {c: level.label(c) for c in level.cuts}
    shifted = [c for c in level.cuts if c + level.z in cuts]
    bad = [c for c in shifted if label[c + level.z] != v(label[c])]
    rep.add("shift-equivariance", level.n, not bad,
            f"violated at cuts {bad[:3]}" if bad else f"checked {len(shifted)} cuts")
    el = tag.a if isinstance(tag, EvenTag) else tag.b
    m = least_period(v, el)
    center = Fraction(1, m) if isinstance(tag, EvenTag) else Fraction(1, (tag.k + 1) * m)
    width = Fraction(2, n * m)
    two_h = 2 * tower.h(level.n - 1)
    power = el
    for i in range(m):
        cls = [c for c in level.cuts if c - two_h in cuts and label[c] - label[c - two_h] == power]
        freq = Fraction(len(cls), r)
        rep.add(f"increment-class-band i={i}", level.n, abs(freq - center) < width,
                f"|{freq} - {center}| vs {width}, class size {len(cls)}")
        power = v(power)
    if isinstance(tag, StaggerTag):
        k = tag.k
        cls = [c for c in level.cuts if c - two_h - 1 in cuts and label[c] == label[c - two_h - 1]]
        freq = Fraction(len(cls), r)
        rep.add("carry-class-band", level.n, abs(freq - Fraction(k, k + 1)) < Fraction(2, n),
                f"|{freq} - {Fraction(k, k + 1)}| vs {Fraction(2, n)}")
    return rep


def reference_structure_report(tower):
    """The structural checks with every cut gap, the zero cut and the top cut read off the cut tuple."""
    rep = Report()
    for n in range(1, tower.depth + 1):
        lvl = tower.level(n)
        cuts, h_prev = lvl.cuts, tower.h(n - 1)
        rep.add("zero cut present", n, 0 in set(cuts))
        rep.add("more than one cut", n, len(cuts) > 1)
        r_recipe = len(cuts) if lvl.tag is None else recipe(tower, n - 1, lvl.tag).r
        rep.add("cut count matches recipe", n, len(cuts) == r_recipe, f"{len(cuts)} vs {r_recipe}")
        rep.add("stack containment", n, max(cuts) + h_prev <= lvl.h,
                f"max cut {max(cuts)} + {h_prev} vs height {lvl.h}")
        rep.add("cut disjointness", n, all(b - a >= h_prev for a, b in zip(cuts, cuts[1:])))
    mus = [tower.mu_level(n) for n in range(tower.depth + 1)]
    for n in range(1, tower.depth + 1):
        rep.add("measure nondecreasing", n, mus[n] >= mus[n - 1], f"{mus[n]} vs {mus[n-1]}")
        if tower.level(n).tag is not None:
            rep.add("measure doubling", n, mus[n] >= 2 * mus[n - 1], f"{mus[n]} vs 2*{mus[n-1]}")
        if n > 2:
            rep.add("measure growth floor", n, mus[n] >= Fraction(2) ** (n - 2))
    return rep


def surviving_cuts(level, step):
    """The cuts c of the level with c + step a cut, in increasing order."""
    cuts = set(level.cuts)
    return tuple(c for c in level.cuts if c + step in cuts)


def aligned_cut_scan(tower, n):
    """Cuts c with c + z_n a cut and label(c + z_n) = v(label(c)); every cut on a seed level."""
    lvl = tower.level(n)
    if lvl.tag is None or lvl.z == 0:
        return frozenset(lvl.cuts)
    lab = dict(zip(lvl.cuts, lvl.cut_labels()))
    v1 = tower.v.perm
    return frozenset(c for c, g in lab.items() if lab.get(c + lvl.z) == v1[g])


def aligned_cuts(tower, n):
    """The aligned cuts of level n in block form, read off the classes ``check_coboundary_condition`` counts."""
    return frozenset(tower.level(n).class_cuts(_aligned_classes(tower, n)))


def defect_scan(tower, n):
    """|cuts ^ (cuts - z)| / |cuts| from the two cut sets."""
    lvl = tower.level(n)
    if lvl.z == 0:
        return Fraction(0)
    cuts = frozenset(lvl.cuts)
    return Fraction(len(cuts ^ frozenset(c - lvl.z for c in cuts)), len(cuts))


def count_ge_scan(tower, base_rungs, base_level, N, threshold):
    """#{f in E at depth N : f >= threshold}, recursing over every cut tuple."""
    def rec(j, t):
        if j == base_level:
            return len(base_rungs) - bisect.bisect_left(base_rungs, t)
        return sum(rec(j - 1, t - c) for c in tower.level(j).cuts)

    return rec(N, threshold)


def find_cut_scan(tower, n, f):
    """The cut c of level n with f - c in [0, h_{n-1}), by bisection in the cut tuple."""
    cuts = tower.level(n).cuts
    i = bisect.bisect_right(cuts, f) - 1
    return cuts[i] if i >= 0 and f - cuts[i] < tower.h(n - 1) else None


def witness_block_rungs(tower, w, i):
    """Every rung of coordinate i of a transport witness's block, its choice sets scanned cut by cut."""
    rungs = [w.target[i] if w.flipped else w.start[i]]
    for lvl in range(w.base_level + 1, w.top_level + 1):
        rungs = [f + c for f in rungs for c in surviving_cuts(tower.level(lvl), w.plan[i].get(lvl, 0))]
    return [f + abs(w.shift) for f in rungs] if w.flipped else rungs


def brute_force_witness_check(tower, w):
    """Re-verify a transport witness by explicit rung enumeration (shallow towers only)."""
    for i in range(w.p):
        start = set(embed(tower, Cylinder.single(w.base_level, w.start[i]), w.top_level).rungs)
        target = set(embed(tower, Cylinder.single(w.base_level, w.target[i]), w.top_level).rungs)
        if any(g not in start or g + w.shift not in target for g in witness_block_rungs(tower, w, i)):
            return False
    return True
