"""Per-cut scans over ``Level.cuts``: the test oracles for the block-form counts.

Every function here walks the full cut tuple of a level, as the library did
before its levels went block-native, so each block-form result, and each
format-1 line rendered from the block, can be checked against an independent
scan on every level and on its one-copy (``reps == 1``) twin.  ``tower_text``
gives a tower's format-1 text as a string, and ``reference_parse_tower`` reads
it back from the whole text, each line held whole.  ``admissible_level_shift`` is
the tail shift as a search for an admissible level, the reference for the
rung shift ``TailShift.apply`` makes.
"""

import bisect
import contextlib
import io
import itertools
from fractions import Fraction
from unittest.mock import patch

from cfspectra import tower as tower_module
from cfspectra.cocycle import _aligned_classes
from cfspectra.groups import Automorphism, FinAbGroup, _parse_int_list, addition_table, least_period
from cfspectra.tower import (Cylinder, Level, Point, Recipe, Report, Tag, Tower, TowerParseError, _coords_from_str,
                             _coords_str, _cut_blocks, _label_copies, _read_entries, canonical_point, embed, recipe,
                             serialize_tower)


def one_copy_twin(t):
    """The tower with every level rebuilt as one copy of its cuts (reps == 1)."""
    single = Tower(t.group, t.v)
    single.levels = [Level(lvl.n, lvl.h, lvl.z, lvl.cuts, 1, lvl.cut_labels(), lvl.tag,
                           single.elements, single.v_pow) for lvl in t.levels]
    return single


def tower_text(tower) -> str:
    """The tower's format-1 text, as ``serialize_tower`` writes it to a stream."""
    out = io.StringIO()
    serialize_tower(tower, out)
    return out.getvalue()


def reference_recipe(tower, n, tag) -> Recipe:
    """The recipe as two branches, even (k = 0) and stagger (k >= 1): the oracle for ``tower.recipe``."""
    h = tower.h(n)
    m = least_period(tower.v, tag.el)
    if tag.k == 0:
        r, z, mix = n**3 * m, 2 * h * n * m, 0
        block = tuple(2 * h * t for t in range(n * m))
        ramp_len = len(block)
    else:
        k = tag.k
        r, z = n**3 * (k + 1) * m, m * n * (2 * h * (k + 1) + k)
        mix = k * r // (k + 1)   # exact: k + 1 divides r
        block = (tuple(2 * h * t for t in range(n * m))
                 + tuple(2 * h * (n * m - 1) + (2 * h + 1) * j for j in range(1, n * k * m + 1)))
        ramp_len = n * m
    return Recipe(2 * r * h + mix, z, r, block, n * n, ramp_len)


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
def entry_read_levels():
    """A list filled with the number of each level that ``parse_tower`` reads entry by entry (``_read_entries``):
    the seed levels, and every tagged level whose values are not the writer's rendering of it."""
    read = []
    read_entries = tower_module._read_entries

    def spy(n, *args):
        read.append(n)
        return read_entries(n, *args)

    with patch.object(tower_module, "_read_entries", spy):
        yield read


def reference_parse_tower(text):
    """The tower format-1 ``text`` describes, read from the whole text: split at ``\\n``, stripped, with
    blank and ``#`` lines dropped, then taken line by line in the writer's order (``group``, ``aut``,
    ``depth``, then per level ``level n``, ``tag``, ``h``, ``z``, ``cuts``, ``labels``); a recipe level is
    kept as ``Tower.extend`` builds it when both its values are the writer's rendering of it, else read
    entry by entry."""
    try:
        return _reference_parse(text)
    except TowerParseError:
        raise
    except Exception as exc:
        raise TowerParseError(f"malformed tower file: {exc}") from exc


def _reference_found(line):
    return repr(line.partition("=")[0].strip()[:40]) if line else "the end of the file"


def _reference_rendered_level(tower, n, tag, rec, cuts, labels, index_of, texts):
    block_labels = []
    pos = 0
    for _ in rec.block:
        stop = labels.find(";", pos)
        stop = len(labels) if stop < 0 else stop
        eq = labels.find("=", pos, stop)
        g = index_of.get(labels[eq + 1:stop]) if eq >= 0 else None
        if g is None:
            return None
        block_labels.append(g)
        pos = stop + 1
    lvl = Level(n, rec.h, rec.z, rec.block, rec.reps, block_labels, tag, tower.elements, tower.v_pow)
    if cuts == "".join(_cut_blocks(lvl)) and labels == "".join(_label_copies(lvl, texts)):
        return lvl
    return None


def _reference_tag(group, n, text):
    words = text.split()
    if not words or words[0] not in ("seed", "even", "stagger"):
        raise TowerParseError(f"unknown tag {text!r}")
    shapes = {"seed": 1, "even": 2, "stagger": 3}
    if len(words) != shapes[words[0]] or words[0] == "stagger" and not words[2].startswith("k="):
        raise TowerParseError(f"level {n}: malformed tag {text!r}")
    if words[0] == "seed":
        return None
    try:
        coords = _coords_from_str(words[1])
        k = int(words[2][2:]) if words[0] == "stagger" else 0
    except ValueError:
        raise TowerParseError(f"level {n}: malformed tag {text!r}") from None
    if words[0] == "stagger" and k < 1:
        raise TowerParseError(f"level {n}: stagger mix ratio k={k} is below 1 (k = 0 is written even)")
    return Tag(group.element(coords), k)


def _reference_parse(text):
    lines = iter([ln.strip() for ln in text.split("\n") if ln.strip() and not ln.strip().startswith("#")])

    def value(where, key):
        line = next(lines, "")
        name, eq, val = line.partition("=")
        if not eq or name.strip() != key:
            raise TowerParseError(f"{where}expected '{key} =', found {_reference_found(line)}")
        return val.strip()

    group = FinAbGroup(tuple(_parse_int_list(value("", "group"))))
    v = Automorphism(group, _parse_int_list(value("", "aut")))
    depth = int(value("", "depth"))
    tower = Tower.seeded(group, v)
    seeds, tower.levels = tower.levels, ()
    texts = [_coords_str(el) for el in tower.elements]
    index_of = {s: i for i, s in enumerate(texts)}
    for line in lines:
        n = tower.depth + 1
        words = line.split()
        if words[0] != "level":
            where = f"level {n - 1}: " if n > 1 else ""
            want = f"'level {n}'" if n <= depth else "the end of the file"
            raise TowerParseError(f"{where}expected {want}, found {_reference_found(line)}")
        if len(words) != 2 or not words[1].isdecimal():
            raise TowerParseError(f"malformed level header {line!r}")
        if int(words[1]) > depth:
            raise TowerParseError(f"level {int(words[1])} beyond declared depth {depth}")
        if int(words[1]) != n:
            raise TowerParseError(f"level {int(words[1])} out of order")
        where = f"level {n}: "
        tag_text = value(where, "tag")
        tag = _reference_tag(group, n, tag_text)
        if (tag is None) != (n <= 2):
            raise TowerParseError(f"level {n}: levels 1-2 must be tagged seed and later levels even or stagger")
        h = int(value(where, "h"))
        z = int(value(where, "z"))
        if tag is None:
            cuts_text = value(where, "cuts")
            cuts, labels = _read_entries(n, cuts_text, value(where, "labels"), group, index_of)
            lvl = seeds[n - 1]
            if (h, z, cuts, labels) != (lvl.h, lvl.z, lvl.cuts, lvl.cut_labels()):
                raise TowerParseError(f"level {n}: seed level differs from Tower.seeded "
                                      f"(h = {lvl.h}, z = {lvl.z}, cuts = {lvl.cuts}, zero labels)")
        else:
            rec = recipe(tower, n - 1, tag)
            if (h, z) != (rec.h, rec.z):
                raise TowerParseError(f"level {n}: h = {h}, z = {z} disagree with the {tag_text} recipe "
                                      f"(h = {rec.h}, z = {rec.z})")
            cuts_text = value(where, "cuts")
            labels_text = value(where, "labels")
            lvl = _reference_rendered_level(tower, n, tag, rec, cuts_text, labels_text, index_of, texts)
            if lvl is None:
                cuts, labels = _read_entries(n, cuts_text, labels_text, group, index_of)
                lvl = Level(n, h, z, rec.block, rec.reps, labels[:len(rec.block)], tag, tower.elements, tower.v_pow)
                if lvl.cuts != cuts or lvl.cut_labels() != labels:
                    lvl = Level(n, h, z, cuts, 1, labels, tag, tower.elements, tower.v_pow)
        tower.levels = (*tower.levels, lvl)
    if tower.depth != depth:
        raise TowerParseError(f"declared depth {depth} but parsed {tower.depth} levels")
    return tower


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
    el = tag.el
    m = least_period(v, el)
    center = Fraction(1, m) if tag.k == 0 else Fraction(1, (tag.k + 1) * m)
    width = Fraction(2, n * m)
    two_h = 2 * tower.h(level.n - 1)
    power = el
    for i in range(m):
        cls = [c for c in level.cuts if c - two_h in cuts and label[c] - label[c - two_h] == power]
        freq = Fraction(len(cls), r)
        rep.add(f"increment-class-band i={i}", level.n, abs(freq - center) < width,
                f"|{freq} - {center}| vs {width}, class size {len(cls)}")
        power = v(power)
    if tag.k >= 1:
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
    if lvl.z == 0:
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


def found_cut(tower, n, f):
    """The level-n coordinate of ``tower.decompose(f, n)`` for f in [0, h_n), or None where the walk stops at
    level n, once the walk's label sum is checked against the ``Level.label_index`` of every coordinate."""
    n_min, _, coords, label = tower.decompose(f, n)
    add, want = addition_table(tower.group), 0
    for j, c in coords.items():
        want = add[want][tower.level(j).label_index(c)]
    assert label == want, (n, f, coords)
    return None if n_min == n else coords[n]


def admissible_level_shift(tower, p):
    """The tail shift of p by a search for an admissible level: the hand-built point at the least level n,
    from the level of p's canonical form up to its truncation N, where the rung bound at n holds
    (level rung + z_1 + ... + z_n < h_n) and every coordinate above n survives its z-shift; None when no
    level is admissible.  On a tower whose stacks stay in their levels its rung, where it has one, is
    ``p.rung + z_1 + ... + z_N`` and lies below h_N."""
    p = canonical_point(tower, p.rung(tower), p.truncation)
    z = [0] + [lvl.z for lvl in tower.levels]
    N, level_rung, coords = p.truncation, p.f, dict(enumerate(p.tail, p.level + 1))
    for n in range(p.level, N + 1):
        level_rung += coords.get(n, 0)   # p.level has no coordinate
        if (level_rung + sum(z[:n + 1]) < tower.h(n)
                and all(coords[m] + z[m] in tower.level(m) for m in range(n + 1, N + 1))):
            return Point(n, level_rung + sum(z[:n + 1]), tuple(coords[m] + z[m] for m in range(n + 1, N + 1)))
    return None


def reference_rung_label(tower, f, N):
    """The rung label as an ``Element``, by the decomposition and a ``Level.label_index`` lookup per level:
    each level j <= n_min, where the decomposition stops, adds the label of cut 0."""
    _, _, coords, _ = tower.decompose(f, N)
    add = addition_table(tower.group)
    total = 0
    for j in range(1, N + 1):
        total = add[total][tower.level(j).label_index(coords.get(j, 0))]
    return tower.elements[total]


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


def k_step_hits_scan(tower, A, p, k, N):
    """#{f in E_A(N) : f + k, ..., f + p*k in E_A(N)}, read off the embedded depth-N rung set."""
    return _k_step_hits(set(embed(tower, A, N).rungs), p, k)


def recurrence_search_scan(tower, A, p, k_max, N):
    """The least k <= k_max with a k-step hit at depth N and its mass, or None, by rung-set scans."""
    rungs = set(embed(tower, A, N).rungs)
    for k in range(1, k_max + 1):
        hits = _k_step_hits(rungs, p, k)
        if hits:
            return k, Fraction(hits, tower.cut_product(N))
    return None


def _k_step_hits(rungs, p, k):
    return len(rungs.intersection(*({f - j * k for f in rungs} for j in range(1, p + 1))))


def return_state_counts_scan(tower, A, p, k, N):
    """Per level from N down, the number of residual-shift tuples the top-down count keeps.

    A tuple (d_1, ..., d_p) moves to (d_i - (c_i - c)) over every cut c of the
    level and cuts c_i with |d_i - (c_i - c)| below the height of the level under it.
    """
    states = {tuple(k * i for i in range(1, p + 1))}
    sizes = []
    for j in range(N, A.level, -1):
        cuts, h = tower.level(j).cuts, tower.h(j - 1)
        states = {tuple(d - (ci - c) for d, ci in zip(ds, choice))
                  for ds in states for c in cuts
                  for choice in itertools.product(*(
                      cuts[bisect.bisect_left(cuts, c + d - h + 1):bisect.bisect_right(cuts, c + d + h - 1)]
                      for d in ds))}
        if not states:
            break
        sizes.append(len(states))
    return sizes
