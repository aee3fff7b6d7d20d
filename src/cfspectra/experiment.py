"""Experiment pipeline: from a target multiplicity set to a built, validated tower.

The pipeline resolves a group triple realizing the target set (catalog search
or an explicit triple), passes to the dual system that the tower labels live
on, derives a tag schedule covering every separation witness and mix ratio
the downstream checks need, and extends the tower to the requested depth.
Outputs are deterministic for a fixed config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .groups import (
    Automorphism,
    Character,
    Element,
    FinAbGroup,
    LimitExceeded,
    Subgroup,
    all_characters,
    annihilator,
    annihilator_subgroup,
    catalog_search,
    character_orbit_average,
    dual_automorphism,
    format_triple,
    multiplicity_set,
    parse_triple,
    same_dual_orbit,
    separation_witness,
)
from .tower import Tag, Tower, recipe_cut_count, serialize_tower


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """Flat, diff-able experiment description."""

    E: frozenset[int]
    m: int | None = None
    group: str = "auto"
    bound: int = 40
    depth: int = 8
    schedule: str = "auto"
    out: str = "out"

    def __post_init__(self):
        self.E = frozenset(int(x) for x in self.E)
        if not self.E or any(x < 1 for x in self.E):
            raise ConfigError("target set must be nonempty positive integers")
        if self.m is None:
            above = [x for x in self.E if x > 1]
            self.m = min(above) - 1 if above else 0
        if self.E != {1} and (self.m + 1) not in self.E:
            raise ConfigError(f"m+1 = {self.m + 1} must lie in the target set")
        if self.depth < 2:
            raise ConfigError("depth must be at least the two seed levels")

    @property
    def rank_one_only(self) -> bool:
        return self.E == {1}

    def to_text(self) -> str:
        # an explicit triple goes on its one line with its fields joined by "; ", as parse_triple reads them
        group = "; ".join(filter(None, (line.split("#", 1)[0].strip() for line in self.group.splitlines())))
        lines = [
            "E = " + ",".join(map(str, sorted(self.E))),
            f"m = {self.m}",
            f"group = {group}",
            f"bound = {self.bound}",
            f"depth = {self.depth}",
            f"schedule = {self.schedule}",
            f"out = {self.out}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        fields_ = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {line!r}")
            key, _, val = line.partition("=")
            fields_[key.strip()] = val.strip()
        try:
            E = frozenset(int(x) for x in fields_["E"].split(","))
            kwargs = dict(E=E)
            if "m" in fields_:
                kwargs["m"] = int(fields_["m"])
            for key in ("group", "schedule", "out"):
                if key in fields_:
                    kwargs[key] = fields_[key]
            for key in ("bound", "depth"):
                if key in fields_:
                    kwargs[key] = int(fields_[key])
            return ExperimentConfig(**kwargs)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc


@dataclass
class SystemSpec:
    """The primal triple realizing the target set, and its dual label system."""

    primal_group: FinAbGroup
    primal_subgroup: Subgroup
    primal_aut: Automorphism
    label_group: FinAbGroup         # the dual group the cocycle maps into
    label_aut: Automorphism         # automorphism whose dual is the primal one
    fiber_characters: list[Character]

    def nontrivial_characters(self) -> list[Character]:
        return [c for c in self.fiber_characters if not c.is_trivial()]


def resolve_system(config: ExperimentConfig) -> SystemSpec:
    """Find or parse the primal triple and pass to the dual label system."""
    if config.rank_one_only:
        K = FinAbGroup(())
        ident = Automorphism(K, [], check=False)
        H = Subgroup(K, [])
        return SystemSpec(K, H, ident, K, ident, list(all_characters(K)))
    if config.group == "auto":
        rec = catalog_search(config.E, config.bound)
        if rec is None:
            raise ConfigError(f"no group of order <= {config.bound} realizes {sorted(config.E)}")
        G, H, v = rec.group, rec.subgroup, rec.automorphism
    else:
        G, H, v = parse_triple(config.group)
        if multiplicity_set(G, H, v) != config.E:
            raise ConfigError("supplied triple does not realize the target set")
    # dual system: same invariant factors; the label automorphism dualizes back
    K = FinAbGroup(G.invariant_factors)
    label_aut = dual_automorphism(v)
    fiber_kernel = annihilator_subgroup(K, H)
    # double annihilator must recover the subgroup: the dual bookkeeping is exact
    back = annihilator_subgroup(K, fiber_kernel)
    if back != H:
        raise AssertionError("double annihilator failed to recover the subgroup")
    chars = annihilator(K, fiber_kernel)
    return SystemSpec(G, H, v, K, label_aut, chars)


def derive_schedule(spec: SystemSpec, m: int) -> list:
    """A deterministic tag cycle covering all witnesses and mix ratios needed.

    Tags with k = 0 (even levels): one per separation witness over
    dual-orbit-distinct pairs of fiber characters.  Tags with k = 1..m
    (stagger levels): for each k, an element whose orbit average separates
    every nontrivial fiber character from one.  Both lists are padded with
    the identity element when empty, and the cycle alternates them, so both
    k = 0 and k >= 1 levels recur.
    """
    K = spec.label_group
    v = spec.label_aut
    chars = spec.fiber_characters
    witnesses: list[Element] = []
    for i, chi in enumerate(chars):
        for xi in chars[i + 1:]:
            if same_dual_orbit(chi, xi, v):
                continue
            res = separation_witness(chi, xi, v)
            if res.found and res.witness not in witnesses:
                witnesses.append(res.witness)
    mix_elements: list[Element] = []
    needed = list(spec.nontrivial_characters())
    for b in K.elements():
        if not needed:
            break
        if b.is_identity():
            continue
        covered = [chi for chi in needed
                   if character_orbit_average(chi, b, v) != 1]
        if covered:
            mix_elements.append(b)
            needed = [chi for chi in needed if chi not in covered]
    if not witnesses:
        witnesses = [K.identity()]
    if not mix_elements:
        mix_elements = [K.identity()]
    evens = [Tag(a, 0) for a in sorted(witnesses, key=lambda e: e.coords)]
    staggers = [Tag(b, k) for k in range(1, max(1, m) + 1) for b in mix_elements]
    # interleave so both kinds recur at alternating steps
    cycle = []
    for i in range(max(len(evens), len(staggers))):
        cycle.append(evens[i % len(evens)])
        cycle.append(staggers[i % len(staggers)])
    return cycle


def parse_schedule(text: str, group: FinAbGroup) -> list:
    """Explicit tag cycle: entries 'even c1,c2' or 'stagger c1,c2 k', pipe-separated.

    'even c' is ``Tag(c, 0)`` and 'stagger c k' is ``Tag(c, k)`` for k >= 1 only.
    """
    cycle = []
    for entry in text.split("|"):
        parts = entry.strip().split()
        try:
            coords = () if parts[1] == "-" else tuple(int(x) for x in parts[1].split(","))
            el = group.element(coords)
            if parts[0] == "even":
                cycle.append(Tag(el, 0))
            elif parts[0] == "stagger":
                k = int(parts[2])
                if k < 1:   # k = 0 is written "even"
                    raise ValueError("mix ratio k must be >= 1")
                cycle.append(Tag(el, k))
            else:
                raise ValueError(parts[0])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad schedule entry {entry!r}: {exc}") from exc
    if not cycle:
        raise ConfigError("empty schedule")
    return cycle


def tag_schedule(config: ExperimentConfig, spec: SystemSpec) -> list:
    """The configured tag cycle: derived from the system, or parsed from the config."""
    if config.schedule == "auto":
        return derive_schedule(spec, config.m)
    return parse_schedule(config.schedule, spec.label_group)


# The most recipe cuts one build may write.  A tower file takes about 110-140
# bytes a cut: 962,949 cuts ({2} at depth 34) make a 107 MB file, which `build`
# writes at an 18 MB peak RSS and `verify` reads at 47 MB (its longest line,
# the top level's labels, is 20 MB), and 3,215,486 ({3} at depth 40) a 460 MB
# file.  The count is summed from the recipe before any level past the seeds
# is built.
_BUILD_GUARD = 1_000_000


def build_tower(config: ExperimentConfig) -> tuple[Tower, SystemSpec, list]:
    """Seed and extend the tower to the configured depth along the tag cycle.

    Raises LimitExceeded, before any level past the seeds is built, when the
    levels would hold more than ``_BUILD_GUARD`` recipe cuts.
    """
    spec = resolve_system(config)
    schedule = tag_schedule(config, spec)
    cuts = 0
    for n in range(2, config.depth):   # level n + 1 is built at step n
        cuts += recipe_cut_count(spec.label_aut, n, schedule[(n - 2) % len(schedule)])
        if cuts > _BUILD_GUARD:
            raise LimitExceeded(f"a depth-{config.depth} build would write more than {_BUILD_GUARD:,} "
                                f"recipe cuts (passed at level {n + 1}); lower the depth")
    tower = Tower.seeded(spec.label_group, spec.label_aut)
    for n in range(2, config.depth):
        tower.extend(schedule[(n - 2) % len(schedule)])
    return tower, spec, schedule


def write_artifacts(config: ExperimentConfig, tower: Tower, spec: SystemSpec) -> dict[str, Path]:
    """Write the tower, the group triple, and the config echo; deterministic bytes."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    paths["config"] = out / "config.txt"
    paths["config"].write_text(config.to_text())
    paths["tower"] = out / "tower.txt"
    # written as it is rendered, never held whole: `build` of the 17 MB depth-24 {1,2} file peaks at 18 MB RSS
    with paths["tower"].open("w") as f:
        serialize_tower(tower, f)
    if not config.rank_one_only:
        paths["group"] = out / "group.txt"
        paths["group"].write_text(
            format_triple(spec.primal_group, spec.primal_subgroup, spec.primal_aut) + "\n"
        )
    return paths
