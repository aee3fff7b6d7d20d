"""Experiment pipeline: from a target multiplicity set to a built, validated tower.

The pipeline resolves a group triple realizing the target set (catalog search
or an explicit triple), passes to the dual system that the tower labels live
on, derives a tag schedule covering every separation witness and mix ratio
the downstream checks need, and extends the tower to the requested depth.
Outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .groups import (
    Automorphism,
    Character,
    Element,
    FinAbGroup,
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
from .tower import EvenTag, StaggerTag, Tower


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
        lines = [
            "E = " + ",".join(map(str, sorted(self.E))),
            f"m = {self.m}",
            f"group = {self.group}",
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

    E: frozenset[int]
    primal_group: FinAbGroup
    primal_subgroup: Subgroup
    primal_aut: Automorphism
    label_group: FinAbGroup         # the dual group the cocycle maps into
    label_aut: Automorphism         # automorphism whose dual is the primal one
    fiber_kernel: Subgroup          # subgroup of the label group defining the fiber
    fiber_characters: list[Character]

    def nontrivial_characters(self) -> list[Character]:
        return [c for c in self.fiber_characters if not c.is_trivial()]


def resolve_system(config: ExperimentConfig) -> SystemSpec:
    """Find or parse the primal triple and pass to the dual label system."""
    if config.rank_one_only:
        K = FinAbGroup(())
        ident = Automorphism(K, [], check=False)
        H = Subgroup(K, [])
        return SystemSpec(config.E, K, H, ident, K, ident, H, list(all_characters(K)))
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
    return SystemSpec(config.E, G, H, v, K, label_aut, fiber_kernel, chars)


def derive_schedule(spec: SystemSpec, m: int) -> list:
    """A deterministic tag cycle covering all witnesses and mix ratios needed.

    Even tags: one per separation witness over dual-orbit-distinct pairs of
    fiber characters.  Stagger tags: for each mix ratio up to m, an element
    whose orbit average separates every nontrivial fiber character from one.
    Both lists are padded with the identity element when empty so that each
    level kind recurs.
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
    for b in sorted(K.elements(), key=lambda e: e.coords):
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
    evens = [EvenTag(a) for a in sorted(witnesses, key=lambda e: e.coords)]
    staggers = [StaggerTag(b, k) for k in range(1, max(1, m) + 1)
                for b in sorted(mix_elements, key=lambda e: e.coords)]
    # interleave so both kinds recur at alternating steps
    cycle = []
    for i in range(max(len(evens), len(staggers))):
        cycle.append(evens[i % len(evens)])
        cycle.append(staggers[i % len(staggers)])
    return cycle


def parse_schedule(text: str, group: FinAbGroup) -> list:
    """Explicit tag cycle: entries 'even c1,c2' or 'stagger c1,c2 k', pipe-separated."""
    cycle = []
    for entry in text.split("|"):
        parts = entry.strip().split()
        try:
            coords = () if parts[1] == "-" else tuple(int(x) for x in parts[1].split(","))
            el = group.element(coords)
            if parts[0] == "even":
                cycle.append(EvenTag(el))
            elif parts[0] == "stagger":
                cycle.append(StaggerTag(el, int(parts[2])))
            else:
                raise ValueError(parts[0])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad schedule entry {entry!r}: {exc}") from exc
    if not cycle:
        raise ConfigError("empty schedule")
    return cycle


def build_tower(config: ExperimentConfig, spec: SystemSpec | None = None) -> tuple[Tower, SystemSpec, list]:
    """Seed and extend the tower to the configured depth along the tag cycle."""
    spec = resolve_system(config) if spec is None else spec
    if config.schedule == "auto":
        schedule = derive_schedule(spec, config.m)
    else:
        schedule = parse_schedule(config.schedule, spec.label_group)
    tower = Tower.seeded(spec.label_group, spec.label_aut)
    step = 0
    while tower.depth < config.depth:
        tower.extend(schedule[step % len(schedule)])
        step += 1
    return tower, spec, schedule


def output_dir(config: ExperimentConfig) -> Path:
    override = os.environ.get("CFSPECTRA_OUT")
    return Path(override) if override else Path(config.out)


def write_artifacts(config: ExperimentConfig, tower: Tower, spec: SystemSpec) -> dict[str, Path]:
    """Write the tower, the group triple, and the config echo; deterministic bytes."""
    from .tower import serialize_tower

    out = output_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    paths["config"] = out / "config.txt"
    paths["config"].write_text(config.to_text())
    paths["tower"] = out / "tower.txt"
    paths["tower"].write_text(serialize_tower(tower))
    if not config.rank_one_only:
        paths["group"] = out / "group.txt"
        paths["group"].write_text(
            format_triple(spec.primal_group, spec.primal_subgroup, spec.primal_aut) + "\n"
        )
    return paths
