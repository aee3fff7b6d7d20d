import time

import pytest

from cfspectra.experiment import (
    ConfigError,
    ExperimentConfig,
    build_tower,
    derive_schedule,
    resolve_system,
)
from cfspectra.groups import LimitExceeded, multiplicity_set
from cfspectra.tower import validate_tower


def test_config_round_trip():
    cfg = ExperimentConfig(E={1, 2}, depth=6)
    text = cfg.to_text()
    back = ExperimentConfig.from_text(text)
    assert back.E == {1, 2} and back.m == 1 and back.depth == 6
    assert back.to_text() == text
    # a config written before the seed key was dropped still builds the same system
    old = ExperimentConfig.from_text(text + "seed = 0\n")
    assert old.to_text() == text


def test_config_with_an_explicit_triple_round_trips():
    cfg = ExperimentConfig(E={2}, group="group = [3]\nsubgroup_gens = [[1]]\naut = [[2]]")
    text = cfg.to_text()
    assert "group = group = [3]; subgroup_gens = [[1]]; aut = [[2]]\n" in text
    back = ExperimentConfig.from_text(text)
    assert resolve_system(back) == resolve_system(cfg)
    assert back.to_text() == text


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(E=set())
    with pytest.raises(ConfigError):
        ExperimentConfig(E={2}, m=3)  # 4 not in E
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("depth = 5\n")  # no target


def test_config_defaults_m():
    assert ExperimentConfig(E={2}).m == 1
    assert ExperimentConfig(E={1, 4}).m == 3
    assert ExperimentConfig(E={1}).m == 0
    assert ExperimentConfig(E={1}).rank_one_only


def test_resolve_system_duality():
    cfg = ExperimentConfig(E={2}, depth=4)
    spec = resolve_system(cfg)
    assert multiplicity_set(spec.primal_group, spec.primal_subgroup, spec.primal_aut) == {2}
    assert spec.label_group.invariant_factors == spec.primal_group.invariant_factors
    # the fiber characters biject with the primal subgroup
    assert len(spec.fiber_characters) == spec.primal_subgroup.order
    # dual of the label automorphism pairs back to the primal one
    from cfspectra.groups import Character, dual_automorphism

    vhat = dual_automorphism(spec.label_aut)
    assert vhat.matrix == spec.primal_aut.matrix


def test_resolve_rank_one():
    spec = resolve_system(ExperimentConfig(E={1}, depth=4))
    assert spec.label_group.order == 1
    assert len(spec.fiber_characters) == 1


def test_schedule_covers_both_kinds():
    for E in [{1}, {2}, {1, 2}]:
        cfg = ExperimentConfig(E=E, depth=4)
        spec = resolve_system(cfg)
        cycle = derive_schedule(spec, cfg.m)
        assert any(t.k == 0 for t in cycle)
        assert any(t.k >= 1 for t in cycle)


def test_schedule_mix_ratios_up_to_m():
    cfg = ExperimentConfig(E={1, 4}, depth=4)  # m = 3
    spec = resolve_system(cfg)
    cycle = derive_schedule(spec, cfg.m)
    ks = {t.k for t in cycle if t.k >= 1}
    assert ks == {1, 2, 3}


@pytest.mark.parametrize("E,depth", [({1}, 5), ({2}, 6), ({1, 2}, 6)])
def test_build_tower_validates(E, depth):
    cfg = ExperimentConfig(E=E, depth=depth)
    tower, spec, schedule = build_tower(cfg)
    assert tower.depth == depth
    assert validate_tower(tower).passed
    # determinism: rebuilding gives identical structure
    tower2, _, _ = build_tower(cfg)
    for n in range(1, depth + 1):
        assert tower.level(n).cuts == tower2.level(n).cuts
        assert all(tower.level(n).label(c) == tower2.level(n).label(c)
                   for c in tower.level(n).cuts)


def test_build_explicit_schedule():
    cfg = ExperimentConfig(E={2}, depth=6, schedule="even 1|stagger 1 1")
    tower, spec, schedule = build_tower(cfg)
    assert len(schedule) == 2
    assert schedule[0].k == 0 and schedule[0].el.coords == (1,)
    assert schedule[1].k == 1
    assert validate_tower(tower).passed
    with pytest.raises(ConfigError):
        build_tower(ExperimentConfig(E={2}, depth=4, schedule="sideways 1"))


def test_build_explicit_group():
    triple = "group = [3]\nsubgroup_gens = [[1]]\naut = [[2]]\n"
    cfg = ExperimentConfig(E={2}, group=triple, depth=5)
    tower, spec, _ = build_tower(cfg)
    assert spec.primal_group.invariant_factors == (3,)
    assert validate_tower(tower).passed
    bad = ExperimentConfig(E={1, 2}, group=triple, depth=5)
    with pytest.raises(ConfigError):
        build_tower(bad)


def test_oversized_build_tower_is_refused_up_front():
    """The library build sums the recipe cut counts before any level past the seeds is built."""
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match="1,000,000 recipe cuts"):
        build_tower(ExperimentConfig(E={3}, depth=40))
    assert time.perf_counter() - start < 1


def test_deep_build_stays_small_in_memory():
    """A depth-34 {2} tower (962,949 cuts) builds in well under 60 MB: no level stores its cuts.

    The child reads its peak resident size from VmHWM, not ru_maxrss: Linux folds the
    resident size of the spawning process into a child's ru_maxrss when it execs, so
    under a large test runner ru_maxrss would report the runner, not the build.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "from cfspectra.experiment import ExperimentConfig, build_tower\n"
        "tower, _, _ = build_tower(ExperimentConfig(E=frozenset({2}), depth=34))\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(sum(lvl.r for lvl in tower.levels), int(status.split()[0]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert int(out[0]) == 962_949
    assert int(out[1]) < 60 * 1024, f"peak RSS {int(out[1]) // 1024} MB"   # VmHWM is in kB
