"""The benchmark's tracer patches cfspectra functions by name; every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(modname: str, path: str):
    """The raw attribute the tracer wraps, looked up the way its ``_patch`` does."""
    owner = importlib.import_module(f"cfspectra.{modname}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_every_traced_target_resolves(tracing):
    targets = list(tracing.SPANNED) + [(m, p) for m, p, _ in tracing.COUNTED + tracing.TIMED]
    targets.append(("groups", "automorphisms"))
    for modname, path in targets:
        assert callable(_resolve(modname, path)), f"{modname}.{path}"


def test_state_probe_hooks_exist():
    pairings = importlib.import_module("cfspectra.pairings")
    assert isinstance(pairings._STATE_GUARD, int)
    # the state probe swaps the module's ``bisect`` name for a counting proxy
    assert pairings.bisect.bisect_right is importlib.import_module("bisect").bisect_right
