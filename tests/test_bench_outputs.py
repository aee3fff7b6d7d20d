"""The benchmark's recorded output digests hold for the parsed-tower CLI run, one grid seed, the depth-24 build and one desk stream."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod   # its dataclasses resolve their module while being built
    spec.loader.exec_module(mod)
    yield mod
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["cli-parsed", "grid-inmem", "deep-build", "desk-queries"])
def test_outputs_match_reference_digests(workloads, tmp_path, workload):
    setup, run = workloads.WORKLOADS[workload]
    state = setup(1, tmp_path)
    ops = state.get("setup_ops", []) + run(state)
    reference = workloads.load_reference()[workload]
    assert ops
    for op in ops:
        assert workloads.mismatches(reference, op) == [], op.kind
