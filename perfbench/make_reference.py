"""Record the reference digests every benchmark run is checked against.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``.  Run it only on a commit whose outputs
are the accepted ones: a later change must reproduce these bytes.  The
entries cover every seed: the grid digests are per cylinder pair over all
16 cylinders a seed can draw, and the catalog digests are per realizable
target (any other target must report "not found").
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import workloads as w
from cfspectra import groups, koopman


def entry(op: w.Op) -> dict:
    return {"rc": op.rc, **{name: w.digest(value) for name, value in op.outputs.items()}}


def record(ops: list[w.Op]) -> dict:
    out: dict = {}
    for op in ops:
        out.setdefault(op.kind, {})[op.key] = entry(op)
    return out


def main() -> None:
    ref: dict = {}
    t = w.grid_tower()
    rows = koopman.residual_grid(t, list(groups.all_characters(t.group)), w.grid_all_cylinders())
    pairs = {f"pair {k}": w.sha256_text(v) for k, v in sorted(w.grid_pair_texts(rows).items())}
    ref["grid-inmem"] = {"residual_grid": {"": {"rc": 0, **pairs}}}

    workdir = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir="."))
    try:
        state = w.setup_parsed(0, workdir)
        ref["cli-parsed"] = record(state["setup_ops"] + w.run_parsed(state))
        ref["deep-build"] = record(w.run_deep(w.setup_deep(0, workdir)))
    finally:
        shutil.rmtree(workdir)

    realizable = w.realizable_targets(w.CATALOG_BOUND)
    ops = [w.Op("realizable", 0.0, 0, {"realizable": ";".join(w.target_key(E) for E in realizable)})]
    ops += [w.Op("catalog", 0.0, 0, {"record": w.catalog_record(E, w.CATALOG_BOUND)}, key=w.target_key(E))
            for E in realizable]
    for k in w.SPECTRA_KS:
        rc, text, _ = w.run_cli(["spectra", "--k", str(k), "--d", str(w.SPECTRA_D)])
        ops.append(w.Op("spectra", 0.0, rc, {"table": text}, key=f"k={k}"))
    ref["desk-queries"] = record(ops)

    bad = [op for wl in ref.values() for kind in wl.values() for op in kind.values() if op["rc"] != 0]
    if bad:
        raise SystemExit(f"{len(bad)} reference operations exited non-zero; not writing")
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
