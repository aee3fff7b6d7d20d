"""The four benchmark workloads: seeded input generation, set-up, timed phase, output checks.

Each workload is a pair of functions.  ``setup(seed, workdir)`` builds what
the timed phase only reads (catalog resolution, input towers, the
realizable-target table) and draws the seeded inputs.  ``run(state)`` is
the timed phase: the calls a desk user makes, one after another from a
single thread, each into ``cfspectra.cli.main(argv)`` or a public module
function.  It returns ``Op`` records whose outputs are checked against the
reference digests after the timer stops.

Module objects are looked up at call time (``koopman.residual_grid``, not a
name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from cfspectra import cli, experiment, groups, koopman, tower

GRID_TARGET = frozenset({8})      # Z3 x Z3 label group, 9 characters
GRID_DEPTH = 10
PARSED_TARGET = "2"
PARSED_DEPTH = 12
DEEP_TARGET = "1,2"
DEEP_DEPTH = 24
CATALOG_BOUND = 15                # order 16 (Z2^4, 20,160 automorphisms) is left out
SPECTRA_D = 5                     # the CLI default; k = 4 with d = 3 fails its check
SPECTRA_KS = (2, 3, 4)
DESK_ROUNDS = 5                   # each round: every realizable target once,
DESK_UNREALIZABLE_PER_ROUND = 6   # six unrealizable sweeps, one table per k

SEED_HEIGHTS = {1: 3, 2: 12}     # heights of the two hand-seeded levels of every tower
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Op:
    """One call into the program, its wall time, and what it produced."""

    kind: str
    seconds: float
    rc: int = 0
    outputs: dict = field(default_factory=dict)   # artifact name -> text or Path
    key: str = ""                                 # reference key for per-query checks
    rows: int = 0                                 # certified residual rows produced


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Call ``cli.main(argv)`` with stdout captured; return (rc, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- grid-inmem -------------------------------------------------------------------


def grid_family(seed: int) -> list[tuple[str, tower.Cylinder]]:
    """X0, one level-1 rung and two distinct level-2 rungs, drawn by the seed.

    The level mix is fixed so that every seed propagates the same
    (depth, shift, base level) set and only the rungs themselves vary.
    """
    rng = _rng("grid-inmem", seed)
    f1 = rng.randrange(SEED_HEIGHTS[1])
    f2a, f2b = sorted(rng.sample(range(SEED_HEIGHTS[2]), 2))
    return [("X0", tower.Cylinder(0, (0,))),
            (f"1:{f1}", tower.Cylinder.single(1, f1)),
            (f"2:{f2a}", tower.Cylinder.single(2, f2a)),
            (f"2:{f2b}", tower.Cylinder.single(2, f2b))]


def grid_all_cylinders() -> list[tuple[str, tower.Cylinder]]:
    """Every cylinder a seed can draw: the reference grid covers all pairs of these."""
    fam = [("X0", tower.Cylinder(0, (0,)))]
    for n in (1, 2):
        fam += [(f"{n}:{f}", tower.Cylinder.single(n, f)) for f in range(SEED_HEIGHTS[n])]
    return fam


def csv_line(r) -> str:
    """One residual row, formatted the way ``cfspectra weaklimits`` writes it."""
    chi_id = "+".join(map(str, r.chi)) if r.chi else "0"
    return (f"{r.n},{r.tag},{chi_id},{r.a_id},{r.b_id},"
            f"{r.residual.numerator},{r.residual.denominator},"
            f"{r.error.numerator},{r.error.denominator}")


def grid_pair_texts(rows) -> dict[str, str]:
    """The grid's CSV lines grouped by cylinder pair, keyed 'A_id|B_id'."""
    out: dict[str, list[str]] = {}
    for r in rows:
        out.setdefault(f"{r.a_id}|{r.b_id}", []).append(csv_line(r))
    return {k: "\n".join(v) + "\n" for k, v in out.items()}


def grid_tower():
    t, _, _ = experiment.build_tower(experiment.ExperimentConfig(E=GRID_TARGET, depth=GRID_DEPTH))
    return t


def setup_grid(seed: int, workdir: Path) -> dict:
    t = grid_tower()
    return {"tower": t, "chars": list(groups.all_characters(t.group)), "family": grid_family(seed)}


def run_grid(state: dict) -> list[Op]:
    family = state["family"]
    t0 = time.perf_counter()
    rows = koopman.residual_grid(state["tower"], state["chars"], family)
    secs = time.perf_counter() - t0
    texts = grid_pair_texts(rows)
    # a pair missing from the rows checks as empty text, which never matches
    outputs = {f"pair {a}|{b}": texts.get(f"{a}|{b}", "") for a, _ in family for b, _ in family}
    return [Op("residual_grid", secs, 0, outputs, rows=len(rows))]


# -- cli-parsed ---------------------------------------------------------------------


def setup_parsed(seed: int, workdir: Path) -> dict:
    out = workdir / "parsed"
    rc, _, secs = run_cli(["build", "--target", PARSED_TARGET, "--depth", str(PARSED_DEPTH),
                           "--out", str(out)])
    return {"tower": out / "tower.txt", "csv": out / "residuals.csv",
            "setup_ops": [Op("build", secs, rc, {"tower": out / "tower.txt"})]}


def run_parsed(state: dict) -> list[Op]:
    rc, text, secs = run_cli(["verify", "--tower", str(state["tower"])])
    ops = [Op("verify", secs, rc, {"verify": text})]
    rc, _, secs = run_cli(["weaklimits", "--tower", str(state["tower"]), "--max-level", "1",
                           "--out", str(state["csv"])])
    ops.append(Op("weaklimits", secs, rc, {"csv": state["csv"]}))
    return ops


# -- deep-build ---------------------------------------------------------------------


def setup_deep(seed: int, workdir: Path) -> dict:
    return {"out": workdir / "deep"}


def run_deep(state: dict) -> list[Op]:
    out = state["out"]
    path = out / "tower.txt"
    rc, _, secs = run_cli(["build", "--target", DEEP_TARGET, "--depth", str(DEEP_DEPTH),
                           "--out", str(out)])
    ops = [Op("build", secs, rc, {"tower": path})]
    rc, text, secs = run_cli(["verify", "--tower", str(path)])
    ops.append(Op("verify", secs, rc, {"verify": text}))
    rc, text, secs = run_cli(["recur", "--tower", str(path)])
    ops.append(Op("recur", secs, rc, {"recur": text}))
    return ops


# -- desk-queries -------------------------------------------------------------------


def target_key(E) -> str:
    return ",".join(map(str, sorted(E)))


def realizable_targets(bound: int) -> list[frozenset[int]]:
    """Every multiplicity set some (G, H, v) of order <= bound realizes, sorted."""
    found = set()
    for order in range(2, bound + 1):
        for factors in groups.abelian_group_types(order):
            G = groups.FinAbGroup(factors)
            subgroups = groups.all_subgroups(G)
            for aut in groups.automorphisms(G):
                for H in subgroups:
                    E = groups.multiplicity_set(G, H, aut)
                    if E:
                        found.add(E)
    return sorted(found, key=lambda E: (len(E), sorted(E)))


def desk_stream(seed: int, realizable: list[frozenset[int]]) -> list[tuple[str, object]]:
    """The seeded query stream; the same number of each query kind for every seed.

    Every round asks for each realizable target once, sweeps six
    unrealizable targets through the whole bound and prints one spectra
    table per k; the seed draws the unrealizable targets and the order.
    """
    rng = _rng("desk-queries", seed)
    known = set(realizable)
    stream: list[tuple[str, object]] = []
    for _ in range(DESK_ROUNDS):
        stream += [("catalog", E) for E in realizable]
        for _ in range(DESK_UNREALIZABLE_PER_ROUND):
            while True:
                E = frozenset(rng.sample(range(1, 25), rng.randint(1, 3)))
                if E not in known:
                    break
            stream.append(("catalog", E))
        stream += [("spectra", k) for k in SPECTRA_KS]
    rng.shuffle(stream)
    return stream


def not_found_record(E, bound: int) -> str:
    return f"target {sorted(E)}: not found within order {bound}\n"


def catalog_record(E: frozenset[int], bound: int) -> str:
    """One catalog query answered the way ``cfspectra groups`` reports it."""
    rec = groups.catalog_search(E, bound)
    if rec is None:
        return not_found_record(E, bound)
    recount = groups.multiplicity_set_naive(rec.group, rec.subgroup, rec.automorphism)
    return ("E = " + target_key(E) + "\n"
            + groups.format_triple(rec.group, rec.subgroup, rec.automorphism) + "\n"
            + f"verified = {str(recount == E).lower()}\n")


def setup_desk(seed: int, workdir: Path) -> dict:
    realizable = realizable_targets(CATALOG_BOUND)
    return {"realizable": realizable, "stream": desk_stream(seed, realizable),
            "setup_ops": [Op("realizable", 0.0, 0,
                             {"realizable": ";".join(target_key(E) for E in realizable)})]}


def run_desk(state: dict) -> list[Op]:
    ops = []
    for kind, arg in state["stream"]:
        if kind == "catalog":
            t0 = time.perf_counter()
            text = catalog_record(arg, CATALOG_BOUND)
            ops.append(Op("catalog", time.perf_counter() - t0, 0, {"record": text},
                          key=target_key(arg)))
        else:
            rc, text, secs = run_cli(["spectra", "--k", str(arg), "--d", str(SPECTRA_D)])
            ops.append(Op("spectra", secs, rc, {"table": text}, key=f"k={arg}"))
    return ops


WORKLOADS = {
    "grid-inmem": (setup_grid, run_grid),
    "cli-parsed": (setup_parsed, run_parsed),
    "deep-build": (setup_deep, run_deep),
    "desk-queries": (setup_desk, run_desk),
}


# -- output gate --------------------------------------------------------------------


def digest(value) -> str:
    return sha256_file(value) if isinstance(value, Path) else sha256_text(value)


def reference_entry(ref: dict, op: Op) -> dict | None:
    """The recorded exit code and artifact digests one op must reproduce."""
    entry = ref.get(op.kind, {}).get(op.key)
    if entry is None and op.kind == "catalog":
        # the reference lists every realizable target, so any other one must miss
        E = [int(x) for x in op.key.split(",")]
        entry = {"rc": 0, "record": sha256_text(not_found_record(E, CATALOG_BOUND))}
    return entry


def mismatches(ref: dict, op: Op) -> list[str]:
    """Why one op's outputs differ from the reference; empty when they match."""
    entry = reference_entry(ref, op)
    label = f"{op.kind} {op.key}".strip()
    if entry is None:
        return [f"{label}: no reference entry"]
    bad = []
    if op.rc != entry["rc"]:
        bad.append(f"{label}: exit code {op.rc}, expected {entry['rc']}")
    for name, value in op.outputs.items():
        try:
            got = digest(value)
        except OSError as exc:
            bad.append(f"{label} {name}: {exc}")
            continue
        if got != entry.get(name):
            bad.append(f"{label} {name}: digest differs from the reference")
    return bad


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def rows_of(op: Op) -> int:
    """Certified residual rows an op produced: grid rows, or CSV lines past the header."""
    csv = op.outputs.get("csv")
    if isinstance(csv, Path) and csv.exists():
        with open(csv) as fh:
            return sum(1 for _ in fh) - 1
    return op.rows
