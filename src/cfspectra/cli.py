"""Command-line front end: build towers, verify artifacts, emit report tables.

Exit codes: 0 on success, 1 on verification failure, 2 on configuration or
input/output errors.  Outputs are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .cocycle import Cocycle, TailShift, check_coboundary_condition, commutes_with_shift
from .experiment import ConfigError, ExperimentConfig, build_tower, write_artifacts
from .groups import LimitExceeded, Subgroup, all_characters, catalog_search, format_triple
from .koopman import check_grid_size, cylinder_family, residual_csv, residual_grid, skew_decomposition_check
from .recurrence import multiple_recurrence_search, return_cuts
from .spectra import (
    all_subgroups_sym,
    generic_diagonal,
    homogeneous_multiplicity_check,
    product_power_multiplicity_check,
    ratios_from_identity_mix,
    symmetric_generation_check,
    vandermonde_extraction_check,
)
from .tower import Cylinder, TowerParseError, canonical_point, parse_tower, validate_tower

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(prog="cfspectra",
                                     description="exact desk lab for labelled tower spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a tower from a target multiplicity set")
    p_build.add_argument("--config", type=Path, help="config file (key = value lines)")
    p_build.add_argument("--target", help="target set, e.g. 1,2 (alternative to --config)")
    # None when not given: they go with --target, and --config refuses them
    p_build.add_argument("--depth", type=int)
    p_build.add_argument("--bound", type=int)
    p_build.add_argument("--out")

    p_verify = sub.add_parser("verify", help="re-run all validators on a serialized tower")
    p_verify.add_argument("--tower", type=Path, required=True)

    p_weak = sub.add_parser("weaklimits", help="emit the weak-limit residual grid as CSV")
    p_weak.add_argument("--tower", type=Path, required=True)
    p_weak.add_argument("--out", type=Path, help="CSV path (default: stdout)")
    p_weak.add_argument("--max-level", type=int, default=1,
                        help="cylinder family cutoff level (default 1)")

    p_groups = sub.add_parser("groups", help="search the group catalog for target sets")
    p_groups.add_argument("--targets", required=True,
                          help="semicolon-separated sets, e.g. '1;2;1,2'")
    p_groups.add_argument("--bound", type=int, default=40)
    p_groups.add_argument("--out", type=Path, help="catalog file (default: stdout)")

    p_spec = sub.add_parser("spectra", help="finite unitary multiplicity tables")
    p_spec.add_argument("--k", type=int, default=2)
    p_spec.add_argument("--d", type=int, default=5)

    p_recur = sub.add_parser("recur", help="return-cut densities and recurrence search")
    p_recur.add_argument("--tower", type=Path, required=True)
    p_recur.add_argument("--kmax", type=int, default=800)
    p_recur.add_argument("--depth", type=int, default=4)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LimitExceeded as exc:
        print(f"limit error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TowerParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(args) -> int:
    return {
        "build": cmd_build,
        "verify": cmd_verify,
        "weaklimits": cmd_weaklimits,
        "groups": cmd_groups,
        "spectra": cmd_spectra,
        "recur": cmd_recur,
    }[args.command](args)


def cmd_build(args) -> int:
    given = {key: val for key in ("target", "depth", "bound", "out")
             if (val := getattr(args, key)) is not None}
    if args.config:
        if given:
            raise ConfigError("--config cannot be combined with "
                              + ", ".join(f"--{key}" for key in given))
        config = ExperimentConfig.from_text(args.config.read_text())
    elif args.target:
        # the ExperimentConfig defaults apply to what is not given
        config = ExperimentConfig(E=frozenset(int(x) for x in given.pop("target").split(",")), **given)
    else:
        raise ConfigError("build needs --config or --target")
    tower, spec, schedule = build_tower(config)
    report = validate_tower(tower)
    if not report.passed:
        print(report.render(), file=sys.stderr)
        return EXIT_VERIFY
    paths = write_artifacts(config, tower, spec)
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    print(f"depth {tower.depth}, label group {spec.label_group}, "
          f"schedule cycle {len(schedule)} tags")
    return EXIT_OK


def _read_tower(path: Path):
    """The tower in the file at ``path``, parsed as it is read.  Undecodable bytes are named by their
    offset in the file, as decoding the whole file would name them."""
    with path.open() as f:
        try:
            return parse_tower(f)
        except UnicodeDecodeError as exc:
            if not f.seekable():   # a pipe has no offset to tell
                raise
            # exc counts from the start of the bytes being decoded, which end where the file is read to
            start = f.buffer.tell() - len(exc.object) + exc.start
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if exc.end - exc.start == 1
                     else f"bytes in position {start}-{start + exc.end - exc.start - 1}")
            raise ConfigError(f"{exc.encoding!r} codec can't decode {where}: {exc.reason}") from None


def _rung_labels_refused(report, check: str, top: int) -> bool:
    """Whether ``check``, which reads rung labels through levels 1..top, must not run: rung labels rest on
    the structural checks below, and any of them that failed there is named in one [FAIL] line instead."""
    unmet = [name for name in ("zero cut present", "stack containment")
             if any(it.name == name and not it.ok and it.level <= top for it in report.items)]
    if unmet:
        report.add(check, top, False, f"needs {' and '.join(unmet)} at levels 1..{top}")
    return bool(unmet)


def cmd_verify(args) -> int:
    tower = _read_tower(args.tower)
    report = validate_tower(tower)

    coc = Cocycle(tower)
    rng = random.Random(0)
    N = min(tower.depth, 4)
    if not _rung_labels_refused(report, "cocycle identity sampling", N):
        ident_ok = True
        for _ in range(500):
            x, y, z = (canonical_point(tower, rng.randrange(tower.h(N)), N) for _ in range(3))
            if coc.eval(x, y) + coc.eval(y, z) != coc.eval(x, z):
                ident_ok = False
        report.add("cocycle identity sampling", N, ident_ok)

    ts = TailShift(tower)
    comm_ok = True
    for _ in range(500):
        p = canonical_point(tower, rng.randrange(tower.h(N)), N)
        res = commutes_with_shift(ts, p)
        if res is False:
            comm_ok = False
    report.add("tail-shift commutation sampling", N, comm_ok)

    cob = check_coboundary_condition(tower)
    report.add("coboundary partial sums bounded", tower.depth, cob.total < 1,
               f"total {cob.total}")
    for n, term in zip(cob.levels, cob.terms):
        lvl = tower.level(n)
        if lvl.step is not None:
            report.add("coboundary term exact", n, term == Fraction(1, lvl.step**2),
                       f"{term} vs 1/{lvl.step}^2")

    if tower.group.order > 1 and tower.depth >= 3 and not _rung_labels_refused(report, "skew decomposition", 3):
        K = tower.group
        for H in [Subgroup(K, [K.element_from_index(i) for i in range(1, K.order)]), Subgroup(K, [])]:
            dec = skew_decomposition_check(tower, H, min(tower.depth, 3), 1)
            report.items.extend(dec.items)

    failures = report.failures()
    for it in report.items:
        status = "ok" if it.ok else "FAIL"
        print(f"[{status}] level {it.level}: {it.name}" + (f" ({it.detail})" if it.detail else ""))
    if failures:
        print(f"{len(failures)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_weaklimits(args) -> int:
    tower = _read_tower(args.tower)
    chars = list(all_characters(tower.group))
    check_grid_size(tower, len(chars), args.max_level)
    fam = cylinder_family(tower, max_level=args.max_level)
    rows = residual_grid(tower, chars, fam)
    text = residual_csv(rows)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_groups(args) -> int:
    records = []
    for chunk in args.targets.split(";"):
        target = frozenset(int(x) for x in chunk.split(","))
        rec = catalog_search(target, args.bound)
        if rec is None:
            print(f"target {sorted(target)}: not found within order {args.bound}",
                  file=sys.stderr)
            return EXIT_VERIFY
        records.append(rec)
    lines = ["# cfspectra catalog format 1"]
    for rec in records:
        lines.append("")
        lines.append("E = " + ",".join(map(str, sorted(rec.target))))
        lines.append(format_triple(rec.group, rec.subgroup, rec.automorphism))
        lines.append(f"verified = {str(rec.verified).lower()}")
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(rec.verified for rec in records) else EXIT_VERIFY


def cmd_spectra(args) -> int:
    k, d = args.k, args.d
    # both calls validate k and d, and refuse past the guards, before any line is printed
    subgroups = all_subgroups_sym(k)
    V = generic_diagonal(d, k)
    if d < k:
        raise ConfigError(f"dimension d = {d} is below the power k = {k}: the free spectrum is empty")
    ok = True
    print(f"homogeneous multiplicity table, d = {d}, k = {k}")
    for gamma in subgroups:
        rep = homogeneous_multiplicity_check(V, k, gamma)
        ok &= rep.passed
        print(f"  subgroup order {gamma.order}: expected multiplicity "
              f"{math.factorial(k) // gamma.order}: {'pass' if rep.passed else 'FAIL'}")
    rep = product_power_multiplicity_check(V, k)
    ok &= rep.passed
    print(f"product-power constancy k = {k}: {'pass' if rep.passed else 'FAIL'}")
    rep = symmetric_generation_check(k, k + 2)
    ok &= rep.passed
    print(f"symmetric generation: {'pass' if rep.passed else 'FAIL'}")
    rep = vandermonde_extraction_check(ratios_from_identity_mix(max(1, k - 1)))
    ok &= rep.passed
    print(f"extraction system invertible: {'pass' if rep.passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_recur(args) -> int:
    tower = _read_tower(args.tower)
    depth = min(args.depth, tower.depth)
    found = multiple_recurrence_search(tower, Cylinder(1, (0,)), 2, args.kmax, depth)
    ok = True
    for n in tower.stagger_steps(k=1):
        rc = return_cuts(tower, n)
        status = "pass" if rc.certified else "FAIL"
        ok &= rc.certified
        print(f"step {n}: return densities {rc.density_even}, {rc.density_odd} "
              f">= 1/3: {status}")
    if found:
        k, mass = found
        print(f"triple recurrence at depth {depth}: k = {k}, mass = {mass}")
    else:
        print(f"triple recurrence at depth {depth}: not found up to {args.kmax} "
              "(truncation statement)")
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
