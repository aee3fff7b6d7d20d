#!/usr/bin/env python3
"""Build the {2}-target desk tower and print its weak-limit residual curves.

Usage: python scripts/residual_curves.py [depth] [out.csv]

Prints, per scheduled step, the worst certified residual over the fixed
cylinder family for each limit kind, and optionally writes the full grid
as CSV (same format as `cfspectra weaklimits`).
"""

import sys
from pathlib import Path

from cfspectra.experiment import ExperimentConfig, build_tower
from cfspectra.koopman import (
    cylinder_family,
    residual_csv,
    residual_grid,
    tail_shift_residual,
    weak_limit_residual_even,
    weak_limit_residual_stagger,
)


def main():
    depth = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    tower, spec, _ = build_tower(ExperimentConfig(E={2}, depth=depth))
    chars = spec.fiber_characters
    family = cylinder_family(tower, max_level=2)

    def grid_max(fn):
        return max(fn(A, B) for _, A in family for _, B in family)

    print(f"depth {depth}, label group {spec.label_group}, {len(family)} cylinders")
    for lvl in tower.levels:
        if lvl.step is None:
            continue
        n, tag = lvl.step, lvl.tag
        if tag.k == 0:
            worst = grid_max(lambda A, B: max(
                weak_limit_residual_even(tower, chi, tag.el, A, B, n) for chi in chars))
            kind = "even   "
        else:
            worst = grid_max(lambda A, B: max(
                weak_limit_residual_stagger(tower, chi, tag.el, tag.k, A, B, n)
                for chi in chars))
            kind = "stagger"
        tail = grid_max(lambda A, B: tail_shift_residual(tower, A, B, n))
        print(f"step {n:2d} [{kind}]  limit residual {float(worst):10.3e}   "
              f"tail-shift residual {float(tail):10.3e}")

    if len(sys.argv) > 2:
        rows = residual_grid(tower, chars, family)
        out = Path(sys.argv[2])
        out.write_text(residual_csv(rows))
        print(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
