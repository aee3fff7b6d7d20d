"""One pass of one workload in a fresh process: set-up, timed phase, output check.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|setup|trace \
        --workdir DIR --result FILE [--spans FILE]

``setup`` stops after the set-up; ``trace`` installs the tracer before the
set-up and reports per-layer metrics.  The result is one JSON document.
All timing is in-process: ``time.perf_counter`` and ``resource.getrusage``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import workloads

    tracer = None
    call = lambda name, fn, *fn_args: fn(*fn_args)   # noqa: E731
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.call
    setup, run = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    state = call("bench.setup", setup, args.seed, args.workdir)
    setup_s = time.perf_counter() - T_START
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "setup_s": setup_s}
    if args.mode != "setup":
        t0 = time.perf_counter()
        ops = call("bench.timed", run, state)
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = state.get("setup_ops", []) + ops
        reference = workloads.load_reference()[args.workload]
        bad = [workloads.mismatches(reference, op) for op in checked]
        towers = [op.outputs["tower"] for op in checked if "tower" in op.outputs]
        result.update(
            wall_s=wall_s,
            peak_rss_mb=peak_rss_mb,
            attempted=len(checked),
            failed=sum(1 for msgs in bad if msgs),
            mismatches=[msg for msgs in bad for msg in msgs][:20],
            ops=[{"kind": op.kind, "key": op.key, "seconds": op.seconds, "rc": op.rc,
                  "rows": workloads.rows_of(op)} for op in ops],
            tower_bytes=max((p.stat().st_size for p in towers if p.exists()), default=0),
        )
    if tracer is not None:
        tracer.finish()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
