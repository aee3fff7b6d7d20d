"""cfspectra benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client is closed-loop with one thread: each pass is a fresh worker
process (``worker.py``) that imports cfspectra, does the workload's set-up
and then its timed phase, one call after another.  Passes start until
``--seconds`` have gone by, so the last one may run past it.  Set-up is
measured in at least three fresh processes (extra set-up-only workers when
fewer passes ran) and reported as the median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, with the
tracing overhead.  The line before the last is a JSON record with the
per-subcommand times, latencies, output sizes and the environment; the last
line is the result.  All measurement is in-process (``time.perf_counter``,
``resource.getrusage``); nothing machine-wide is traced.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170            # every run, first build included, ends before this
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MEASUREMENT = ("in-process only: time.perf_counter and resource.getrusage in each worker; "
               "nothing machine-wide is traced")


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, workdir: Path, deadline: float,
               spans: Path | None = None) -> dict:
    result = workdir / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", str(workdir), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(result.read_text())


def tail_latency(samples_ms: list[float]) -> tuple[float, float]:
    """The highest of a few fixed percentiles with at least ten samples beyond it."""
    xs = sorted(samples_ms)
    n = len(xs)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 100.0, xs[-1]


def phase_times(passes: list[dict]) -> dict:
    """Per-subcommand wall times, residual throughput and query latencies."""
    out: dict = {}
    kinds = sorted({op["kind"] for p in passes for op in p["ops"]})
    for kind in kinds:
        out[f"{kind}_s"] = statistics.median(
            sum(op["seconds"] for op in p["ops"] if op["kind"] == kind) for p in passes)
    rates = [op["rows"] / op["seconds"] for p in passes for op in p["ops"] if op["rows"]]
    if rates:
        out["rows_per_s"] = statistics.median(rates)
    # latencies per pass, so the tail percentile depends only on the stream length
    per_pass = [[op["seconds"] * 1000 for op in p["ops"] if op["kind"] in ("catalog", "spectra")]
                for p in passes]
    if per_pass[0]:
        tails = [tail_latency(q) for q in per_pass]
        out.update(query_p50_ms=statistics.median(statistics.median(q) for q in per_pass),
                   query_tail_ms=statistics.median(t for _, t in tails),
                   query_tail_percentile=tails[0][0], query_samples=len(per_pass[0]))
    return out


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "blas_pin": BLAS_PIN, "src_lines": src_lines, "measurement": MEASUREMENT}


def measure(workload: str, seed: int, seconds: int, workdir: Path,
            deadline: float) -> tuple[dict, list, dict]:
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() < start + seconds:
        passes.append(run_worker(workload, seed, "pass", workdir, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup", workdir, deadline)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {"passes": len(passes), "setup_samples": setups, **phase_times(passes),
              "tower_bytes": max(p["tower_bytes"] for p in passes)}
    return metrics, passes, detail


def trace(workload: str, seed: int, workdir: Path, deadline: float) -> tuple[dict, list, dict]:
    plain = run_worker(workload, seed, "pass", workdir, deadline)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    traced = run_worker(workload, seed, "trace", workdir, deadline, spans)
    metrics = dict(traced["layers"])
    metrics.update({
        "trace.untraced_wall_s": plain["wall_s"],
        "trace.traced_wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.spans": traced["spans"],
    })
    return metrics, [plain, traced], {"spans_file": str(spans.relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cfspectra" / "__init__.py").exists():
        print("perfbench: no cfspectra sources under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, passes, detail = trace(args.workload, args.seed, workdir, deadline)
        else:
            values, passes, detail = measure(args.workload, args.seed, args.seconds, workdir, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_ratio=failed / attempted,
                  mismatches=[m for p in passes for m in p["mismatches"]][:20],
                  env=environment())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
