"""subembed benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {verify-1875|invariants-lattice|query-mix}
        [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs in a fresh interpreter (``worker.py``), because the
library keeps per-group caches on the module-level corpus groups for the life
of the process. With ``--trace 0`` the script repeats the workload while
another repetition fits in ``--seconds`` (at least once), adds set-up-only
repetitions, and prints the end-to-end metrics. With ``--trace 1`` it runs
the workload once untraced and once traced and prints the per-layer
metrics. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; the script exits with
status 2 and prints no result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPS = 6  # extra set-up-only interpreters per untraced run
BUDGET_S = 170.0  # the whole run ends within this, whatever --seconds says


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict | None:
    """Run one worker; its result with ``setup_s`` added, or None on failure."""
    cmd = [sys.executable, str(WORKER), str(ROOT), workload, str(seed), mode]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload} {mode}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload} {mode}: exit {proc.returncode}\n{stderr}", file=sys.stderr)
        return None
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - started
    return result


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_notes(latencies_ms) -> dict:
    """Per-query latency (``query-mix`` only): median and p99 with the
    sample count; 0 when the workload has no queries."""
    if not latencies_ms:
        return {"query_p50_ms": 0.0, "query_p99_ms": 0.0, "latency_samples": 0}
    return {
        "query_p50_ms": quantile(latencies_ms, 0.50),
        "query_p99_ms": quantile(latencies_ms, 0.99),
        "latency_samples": len(latencies_ms),
    }


def untraced(name: str, seed: int, seconds: int, deadline: float):
    workload = WORKLOADS[name]
    # set-up-only interpreters before and after the repetitions, so their
    # median spans the run as the repetitions do
    setups = [spawn(name, seed, "setup", deadline) for _ in range(SETUP_REPS // 2)]
    stop = min(time.monotonic() + seconds, deadline)
    reps = []
    while True:
        started = time.monotonic()
        rep = spawn(name, seed, "run", deadline)
        if rep is None:
            break
        reps.append(rep)
        # start another repetition only if one as long as this fits
        if 2 * time.monotonic() - started > stop:
            break
    lost = int(rep is None)
    if not reps:
        return None
    setups += [spawn(name, seed, "setup", deadline) for _ in range(SETUP_REPS - len(setups))]
    setups = [s for s in setups if s is not None]
    attempted = sum(r["ops"] for r in reps) + lost * workload.nominal_ops
    failed = sum(r["failed"] for r in reps) + lost * workload.nominal_ops
    latencies = [x for r in reps for x in r["latencies_ms"]]
    metrics = {
        "wall_ref_s": (statistics.median(r["wall_ref_s"] for r in reps), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps + setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    notes = {
        "reps": len(reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "rep_wall_s": [round(r["wall_s"], 4) for r in reps],
        "rep_wall_ref_s": [round(r["wall_ref_s"], 4) for r in reps],
        "ref_loops": sum(r["ref_loops"] for r in reps),
        "lost_reps": lost,
        "setup_samples": len(reps) + len(setups),
        "ops": attempted,
        "failed_ratio": failed / attempted if attempted else 1.0,
        **latency_notes(latencies),
    }
    return attempted, failed, metrics, notes


def traced(name: str, seed: int, deadline: float):
    base = spawn(name, seed, "run", deadline)
    rep = spawn(name, seed, "traced", deadline)
    if base is None or rep is None:
        return None
    attempted = base["ops"] + rep["ops"]
    failed = base["failed"] + rep["failed"]
    metrics = {k: (v, unit) for k, (v, unit) in rep["layers"].items()}
    base_latency = latency_notes(base["latencies_ms"])
    metrics["query.p50_ms"] = (base_latency["query_p50_ms"], "ms")
    metrics["query.p99_ms"] = (base_latency["query_p99_ms"], "ms")
    metrics["query.repeat_share"] = (rep["repeat_share"], "ratio")
    metrics["trace.overhead_ratio"] = (rep["wall_s"] / base["wall_s"], "ratio")
    metrics["run.wall_s"] = (base["wall_s"], "s")
    notes = {
        "untraced_wall_s": base["wall_s"],
        "latency_samples": base_latency["latency_samples"],
        "traced_wall_s": rep["wall_s"],
        "distinct_inputs": rep["distinct"],
        "spans_file": rep["spans"],
        "ops": attempted,
        "failed_ratio": failed / attempted if attempted else 1.0,
    }
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subembed" / "__init__.py").is_file():
        print(f"no subembed source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        outcome = traced(args.workload, args.seed, deadline)
    else:
        outcome = untraced(args.workload, args.seed, args.seconds, deadline)
    if outcome is None:
        print(f"{args.workload}: no repetition completed", file=sys.stderr)
        return 1
    attempted, failed, metrics, notes = outcome

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
