"""The repository's benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload gids-train --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (host and modeled
clock); with ``--trace 1`` the per-layer metrics from a traced run, plus
the tracing overhead against an untraced run of the same seed.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = (
    "gids-train", "cpu-baselines", "serve-degraded", "fullgraph-spill",
)
#: Fresh processes that each build the workload; ``setup_s`` is their
#: median.  The extra builds run half before and half after the measuring
#: process, so the samples span the run rather than one moment of a shared
#: machine.  An IGB-Full build takes ~11 s, so the IGB-Full workloads
#: build once and spend the time on longer measured phases instead.
SETUP_REPEATS = {
    "gids-train": 1,
    "cpu-baselines": 1,
    "serve-degraded": 9,
    "fullgraph-spill": 9,
}
#: The whole call must end within this many seconds.
BUDGET_S = 175.0
#: One BLAS thread, so host time and the full-graph numerics (the loss is
#: part of the reference) do not depend on the machine's core count.
WORKER_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, *flags: str, deadline: float) -> dict:
    """Run one worker process to completion; return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time budget exhausted before a worker started")
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *flags,
        "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=WORKER_ENV, capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed and reaped the worker.
        raise BenchmarkError(f"worker exceeded the time budget: {exc}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    extra = ["--tiny"] if args.tiny else []

    def setup_only() -> float:
        return _worker(args, "--setup-only", *extra, deadline=deadline)[
            "setup_s"
        ]

    extra_builds = SETUP_REPEATS[args.workload] - 1
    setups = [setup_only() for _ in range(extra_builds // 2)]
    flags = ["--write-reference"] if args.write_reference else []
    run = _worker(args, *extra, *flags, deadline=deadline)
    setups.append(run["setup_s"])
    setups += [setup_only() for _ in range(extra_builds - extra_builds // 2)]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        "modeled_ms_per_op": _metric(run["modeled_ms_per_op"], "ms"),
    }
    return metrics, [run]


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    extra = ["--tiny"] if args.tiny else []
    plain = _worker(args, *extra, deadline=deadline)
    traced = _worker(args, "--trace", *extra, deadline=deadline)
    modeled = ("counters", "modeled_ms_per_op")
    if any(plain[key] != traced[key] for key in modeled):
        traced["errors"].append("the traced run modeled differently")
    # Host throughput swings with a shared machine's speed by more than
    # any end-to-end bound allows, so it is reported here, from the
    # untraced run, without a bound.
    metrics = {
        "sim_ops_per_s": _metric(plain["ops"] / plain["measured_s"], "ops/s"),
    }
    for layer, totals in traced["layers"].items():
        metrics[f"{layer}.calls"] = _metric(totals["calls"], "count")
        metrics[f"{layer}.self_s"] = _metric(totals["self_s"], "s")
    belady_self_s = traced["layers"]["cache.belady"]["self_s"]
    metrics["cache.belady.self_us_per_access"] = _metric(
        1e6 * belady_self_s / traced["belady_accesses"]
        if traced["belady_accesses"] else 0.0,
        "us",
    )
    for name, unit in summary.COUNTERS.items():
        metrics[name] = _metric(traced["counters"][name], unit)
    per_op = [r["measured_s"] / r["ops"] for r in (plain, traced)]
    metrics["trace.overhead_ratio"] = _metric(per_op[1] / per_op[0], "ratio")
    metrics["trace.unattributed_s"] = _metric(traced["unattributed_s"], "s")
    metrics["trace.wall_s"] = _metric(traced["wall_s"], "s")
    return metrics, [plain, traced]


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's modeled outputs as the committed reference "
        "(default seed only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, runs = per_layer(args, deadline)
        else:
            metrics, runs = end_to_end(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = [e for r in runs for e in r["errors"]]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
