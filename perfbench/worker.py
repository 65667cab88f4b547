"""Run one workload in this (fresh) interpreter; print its raw result.

``run.py`` starts this script once per measurement, so set-up time and
peak memory belong to this workload alone.  The last line of standard
output is one JSON object; ``run.py`` turns it into metrics.

    python3 perfbench/worker.py --workload gids-train --seed 0 \
        --seconds 10 --t0 <time.monotonic() at spawn> [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Set up, drive rounds for ``args.seconds``, check; return the result."""
    recorder = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        recorder.install()
        recorder.record("bench.startup", args.t0, time.monotonic())

    def phase(name):
        return recorder.phase(name) if recorder else nullcontext()

    with phase("bench.setup"):
        workload = WORKLOADS[args.workload](args.seed, args.tiny)
    first_op = time.monotonic()
    result = {"setup_s": first_op - args.t0}
    if args.setup_only:
        result["peak_rss_mb"] = _peak_rss_mb()
        return result
    if recorder:
        workload.begin_op = recorder.next_op

    reference_rounds: list[dict] = []
    errors: list[str] = []
    ops = failed = 0
    belady_accesses = 0
    index = 0
    while True:
        try:
            produced = workload.round(index)
        except Exception:  # a raising op is a failed op, not a crash
            errors.append(f"round {index} raised:\n{traceback.format_exc()}")
            ops += 1
            failed += 1
            break
        with phase("bench.check"):
            modeled = checks.normalize(produced.modeled)
            broken = checks.conservation_errors(workload, index, modeled)
            replays = getattr(workload, "replays_round0", False)
            if replays and index >= workload.min_rounds:
                diff = checks.first_difference(reference_rounds[0], modeled)
                if diff is not None:
                    broken.append(f"replay differs from round 0 at {diff}")
            if "ginex" in modeled:
                ginex = modeled["ginex"]
                belady_accesses += ginex["belady_hits"] + ginex["belady_misses"]
        ops += produced.ops
        if broken:
            errors += [f"round {index}: {e}" for e in broken]
            failed += produced.ops
        if index < workload.min_rounds:
            reference_rounds.append(modeled)
        index += 1
        if (
            index >= workload.min_rounds
            and time.monotonic() - first_op >= args.seconds
        ):
            break
    measured_s = time.monotonic() - first_op

    with phase("bench.check"):
        if len(reference_rounds) == workload.min_rounds:
            mismatch = _check_reference(args, reference_rounds)
            if mismatch:
                errors.append(mismatch)
                failed = ops
            per_op_ms, counters = summary.summarize(
                args.workload, reference_rounds
            )
        else:
            per_op_ms, counters = 0.0, dict.fromkeys(summary.COUNTERS, 0)

    result.update(
        measured_s=measured_s,
        ops=ops,
        failed=failed,
        errors=errors,
        peak_rss_mb=_peak_rss_mb(),
        modeled_ms_per_op=per_op_ms,
        counters=counters,
        belady_accesses=belady_accesses,
    )
    if recorder:
        recorder.uninstall()
        with phase("bench.export"):
            OUT_DIR.mkdir(exist_ok=True)
            recorder.write(
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            )
        wall_s = time.monotonic() - args.t0
        result.update(
            wall_s=wall_s,
            layers=recorder.layer_totals(),
            unattributed_s=wall_s - recorder.top_level_s(),
        )
    return result


def _check_reference(args, rounds: list[dict]) -> str | None:
    """Compare with (or write) the committed reference at the default seed."""
    if args.tiny or args.seed != checks.DEFAULT_SEED:
        return None
    if args.write_reference:
        checks.write_reference(args.workload, args.seed, rounds)
        return None
    try:
        reference = checks.load_reference(args.workload)
    except FileNotFoundError:
        return f"no committed reference for {args.workload}"
    diff = checks.first_difference(reference["rounds"], rounds, "rounds")
    if diff is not None:
        return f"modeled outputs differ from the reference: {diff}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
