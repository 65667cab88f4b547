"""Modeled metrics of a run, computed from its reference-scope rounds.

Only the first ``min_rounds`` rounds feed these numbers, so they are
deterministic for a seed and equal between traced and untraced runs.
Ratios come with their base (``cache.gpu.hit_ratio`` with
``cache.gpu.requests`` and so on).  Metrics of a layer a workload does not
use are 0: that is the benchmark's prediction for it.
"""

from __future__ import annotations

TRAINING_LOADERS = ("gids", "bam", "ginex", "mmap")
#: The serving workload's fixed offered rates, in req/s.
SERVE_RATES = (2000, 3500, 5000)
STAGE_NAMES = ("sampling", "aggregation", "transfer", "training")

#: Per-layer modeled counters: name -> unit.
COUNTERS = {
    **{f"{k}_modeled_ms_per_iter": "ms" for k in TRAINING_LOADERS},
    **{
        f"loader.{k}.stage.{s}.modeled_s": "s"
        for k in TRAINING_LOADERS
        for s in STAGE_NAMES
    },
    "cache.gpu.requests": "count",
    "cache.gpu.hit_ratio": "ratio",
    "cache.cpu_buffer.redirect_fraction": "ratio",
    "storage.requests": "count",
    "storage.bytes": "B",
    "cache.belady.accesses": "count",
    "cache.belady.hit_ratio": "ratio",
    "cache.belady.resident_pages": "count",
    "cache.belady.capacity_pages": "count",
    "sim.pagecache.accesses": "count",
    "sim.pagecache.hit_ratio": "ratio",
    "faults.retries": "count",
    "faults.fallback_requests": "count",
    "storage_ha.replica_redirects": "count",
    "storage_ha.rebuild_pages": "count",
    "serving.offered": "count",
    "serving.shed": "count",
    "serving.unserved": "count",
    "serving.hedged_issued": "count",
    "serving.hedged_won": "count",
    "serving.latency_samples": "count",
    "serve_p50_modeled_ms": "ms",
    "serve_p99_modeled_ms": "ms",
    "serve_max_rate_rps": "req/s",
    **{
        f"serving.rate_{rate}.{name}": unit
        for rate in SERVE_RATES
        for name, unit in (
            ("latency_samples", "count"),
            ("p50_modeled_ms", "ms"),
            ("p99_modeled_ms", "ms"),
        )
    },
    "fullgraph_epoch_modeled_s": "s",
    "fullgraph.spill_pages_written": "count",
    "fullgraph.spill_pages_read": "count",
}


#: Serving ledger outcomes of a request that was not served within its
#: deadline.  The server sheds, rejects and expires requests by design when
#: it is overloaded or degraded, so these are modeled outcomes, not failed
#: operations of the benchmark.
UNSERVED_OUTCOMES = (
    "shed", "rejected_queue", "rejected_deadline", "expired", "deadline_missed",
)


def unserved_requests(ledger: dict) -> int:
    """Requests of a serving ledger that were not served within their deadline."""
    return sum(sum(ledger[name]) for name in UNSERVED_OUTCOMES)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the serving report's definition)."""
    ordered = sorted(values)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def _counter_runs(name: str, rounds: list[dict]) -> list[dict]:
    """Every ``TransferCounters`` total the rounds report."""
    if name in ("gids-train", "cpu-baselines"):
        return [run["counters"] for r in rounds for run in r.values()]
    if name == "serve-degraded":
        return [
            run["counters"]
            for r in rounds
            for run in r["runs"] + r["search"]["probes"]
        ]
    return [r["counters"] for r in rounds]


def summarize(name: str, rounds: list[dict]) -> tuple[float, dict]:
    """``(modeled_ms_per_op, per-layer counters)`` of the reference rounds."""
    out = dict.fromkeys(COUNTERS, 0)
    totals: dict[str, int] = {}
    for counters in _counter_runs(name, rounds):
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    gpu_users = ("gids", "bam") if name == "gids-train" else ()
    # ``TransferCounters`` of the runs whose requests go through the GPU cache.
    gpu_counters: list[dict] = []
    if name in ("gids-train", "cpu-baselines"):
        modeled_s = 0.0
        iterations = belady_hits = pagecache_hits = 0
        for key in rounds[0]:
            last = rounds[-1][key]
            out[f"{key}_modeled_ms_per_iter"] = (
                1e3 * last["e2e_s"] / len(last["iterations"])
            )
            for r in rounds:
                run = r[key]
                modeled_s += run["e2e_s"]
                iterations += len(run["iterations"])
                for times in run["iterations"]:
                    for stage, value in zip(STAGE_NAMES, times):
                        out[f"loader.{key}.stage.{stage}.modeled_s"] += value
                if key in gpu_users:
                    gpu_counters.append(run["counters"])
                if key == "ginex":
                    out["cache.belady.accesses"] += (
                        run["belady_hits"] + run["belady_misses"]
                    )
                    belady_hits += run["belady_hits"]
                if key == "mmap":
                    out["sim.pagecache.accesses"] += (
                        run["pagecache_hits"] + run["pagecache_misses"]
                    )
                    pagecache_hits += run["pagecache_hits"]
        if "ginex" in rounds[-1]:
            ginex = rounds[-1]["ginex"]
            out["cache.belady.resident_pages"] = ginex["belady_resident_pages"]
            out["cache.belady.capacity_pages"] = ginex["belady_capacity_pages"]
        out["cache.belady.hit_ratio"] = _ratio(
            belady_hits, out["cache.belady.accesses"]
        )
        out["sim.pagecache.hit_ratio"] = _ratio(
            pagecache_hits, out["sim.pagecache.accesses"]
        )
        per_op_ms = 1e3 * modeled_s / iterations
    elif name == "serve-degraded":
        runs = [run for r in rounds for run in r["runs"]]
        latencies = [x for run in runs for x in run["latencies"]]
        for run in runs:
            gpu_counters.append(run["counters"])
            out["serving.offered"] += sum(run["ledger"]["offered"])
            out["serving.shed"] += sum(run["ledger"]["shed"])
            out["serving.unserved"] += unserved_requests(run["ledger"])
            out["serving.hedged_issued"] += run["hedge"]["issued"]
            out["serving.hedged_won"] += run["hedge"]["won"]
        for run in rounds[0]["runs"]:
            prefix = f"serving.rate_{int(run['rate'])}"
            out[f"{prefix}.latency_samples"] = len(run["latencies"])
            if run["latencies"]:
                out[f"{prefix}.p50_modeled_ms"] = (
                    1e3 * percentile(run["latencies"], 50)
                )
                out[f"{prefix}.p99_modeled_ms"] = (
                    1e3 * percentile(run["latencies"], 99)
                )
        out["serving.latency_samples"] = len(latencies)
        if latencies:
            out["serve_p50_modeled_ms"] = 1e3 * percentile(latencies, 50)
            out["serve_p99_modeled_ms"] = 1e3 * percentile(latencies, 99)
        out["serve_max_rate_rps"] = rounds[0]["search"]["max_rate_rps"]
        # Modeled service time per completed request: the serving analogue
        # of a training iteration's modeled time (queueing excluded; the
        # latency percentiles above include it).
        completed = sum(sum(run["ledger"]["completed"]) for run in runs)
        per_op_ms = 1e3 * sum(run["busy_s"] for run in runs) / completed
    else:
        epochs = [r["epoch_e2e_s"] for r in rounds]
        steps = sum(len(r["iterations"]) for r in rounds)
        out["fullgraph_epoch_modeled_s"] = sum(epochs) / len(epochs)
        traffic = rounds[-1]["traffic"]
        out["fullgraph.spill_pages_written"] = traffic["spill_pages"]
        out["fullgraph.spill_pages_read"] = traffic["reload_pages"]
        per_op_ms = 1e3 * sum(epochs) / steps
    gpu_requests = sum(
        c["gpu_cache_hits"] + c["cpu_buffer_requests"]
        + c["storage_requests"] + c["fallback_requests"]
        for c in gpu_counters
    )
    gpu_hits = sum(c["gpu_cache_hits"] for c in gpu_counters)
    cpu_buffer = sum(c["cpu_buffer_requests"] for c in gpu_counters)
    out["cache.gpu.requests"] = gpu_requests
    out["cache.gpu.hit_ratio"] = _ratio(gpu_hits, gpu_requests)
    out["cache.cpu_buffer.redirect_fraction"] = _ratio(cpu_buffer, gpu_requests)
    out["storage.requests"] = totals.get("storage_requests", 0)
    out["storage.bytes"] = totals.get("storage_bytes", 0)
    out["faults.retries"] = totals.get("storage_retries", 0)
    out["faults.fallback_requests"] = totals.get("fallback_requests", 0)
    out["storage_ha.replica_redirects"] = totals.get("replica_redirects", 0)
    out["storage_ha.rebuild_pages"] = totals.get("rebuild_pages", 0)
    return per_op_ms, out
