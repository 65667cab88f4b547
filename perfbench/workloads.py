"""The benchmark's four workloads.

Each workload is built once per process (that is the set-up the benchmark
times) and then driven in *rounds*.  The first ``min_rounds`` rounds are
the reference scope: their modeled outputs are deterministic for a seed and
are what the correctness gate compares.  Later rounds only fill the
requested host seconds; they add ops to the throughput figure and are
checked by the conservation laws, but never change a modeled metric.

All modeled numbers are taken from the program's own reports
(``RunReport``, ``TransferCounters``, ``ServingReport``, the full-graph
traffic block); nothing here re-derives a modeled time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.ginex import GinexLoader
from repro.baselines.mmap_loader import DGLMmapLoader
from repro.bench.workloads import get_workload
from repro.config import INTEL_OPTANE, SAMSUNG_980PRO
from repro.core.bam import BaMDataLoader
from repro.core.gids import GIDSDataLoader
from repro.faults import DeviceEvent, FaultPlan
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.pipeline.metrics import STAGES
from repro.serving import ArrivalConfig, InferenceServer, ServingConfig
from repro.sim.counters import TransferCounters
from summary import SERVE_RATES, percentile, unserved_requests

#: Why each workload is in the benchmark (``BENCHMARK.json`` repeats it).
WHY = {
    "gids-train": "IGB-Full GIDS then BaM past warmup; GPU cache and "
    "window dominate host time, Belady and page cache never run",
    "cpu-baselines": "IGB-Full Ginex then DGL-mmap run until the Belady "
    "cache is full; Belady and page cache dominate, GPU cache unused",
    "serve-degraded": "IGB-tiny open-loop serving on 2 replicated SSDs "
    "with one device dropped and recovered; sampling and HA path dominate",
    "fullgraph-spill": "IGB-tiny full-graph sweeps with activations "
    "spilled to SSD; the only workload that writes through storage",
}

#: Fields of ``TransferCounters`` summed into the per-workload totals.
_COUNTER_FIELDS = tuple(TransferCounters().state_dict())


def _stage_dict(times) -> list[float]:
    return [getattr(times, stage) for stage in STAGES]


def _counters_dict(counters: TransferCounters) -> dict:
    return {name: int(getattr(counters, name)) for name in _COUNTER_FIELDS}


def _no_op() -> None:
    pass


@dataclass
class _Round:
    """What one round produced: ops and its modeled outputs."""

    ops: int
    modeled: dict


# ----------------------------------------------------------------------
# Training loaders (gids-train, cpu-baselines)


class _TrainingWorkload:
    """Alternates fixed-size chunks of two loaders over one graph.

    A round runs ``chunks[key]`` iterations of each loader in order,
    continuing each loader's stream, so caches stay warm across rounds.
    """

    dataset_name = "IGB-Full"
    ssd = SAMSUNG_980PRO
    loader_seed = 7

    def __init__(self, seed: int, tiny: bool) -> None:
        #: Called before every op-level call into the program (a tracer
        #: uses it to give each op's spans one id).
        self.begin_op = _no_op
        scale = self.tiny_scale if tiny else None
        self.workload = get_workload(self.dataset_name, scale=scale, seed=seed)
        w = self.workload
        self.system = w.system(self.ssd, num_ssds=1)
        self.common = dict(
            batch_size=w.batch_size, fanouts=w.fanouts, seed=self.loader_seed
        )
        self.loaders = self.make_loaders()
        self.min_rounds = self.tiny_rounds if tiny else self.full_rounds
        self.chunks = self.tiny_chunks if tiny else self.full_chunks

    def make_loaders(self) -> dict:
        raise NotImplementedError

    def round(self, index: int) -> _Round:
        modeled = {}
        ops = 0
        for key, loader in self.loaders.items():
            chunk = self.chunks[key]
            warmup = self.warmups[key] if index == 0 else 0
            self.begin_op()
            report = loader.run(chunk, warmup=warmup)
            ops += chunk + warmup
            counters = report.counters
            modeled[key] = {
                "iterations": [_stage_dict(it.times) for it in report.iterations],
                "input_nodes": report.total_input_nodes,
                "e2e_s": report.e2e_time,
                "counters": _counters_dict(counters),
            }
            modeled[key].update(self.extra_state(key, loader))
        return _Round(ops, modeled)

    def extra_state(self, key: str, loader) -> dict:
        return {}

    def pages_per_node(self) -> int:
        loader = next(iter(self.loaders.values()))
        return max(1, loader.store.feature_bytes // loader.layout.page_bytes)


class GidsTrain(_TrainingWorkload):
    name = "gids-train"
    tiny_scale = 0.0002
    #: ~7 s of host time, so ``--seconds 10`` rather than the reference
    #: scope sets the length of a run.
    full_rounds, tiny_rounds = 5, 2
    full_chunks = {"gids": 100, "bam": 100}
    tiny_chunks = {"gids": 8, "bam": 8}
    #: The paper warms GIDS/BaM for 10 iterations (Section 4.1).
    warmups = {"gids": 10, "bam": 10}

    def make_loaders(self) -> dict:
        w = self.workload
        config = w.loader_config()
        return {
            "gids": GIDSDataLoader(
                w.dataset, self.system, config, hot_nodes=w.hot_nodes,
                **self.common,
            ),
            "bam": BaMDataLoader(w.dataset, self.system, config, **self.common),
        }


class CpuBaselines(_TrainingWorkload):
    """Ginex then DGL-mmap, until the Belady cache is full and beyond.

    The reference scope ends ``post_full_rounds`` rounds after the round
    in which the Belady cache first holds ``capacity_pages`` (round 13,
    within Ginex iterations 417-448, at the default scale), so the
    measured state is the steady state users reach.  Which round that is
    depends on the graph, so ``min_rounds`` is fixed only once it is seen.
    """

    name = "cpu-baselines"
    tiny_scale = 0.0002
    post_full_rounds = 1
    #: Give up (and fail the capacity check) if the cache never fills.
    full_rounds, tiny_rounds = 40, 40
    full_chunks = {"ginex": 32, "mmap": 16}
    tiny_chunks = {"ginex": 16, "mmap": 8}
    warmups = {"ginex": 0, "mmap": 0}

    def round(self, index: int) -> _Round:
        produced = super().round(index)
        ginex = produced.modeled["ginex"]
        full = ginex["belady_resident_pages"] == ginex["belady_capacity_pages"]
        if full and self.min_rounds > index + self.post_full_rounds + 1:
            self.min_rounds = index + self.post_full_rounds + 1
        return produced

    def make_loaders(self) -> dict:
        w = self.workload
        return {
            "ginex": GinexLoader(w.dataset, self.system, **self.common),
            "mmap": DGLMmapLoader(w.dataset, self.system, **self.common),
        }

    def extra_state(self, key: str, loader) -> dict:
        if key == "ginex":
            stats = loader.cache.stats
            return {
                "belady_hits": stats.hits,
                "belady_misses": stats.misses,
                "belady_resident_pages": len(loader.cache),
                "belady_capacity_pages": loader.cache.capacity_pages,
            }
        cache = loader.page_cache
        return {"pagecache_hits": cache.hits, "pagecache_misses": cache.misses}


# ----------------------------------------------------------------------
# Online serving under a device dropout (serve-degraded)


class ServeDegraded:
    """Open-loop Poisson serving at fixed rates plus a max-rate search.

    A round serves every fixed rate and bisects the highest rate meeting
    the SLO.  Later rounds replay round 0 on fresh servers, so every round
    does the same work, and their modeled outputs must equal round 0's.
    """

    name = "serve-degraded"
    #: Rounds past round 0 replay it and must reproduce it exactly.
    replays_round0 = True
    #: Offered rates below, near and above the ~3.5K req/s modeled capacity.
    rates = tuple(float(rate) for rate in SERVE_RATES)
    slo_p99_s = 0.05
    deadline_s = 0.05
    #: A rate meets the SLO when at most this share of requests is unserved.
    max_unserved_share = 0.01
    search_bounds = (500.0, 8000.0)

    def __init__(self, seed: int, tiny: bool) -> None:
        self.begin_op = _no_op
        scale = 0.05 if tiny else None
        self.seed = seed
        self.workload = get_workload("IGB-tiny", scale=scale, seed=seed)
        self.system = self.workload.system(INTEL_OPTANE, num_ssds=2)
        self.requests = 150 if tiny else 1000
        self.search_requests = 100 if tiny else 500
        self.search_steps = 3 if tiny else 7
        #: Device 1 drops mid-trace and comes back; with replication 2
        #: its pages are served by the surviving replica meanwhile.
        self.fault_plan = FaultPlan(
            seed=seed,
            device_events=(
                DeviceEvent(1, "dropout", 0.05),
                DeviceEvent(1, "recovery", 0.15),
            ),
        )
        self.min_rounds = 1
        self.servers = [self.make_server(rate) for rate in self.rates]

    def make_server(self, rate: float) -> InferenceServer:
        w = self.workload
        return InferenceServer(
            w.dataset,
            self.system,
            w.loader_config(),
            arrival=ArrivalConfig(
                rate=rate, seed=self.seed, deadline_s=self.deadline_s
            ),
            serving=ServingConfig(slo_p99_s=self.slo_p99_s),
            fanouts=w.fanouts,
            hot_nodes=w.hot_nodes,
            seed=self.seed + 1,
            fault_plan=self.fault_plan,
            replication=2,
            rebuild_iops=1e5,
        )

    def serve(self, server: InferenceServer, requests: int) -> dict:
        for _ in range(requests):
            self.begin_op()
            server.step()
        last_arrival_s = server.arrivals.state_dict()["now_s"]
        server.drain()
        report = server.report()
        stats = report.stats
        return {
            "rate": server.arrival_config.rate,
            "requests": requests,
            "ledger": stats.state_dict(),
            "latency_count": len(report.latencies),
            "latencies": list(report.latencies),
            "duration_s": report.duration_s,
            "drain_s": report.duration_s - last_arrival_s,
            "busy_s": report.busy_s,
            "stage_s": dict(report.stage_seconds),
            "counters": _counters_dict(report.counters),
            "hedge": {k: report.hedge[k] for k in ("issued", "won")},
        }

    def meets_slo(self, run: dict) -> bool:
        """p99 within the SLO, few requests unserved, and no backlog."""
        offered = sum(run["ledger"]["offered"])
        if unserved_requests(run["ledger"]) > self.max_unserved_share * offered:
            return False
        latencies = run["latencies"]
        if latencies and percentile(latencies, 99) > self.slo_p99_s:
            return False
        # Work still queued after the last arrival means a growing backlog.
        return run["drain_s"] <= self.deadline_s

    def round(self, index: int) -> _Round:
        servers = (
            self.servers
            if index == 0
            else [self.make_server(rate) for rate in self.rates]
        )
        runs = [self.serve(server, self.requests) for server in servers]
        modeled = {"runs": runs}
        ops = self.requests * len(runs)
        lo, hi = self.search_bounds
        probes = []
        for _ in range(self.search_steps):
            mid = 0.5 * (lo + hi)
            run = self.serve(self.make_server(mid), self.search_requests)
            run["meets_slo"] = self.meets_slo(run)
            # Probes keep their ledger; their latency lists would only
            # bloat the reference.
            run["latencies"] = None
            probes.append(run)
            ops += self.search_requests
            if run["meets_slo"]:
                lo = mid
            else:
                hi = mid
        modeled["search"] = {"probes": probes, "max_rate_rps": lo}
        return _Round(ops, modeled)


# ----------------------------------------------------------------------
# Full-graph training with spilled activations (fullgraph-spill)


class FullgraphSpill:
    """Partition sweeps whose activations spill to SSD; one epoch a round."""

    name = "fullgraph-spill"
    hbm_mb = 8

    def __init__(self, seed: int, tiny: bool) -> None:
        self.begin_op = _no_op
        scale = 0.02 if tiny else 0.05
        self.workload = get_workload("IGB-tiny", scale=scale, seed=seed)
        self.system = self.workload.system(SAMSUNG_980PRO, num_ssds=1)
        hbm_mb = 2 if tiny else self.hbm_mb
        self.trainer = FullGraphTrainer(
            self.workload.dataset,
            self.system,
            FullGraphConfig(hbm_budget_bytes=hbm_mb * 2**20),
        )
        # ~8 s of host time at full size (see ``GidsTrain.full_rounds``).
        self.min_rounds = 2 if tiny else 6

    def round(self, index: int) -> _Round:
        trainer = self.trainer
        first = trainer.report.num_iterations
        steps = trainer.steps_per_epoch
        for _ in range(steps):
            self.begin_op()
            trainer.run_steps(1)
        result = trainer.result()
        iterations = trainer.report.iterations[first:]
        counters = TransferCounters()
        for it in iterations:
            counters.merge(it.counters)
        block = result.block
        return _Round(
            steps,
            {
                "iterations": [_stage_dict(it.times) for it in iterations],
                "epoch_e2e_s": block["epoch_end_times_s"][-1]
                - (block["epoch_end_times_s"][-2] if index else 0.0),
                "loss": result.final_loss,
                "accuracy": result.final_accuracy,
                "traffic": dict(block["traffic"]),
                "counters": _counters_dict(counters),
                "num_partitions": block["num_partitions"],
            },
        )


WORKLOADS = {
    cls.name: cls
    for cls in (GidsTrain, CpuBaselines, ServeDegraded, FullgraphSpill)
}
