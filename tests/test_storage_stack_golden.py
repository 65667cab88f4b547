"""Characterization test for the GIDS storage stack.

The GIDS and BaM loaders and the inference server read through the same
tiers: the constant CPU buffer, the GPU software cache and the SSD array,
with fault injection, storage HA and read verification layered on top.
This file drives each of them under a fixed set of configurations and
compares every observable outcome with a committed golden record
(``tests/data/storage_stack_golden.json``):

* loaders — every iteration's stage times and :class:`TransferCounters`
  fields, plus how many delivered feature rows differ from the ground
  truth (undetected corruption);
* server — the request ledger, every latency, the merged counters and
  the per-stage seconds.

Floats are compared with a 1e-9 relative tolerance so the record survives
last-bit differences between numpy builds.  Regenerate it after an
intended change with::

    PYTHONPATH=src python tests/test_storage_stack_golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import INTEL_OPTANE, LoaderConfig, SystemConfig, load_scaled
from repro.core import BaMDataLoader, GIDSDataLoader
from repro.faults import CorruptionEvent, DeviceEvent, FaultPlan
from repro.serving import ArrivalConfig, InferenceServer, ServingConfig

GOLDEN = Path(__file__).parent / "data" / "storage_stack_golden.json"

_DATASET = load_scaled("IGB-tiny", 0.05, seed=3)
_CONFIG = LoaderConfig(
    gpu_cache_bytes=_DATASET.feature_data_bytes * 0.05,
    cpu_buffer_fraction=0.10,
    window_depth=4,
)

ITERATIONS = 18
WARMUP = 2
FETCHED = 8

DROPOUT = FaultPlan(
    seed=2,
    device_events=(
        DeviceEvent(1, "dropout", 0.001),
        DeviceEvent(1, "recovery", 0.002),
    ),
)
CORRUPT = FaultPlan(
    seed=11,
    bitflip_rate=1e-3,
    corruption_events=(
        CorruptionEvent(device=0, at_time_s=0.0, page_fraction=0.02),
    ),
)
DEVICE_LOSS = FaultPlan(
    seed=2, device_events=(DeviceEvent(1, "dropout", 0.0),)
)
READ_FAULTS = FaultPlan(
    seed=5,
    read_failure_rate=0.02,
    tail_latency_rate=0.01,
    pcie_degradation_factor=1.5,
)

#: case -> (number of SSDs, loader keyword arguments)
LOADER_CASES = {
    "healthy": (2, {}),
    "dropout-recovery": (2, {"fault_plan": DROPOUT}),
    "dropout-replicated": (
        2, {"fault_plan": DROPOUT, "replication": 2, "rebuild_iops": 1e6},
    ),
    "device-loss-parity": (
        3, {"fault_plan": DEVICE_LOSS, "parity": True, "rebuild_iops": 1e6},
    ),
    "corrupt-verify-off": (2, {"fault_plan": CORRUPT}),
    "corrupt-verify-sample": (
        2,
        {
            "fault_plan": CORRUPT,
            "verify_reads": "sample",
            "verify_sample_rate": 0.5,
        },
    ),
    "corrupt-verify-full": (
        2, {"fault_plan": CORRUPT, "verify_reads": "full"},
    ),
    "corrupt-verify-full-scrub": (
        2,
        {"fault_plan": CORRUPT, "verify_reads": "full", "scrub_iops": 1e5},
    ),
    "read-faults": (2, {"fault_plan": READ_FAULTS}),
}

LOADERS = {"gids": GIDSDataLoader, "bam": BaMDataLoader}

SERVER_CASES = {
    "healthy": {},
    "dropout-replicated": {
        "fault_plan": DEVICE_LOSS,
        "replication": 2,
        "rebuild_iops": 1e6,
    },
}


def _loader(kind: str, case: str):
    num_ssds, kwargs = LOADER_CASES[case]
    system = SystemConfig(ssd=INTEL_OPTANE, num_ssds=num_ssds)
    return LOADERS[kind](
        _DATASET, system, _CONFIG, batch_size=64, fanouts=(5, 5), seed=1,
        **kwargs,
    )


def _record_loader(kind: str, case: str) -> dict:
    report = _loader(kind, case).run(ITERATIONS, warmup=WARMUP)
    # A second loader of the same configuration delivers features, so
    # corruption that slipped past verification shows up as changed rows.
    loader = _loader(kind, case)
    changed = []
    for batch, feats in loader.iter_batches(FETCHED):
        truth = loader.store.fetch(batch.input_nodes)
        changed.append(int((feats != truth).any(axis=1).sum()))
    return {
        "iterations": [m.state_dict() for m in report.iterations],
        "changed_rows": changed,
    }


def _record_server(case: str) -> dict:
    server = InferenceServer(
        _DATASET,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        _CONFIG,
        arrival=ArrivalConfig(rate=2000.0, seed=5),
        serving=ServingConfig(),
        fanouts=(5, 5),
        seed=1,
        **SERVER_CASES[case],
    )
    server.serve(120)
    server.drain()
    report = server.report()
    return {
        "serving": report.to_dict(),
        "latencies": list(report.latencies),
        "counters": report.counters.state_dict(),
        "stage_seconds": dict(report.stage_seconds),
    }


def _record_all() -> dict:
    record = {}
    for kind in LOADERS:
        for case in LOADER_CASES:
            record[f"{kind}/{case}"] = _record_loader(kind, case)
    for case in SERVER_CASES:
        record[f"serve/{case}"] = _record_server(case)
    return record


def _assert_same(actual, expected, where: str = "") -> None:
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)), where
        assert math.isclose(
            actual, expected, rel_tol=1e-9, abs_tol=1e-15
        ), f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)), where
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _plain(value):
    """JSON round trip, so records compare the way the golden stores them."""
    return json.loads(json.dumps(value))


def test_golden_covers_every_case(golden):
    expected = {f"{kind}/{case}" for kind in LOADERS for case in LOADER_CASES}
    expected |= {f"serve/{case}" for case in SERVER_CASES}
    assert set(golden) == expected


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loader_matches_golden(kind, case, golden):
    key = f"{kind}/{case}"
    _assert_same(_plain(_record_loader(kind, case)), golden[key], key)


@pytest.mark.parametrize("case", sorted(SERVER_CASES))
def test_server_matches_golden(case, golden):
    key = f"serve/{case}"
    _assert_same(_plain(_record_server(case)), golden[key], key)


def test_cases_exercise_their_tiers(golden):
    """Each configuration reaches the code path it is named for."""

    def totals(key: str) -> dict:
        out: dict = {}
        for it in golden[key]["iterations"]:
            for name, value in it["counters"].items():
                out[name] = out.get(name, 0) + value
        return out

    for kind in LOADERS:
        assert totals(f"{kind}/dropout-recovery")["fallback_requests"] > 0
        replicated = totals(f"{kind}/dropout-replicated")
        assert replicated["replica_redirects"] > 0
        assert totals(f"{kind}/device-loss-parity")["parity_reconstructs"] > 0
        assert totals(f"{kind}/corrupt-verify-full")["corrupt_detected"] > 0
        assert totals(f"{kind}/corrupt-verify-full-scrub")["scrubbed_pages"] > 0
        assert totals(f"{kind}/read-faults")["storage_retries"] > 0
        assert totals(f"{kind}/read-faults")["latency_spikes"] > 0
        assert sum(golden[f"{kind}/corrupt-verify-off"]["changed_rows"]) > 0
        assert sum(golden[f"{kind}/corrupt-verify-full"]["changed_rows"]) == 0
    served = golden["serve/dropout-replicated"]["counters"]
    assert served["replica_redirects"] > 0
    assert np.isfinite(golden["serve/healthy"]["latencies"]).all()


def _regenerate() -> None:
    """Rewrite the golden record from the current code."""
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(_record_all(), handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
