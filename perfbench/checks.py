"""Correctness gate: the committed reference and the conservation laws.

The reference holds a workload's modeled outputs at the default seed,
exactly as JSON stores them (floats round-trip bit-for-bit through
``repr``).  The conservation laws hold on every seed and every round.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: The seed whose modeled outputs are committed under ``reference/``.
DEFAULT_SEED = 0


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot store {type(value).__name__} in a reference")


def normalize(modeled):
    """The JSON form of ``modeled``: what a reference file stores."""
    return json.loads(json.dumps(modeled, default=_plain))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


def write_reference(workload: str, seed: int, rounds: list) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "rounds": normalize(rounds)}, handle)
        handle.write("\n")
    return path


def first_difference(expected, actual, path: str = "") -> str | None:
    """Path and values of the first field that differs, or ``None``.

    Floats compare exactly; ``1`` and ``1.0`` differ (a type change is a
    change of the modeled output).
    """
    if type(expected) is not type(actual):
        return f"{path or '<root>'}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, dict):
        for key in expected:
            if key not in actual:
                return f"{path}.{key}: missing"
            diff = first_difference(expected[key], actual[key], f"{path}.{key}")
            if diff is not None:
                return diff
        for key in actual:
            if key not in expected:
                return f"{path}.{key}: unexpected field"
        return None
    if isinstance(expected, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, f"{path}[{i}]")
            if diff is not None:
                return diff
        if len(expected) != len(actual):
            return (
                f"{path}: expected {len(expected)} entries, got {len(actual)}"
            )
        return None
    if expected != actual:
        return f"{path or '<root>'}: expected {expected!r}, got {actual!r}"
    return None


# ----------------------------------------------------------------------
# Conservation laws (seed-independent)


def _training_laws(modeled: dict, pages_per_node: int) -> list[str]:
    errors = []
    for key, run in modeled.items():
        c = run["counters"]
        # Every requested page is served by exactly one tier; a replica
        # redirect is a storage read served by the surviving copy.
        served = (
            c["gpu_cache_hits"]
            + c["cpu_buffer_requests"]
            + c["storage_requests"]
            + c["fallback_requests"]
            + c["page_cache_hits"]
        )
        requested = run["input_nodes"] * pages_per_node
        if served != requested:
            errors.append(
                f"{key}: {requested} pages requested but {served} served"
            )
        if c["replica_redirects"] > c["storage_requests"]:
            errors.append(f"{key}: more replica redirects than storage reads")
        if "belady_hits" in run:
            accesses = run["belady_hits"] + run["belady_misses"]
            if accesses != requested:
                errors.append(
                    f"{key}: Belady saw {accesses} accesses, "
                    f"{requested} pages requested"
                )
            if run["belady_resident_pages"] > run["belady_capacity_pages"]:
                errors.append(f"{key}: Belady cache over capacity")
        if "pagecache_hits" in run:
            if run["pagecache_hits"] != c["page_cache_hits"]:
                errors.append(f"{key}: page-cache hits disagree with counters")
            if run["pagecache_misses"] != c["page_faults"]:
                errors.append(f"{key}: page-cache misses disagree with faults")
    return errors


def _serving_laws(run: dict) -> list[str]:
    errors = []
    ledger = {name: sum(values) for name, values in run["ledger"].items()}
    rate = run["rate"]
    requests = run["requests"]
    if ledger["offered"] != requests:
        errors.append(f"{rate}: {ledger['offered']} offered, {requests} sent")
    rejected = ledger["rejected_queue"] + ledger["rejected_deadline"]
    if ledger["offered"] != ledger["admitted"] + ledger["shed"] + rejected:
        errors.append(f"{rate}: offered != admitted + shed + rejected")
    # Admitted requests either complete or expire at dequeue.
    if ledger["admitted"] != ledger["completed"] + ledger["expired"]:
        errors.append(f"{rate}: admitted != completed + expired")
    if ledger["completed"] != run["latency_count"]:
        errors.append(f"{rate}: completed != latency samples")
    if ledger["completed"] != ledger["deadline_met"] + ledger["deadline_missed"]:
        errors.append(f"{rate}: completed != met + missed")
    c = run["counters"]
    if c["replica_redirects"] > c["storage_requests"]:
        errors.append(f"{rate}: more replica redirects than storage reads")
    return errors


def conservation_errors(workload, index: int, modeled: dict) -> list[str]:
    """Every law ``modeled`` (one round of ``workload``) breaks."""
    name = workload.name
    if name in ("gids-train", "cpu-baselines"):
        errors = _training_laws(modeled, workload.pages_per_node())
        if name == "cpu-baselines" and index == workload.min_rounds - 1:
            ginex = modeled["ginex"]
            if ginex["belady_resident_pages"] != ginex["belady_capacity_pages"]:
                errors.append(
                    "ginex: Belady cache not full at the end of the "
                    "reference rounds"
                )
        return errors
    if name == "serve-degraded":
        errors = []
        runs = modeled["runs"] + modeled["search"]["probes"]
        for run in runs:
            errors += _serving_laws(run)
        return errors
    if name == "fullgraph-spill":
        t = modeled["traffic"]
        errors = []
        if t["reload_pages"] > t["spill_pages"]:
            errors.append("fullgraph: more spill pages read than written")
        if not np.isfinite(modeled["loss"]):
            errors.append("fullgraph: loss is not finite")
        return errors
    raise KeyError(name)
