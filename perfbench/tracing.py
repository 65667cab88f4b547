"""Host-time spans around the public functions of each layer.

The wrappers are installed from here only, onto the program's classes and
onto the module globals through which each function is looked up, and
:meth:`SpanRecorder.uninstall` puts every original attribute back.  The
program itself is not edited.

A span is ``(layer, start, end, parent, op)``; spans stay in memory and
are written out once, when the run ends.  A layer's self time is the
duration of its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

#: layer -> the functions it wraps, as ``(module, attribute path)``.  A
#: function imported by name into another module is wrapped there too,
#: because that module's global is where the call looks it up.
LAYERS = {
    "graph.generate": [
        ("repro.graph.datasets", "power_law_graph"),
        ("repro.graph.generators", "power_law_graph"),
    ],
    "graph.csr": [
        ("repro.graph.generators", "from_coo"),
        ("repro.graph.csr", "from_coo"),
        ("repro.graph.csr", "CSRGraph.reverse"),
    ],
    "graph.pagerank": [
        ("repro.bench.workloads", "hot_node_ranking"),
        ("repro.core.gids", "hot_node_ranking"),
        ("repro.serving.server", "hot_node_ranking"),
    ],
    "graph.partition": [("repro.fullgraph.trainer", "partition_graph")],
    "bench.calibrate": [("repro.bench.workloads", "calibrate_batch_size")],
    "construct": [
        ("repro.core.gids", "GIDSDataLoader.__init__"),
        ("repro.core.bam", "BaMDataLoader.__init__"),
        ("repro.baselines.ginex", "GinexLoader.__init__"),
        ("repro.baselines.mmap_loader", "DGLMmapLoader.__init__"),
        ("repro.serving.server", "InferenceServer.__init__"),
        ("repro.fullgraph.trainer", "FullGraphTrainer.__init__"),
    ],
    "loader.gids": [("repro.core.gids", "GIDSDataLoader.run")],
    "loader.bam": [("repro.core.bam", "BaMDataLoader.run")],
    "loader.ginex": [("repro.baselines.ginex", "GinexLoader.run")],
    "loader.mmap": [("repro.baselines.mmap_loader", "DGLMmapLoader.run")],
    "sampling": [("repro.sampling.neighbor", "NeighborSampler.sample")],
    "cache.gpu": [
        ("repro.cache.gpu_cache", "GPUSoftwareCache.access"),
        ("repro.cache.gpu_cache", "GPUSoftwareCache.register_future"),
        ("repro.cache.gpu_cache", "GPUSoftwareCache.invalidate"),
    ],
    "core.window": [
        ("repro.core.window", "WindowBuffer.push"),
        ("repro.core.window", "WindowBuffer.pop"),
    ],
    "core.accumulator": [
        ("repro.core.accumulator", "DynamicAccessAccumulator.observe"),
    ],
    "cache.cpu_buffer": [
        ("repro.cache.cpu_buffer", "ConstantCPUBuffer.contains"),
    ],
    "cache.belady": [("repro.cache.belady", "BeladyCache.process_superbatch")],
    "sim.pagecache": [("repro.sim.pagecache", "PageCache.access")],
    "sim.devices": [
        ("repro.sim.ssd", "SSDArray.batch_service_time"),
        ("repro.sim.ssd", "SSDArray.sequential_read_time"),
        ("repro.sim.ssd", "SSDArray.sequential_write_time"),
        ("repro.faults.array", "FaultySSDArray.batch_service_time"),
        ("repro.sim.pcie", "PCIeLink.transfer_time"),
        ("repro.sim.pcie", "PCIeLink.ingress_time"),
        ("repro.sim.gpu", "GPUModel.sampling_time"),
        ("repro.sim.gpu", "GPUModel.request_generation_time"),
        ("repro.sim.gpu", "GPUModel.training_time"),
        ("repro.sim.gpu", "GPUModel.hbm_read_time"),
        ("repro.sim.cpu", "CPUModel.sampling_time"),
        ("repro.sim.cpu", "CPUModel.gather_time_resident"),
        ("repro.sim.cpu", "CPUModel.fault_service_time"),
        ("repro.sim.cpu", "CPUModel.dram_read_time"),
    ],
    "faults": [("repro.faults.injector", "FaultInjector.resolve_batch")],
    "storage_ha": [
        ("repro.storage_ha.ha", "StorageHA.route"),
        ("repro.storage_ha.ha", "StorageHA.redirect"),
        ("repro.storage_ha.ha", "StorageHA.background_sweep"),
    ],
    "integrity": [("repro.integrity.verifier", "ReadVerifier.process")],
    "serving": [
        ("repro.serving.server", "InferenceServer.step"),
        ("repro.serving.server", "InferenceServer.drain"),
    ],
    "fullgraph.sweep": [("repro.fullgraph.trainer", "FullGraphTrainer.run_steps")],
    "fullgraph.activations": [
        ("repro.fullgraph.activations", "ActivationStore.write_rows"),
        ("repro.fullgraph.activations", "ActivationStore.read_rows"),
        ("repro.fullgraph.activations", "ActivationStore.charge_scratch"),
    ],
    "training.graphsage": [
        ("repro.training.graphsage", "GraphSAGE.layer_forward_block"),
        ("repro.training.graphsage", "GraphSAGE.layer_backward_block"),
    ],
}

#: The benchmark's own phases, recorded as spans by the worker.
PHASES = ("bench.startup", "bench.setup", "bench.check", "bench.export")

LAYER_NAMES = tuple(LAYERS) + PHASES


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` of a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """Records spans in memory; one instance per traced process."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._index = {name: i for i, name in enumerate(LAYER_NAMES)}
        self.layer: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack = [-1]
        self.op_id = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # Recording

    def next_op(self) -> None:
        """Start a new op: later spans carry the next op id."""
        self.op_id += 1

    def _open(self, layer: int, start: float) -> int:
        i = len(self.start)
        self.layer.append(layer)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span (e.g. interpreter start-up)."""
        i = self._open(self._index[name], start)
        self.end[i] = end
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        i = self._open(self._index[name], self.clock())
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, layer: int, fn):
        clock = self.clock
        opened = self._open
        closed = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opened(layer, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                closed(i)

        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing the wrappers

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS`.

        All originals are looked up before any wrapper goes in, so a
        subclass that inherits a wrapped method (BaM's ``run``) gets its
        own wrapper around the original, never around another wrapper.
        """
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        targets = []
        for name, functions in LAYERS.items():
            for module_name, path in functions:
                owner, attr = _resolve(module_name, path)
                targets.append(
                    (owner, attr, attr in vars(owner), getattr(owner, attr),
                     self._index[name])
                )
        for owner, attr, own, original, layer in targets:
            self._patches.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` for every layer."""
        layer = np.asarray(self.layer, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        self_time = duration.copy()
        nested = parent >= 0
        np.subtract.at(self_time, parent[nested], duration[nested])
        n = len(LAYER_NAMES)
        calls = np.bincount(layer, minlength=n)
        self_s = np.bincount(layer, weights=self_time, minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(LAYER_NAMES)
        }

    def top_level_s(self) -> float:
        """Host seconds covered by top-level spans."""
        top = np.asarray(self.parent) < 0
        duration = np.asarray(self.end) - np.asarray(self.start)
        return float(duration[top].sum())

    def write(self, path) -> None:
        """Write the spans as JSON: layer names plus one row per span."""
        rows = list(
            zip(self.layer, self.start, self.end, self.parent, self.op)
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"layers": list(LAYER_NAMES),
                 "columns": ["layer", "start", "end", "parent", "op"],
                 "spans": rows},
                handle,
                separators=(",", ":"),
            )
