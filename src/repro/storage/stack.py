"""The GIDS storage hierarchy, built in one place for every reader of it.

A feature read goes through the constant CPU buffer (Section 3.3), then
the BaM GPU software cache (Section 3.4), then GPU-initiated SSD reads
(Section 3.2).  The training loaders and the inference server read
through the same tiers; :class:`StorageStack` builds them once for both.
"""

from __future__ import annotations

import numpy as np

from ..cache.cpu_buffer import ConstantCPUBuffer
from ..cache.gpu_cache import GPUSoftwareCache
from ..faults import FaultInjector, FaultPlan, FaultySSDArray, RetryPolicy
from ..graph.datasets import ScaledDataset
from ..sim.gpu import GPUModel
from ..sim.pcie import PCIeLink
from ..sim.ssd import SSDArray
from ..storage_ha import StorageHA
from .feature_store import FeatureStore


def train_seed_weights(dataset: ScaledDataset) -> np.ndarray | None:
    """Reverse-PageRank teleport weights favouring the training seeds.

    Weighting by seed membership makes the ranking reflect the actual
    sampling frontier (Section 3.3).  ``None`` (uniform teleport) when the
    dataset has no training seeds.
    """
    weights = np.zeros(dataset.num_nodes)
    weights[dataset.train_ids] = 1.0
    if weights.sum() == 0:
        return None
    return weights


class StorageStack:
    """Base class of a reader of the GIDS storage hierarchy.

    :meth:`_build_storage` reads the reader's ``dataset``, ``system``,
    ``config``, ``tracer`` and ``_rng`` attributes, so a subclass sets
    those first.  It then sets the tiers as attributes of the reader:

    * ``store`` and ``layout`` — the feature table and its page layout;
    * ``ssd``, ``pcie`` and ``gpu`` — the device models, the PCIe link
      degraded by the fault plan;
    * ``fault_plan``, ``faults`` and ``fault_array`` — the injector and the
      degradable array view, only for a non-null plan;
    * ``storage_ha`` — only when replication, parity or rebuild is on;
    * ``cache`` — the GPU software cache, on the spawned ``_cache_rng``;
    * ``cpu_buffer`` — the constant CPU buffer, ``None`` when disabled.

    Every optional tier is pay-for-what-you-use: with no fault plan (or a
    null one) and no redundancy, none of them exists and the modeled times
    are bit-identical to a stack without fault or HA support.
    """

    def _build_storage(
        self,
        *,
        rank,
        features: np.ndarray | None = None,
        hot_nodes: np.ndarray | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
    ) -> None:
        """Build the tiers.

        ``rank`` computes the hot-node ranking when ``hot_nodes`` is not
        given; each reader passes the ``hot_node_ranking`` its own module
        imported, so the call goes through that module's global.
        """
        dataset, system, tracer = self.dataset, self.system, self.tracer
        self.store = FeatureStore(
            dataset.num_nodes, dataset.feature_dim, data=features
        )
        self.layout = self.store.layout
        self.ssd = SSDArray(system.ssd, system.num_ssds)
        self.pcie = PCIeLink(system.pcie)
        self.gpu = GPUModel(system.gpu)

        self.fault_plan = fault_plan
        self.faults: FaultInjector | None = None
        self.fault_array: FaultySSDArray | None = None
        if fault_plan is not None and not fault_plan.is_null():
            self.faults = FaultInjector(fault_plan, retry_policy)
            self.fault_array = FaultySSDArray(self.ssd, self.faults)
            if fault_plan.pcie_degradation_factor > 1.0:
                self.pcie = PCIeLink(
                    system.pcie,
                    degradation_factor=fault_plan.pcie_degradation_factor,
                )

        # With redundancy on but no fault machinery attached, every
        # route() is an inert all-direct pass-through.
        self.storage_ha: StorageHA | None = None
        if replication > 1 or parity or rebuild_iops > 0:
            self.storage_ha = StorageHA(
                num_devices=system.num_ssds,
                base_latency_s=system.ssd.read_latency_s,
                replication=replication,
                parity=parity,
                rebuild_iops=rebuild_iops,
                total_pages=self.layout.total_pages,
                fault_array=self.fault_array,
                tracer=tracer,
            )

        cache_lines = int(self.config.gpu_cache_bytes // self.layout.page_bytes)
        # The cache gets its own spawned RNG stream so eviction draws never
        # perturb the sampling stream: two readers with the same seed sample
        # identical batches regardless of their cache activity.
        self._cache_rng = self._rng.spawn(1)[0]
        self.cache = GPUSoftwareCache(cache_lines, seed=self._cache_rng)
        self.cache.tracer = tracer

        self.cpu_buffer: ConstantCPUBuffer | None = None
        fraction = self.config.cpu_buffer_fraction
        if fraction <= 0:
            return
        if hot_nodes is None:
            # Section 3.3: users may also "define which nodes should be
            # pinned" with their own metric, by passing ``hot_nodes``.
            metric = self.config.hot_node_metric
            hot_nodes = rank(
                dataset.graph,
                metric,
                seed_weights=(
                    train_seed_weights(dataset)
                    if metric == "reverse_pagerank"
                    else None
                ),
                rng=self._rng,
            )
        self.cpu_buffer = ConstantCPUBuffer(
            num_nodes=dataset.num_nodes,
            feature_bytes=self.store.feature_bytes,
            capacity_bytes=fraction * dataset.feature_data_bytes,
            hot_nodes=np.asarray(hot_nodes, dtype=np.int64),
        )
