"""Stateless 64-bit hashing shared across layers.

:func:`splitmix64` derives the feature store's synthetic values from node
ids; :func:`rendezvous_weights` scores ids against buckets for
highest-random-weight (rendezvous) placement, which shards training seeds
across GPUs and places page replicas across SSDs.
"""

from __future__ import annotations

import numpy as np

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 input."""
    x = (x + _SPLITMIX_GAMMA).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX_1
    x ^= x >> np.uint64(27)
    x *= _MIX_2
    x ^= x >> np.uint64(31)
    return x


def rendezvous_weights(
    ids: np.ndarray, num_buckets: int, seed: int
) -> np.ndarray:
    """Highest-random-weight matrix: ``weights[i, b]`` for id ``i``, bucket ``b``.

    Each entry is a pure hash of ``(seed, id, bucket)`` — independent of
    ``num_buckets`` — so adding a bucket adds a *column* without perturbing
    any existing entry.  That is the property consistent (rendezvous)
    hashing is built on.
    """
    hashed_ids = splitmix64(
        ids.astype(np.uint64) ^ np.uint64(seed * 0x9E3779B9 + 1)
    )
    buckets = splitmix64(
        np.arange(num_buckets, dtype=np.uint64) + np.uint64(seed) * np.uint64(7919)
    )
    return splitmix64(hashed_ids[:, None] ^ buckets[None, :])
