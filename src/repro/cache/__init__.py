"""Staleness-aware serving caches for DGNN inference.

The source paper identifies temporal-neighbourhood sampling and repeated
embedding/memory recomputation as the dominant DGNN inference bottlenecks;
this package eliminates the *redundant* share of that work between serving
requests with a historical cache, the way production serving stacks front
expensive models:

* :mod:`repro.cache.policy` -- pluggable eviction policies (LRU, LFU,
  degree-weighted);
* :mod:`repro.cache.store` -- the device-charged store: residency lands on
  the simulated device memory pools, lookups/updates are charged as kernels
  and host work on the machine clock, and a strict event-time staleness
  bound decides what may be served (staleness 0 == byte-identical to
  uncached execution);
* :mod:`repro.cache.model_cache` -- the per-model façade (embedding, sample
  and memory stores) the request path consults;
* :mod:`repro.cache.backfill` -- the proactive half: an offline pass that
  precomputes hot-node embeddings into the cache ahead of a traffic spike
  (wired into cluster warm-up and autoscaling cold starts).

See the ``cache_ablation`` experiment and ``repro-dgnn serve --cache`` for
the end-to-end sweeps.
"""

from .backfill import backfill_embeddings, hot_nodes
from .model_cache import ModelCache, make_model_cache, merge_cache_stats
from .policy import (
    DegreeWeightedPolicy,
    EvictionPolicy,
    LFUPolicy,
    LRUPolicy,
    available_eviction_policies,
    make_eviction_policy,
)
from .store import CacheStats, DeviceResidentCache

__all__ = [
    "CacheStats",
    "DegreeWeightedPolicy",
    "DeviceResidentCache",
    "EvictionPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "ModelCache",
    "available_eviction_policies",
    "backfill_embeddings",
    "hot_nodes",
    "make_eviction_policy",
    "make_model_cache",
    "merge_cache_stats",
]
