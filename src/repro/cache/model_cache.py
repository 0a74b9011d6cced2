"""The per-model cache façade the serving request path talks to.

A :class:`ModelCache` bundles one :class:`~repro.cache.store.DeviceResidentCache`
per entry *kind* a model declares (``cache_kinds``):

* ``"embedding"`` -- final node-embedding rows, resident on the model's
  compute device.  A hit short-circuits the node's entire recursive
  sampling + attention subtree.
* ``"sample"`` -- temporal-neighbourhood sample rows, resident in host
  memory (they are CPU-side sampling structures).  A hit skips the per-row
  binary search + draw in :class:`~repro.graph.sampling.TemporalNeighborSampler`
  -- the paper's dominant inference cost.
* ``"memory"`` -- device-resident copies of per-node recurrent state (TGN's
  memory rows).  A hit skips the row's host->device upload; values are exact
  (memory rows only change when their node is touched, and every write goes
  through the cache), so only the transfer cost changes.

All stores share one policy name, one staleness bound, and an equal split of
the byte budget.  Lookups/inserts are charged on whatever stream is current
when the model calls in -- synchronously on the blocking path, asynchronously
inside the overlap server's named sampling stream.

Consistency contract (who calls what, in request order):

1. ``lookup_*`` / ``sample`` while building the batch's plan -- hits are
   admitted against the *pre-batch* cache state;
2. the model computes the misses;
3. ``observe_events(batch)`` -- the batch's events are incoming graph
   mutations, so entries touched by them are invalidated;
4. ``store_*`` -- freshly computed rows are inserted at their query event
   times (after invalidation, so they survive their own batch).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._compat import ordered_sum
from ..domain import POSITIVE, Domain
from ..graph.events import EventStream
from ..graph.sampling import NeighborhoodSample, TemporalNeighborSampler
from ..hw.device import Device
from ..hw.machine import Machine
from .policy import make_eviction_policy
from .store import (
    COUNTER_FIELDS,
    SUMMED_COUNTERS,
    CacheStats,
    DeviceResidentCache,
)

#: Kinds that live on the model's compute device; everything else lives on
#: the host CPU (sampling structures are CPU-side).
_DEVICE_KINDS = ("embedding", "memory")

#: A cached sample row per neighbour, in record order: id, time and event
#: index plus the mask bit -- the columns of a :class:`NeighborhoodSample`,
#: 28 bytes.
_SAMPLE_FIELDS = (
    ("ids", np.int64),
    ("times", np.float64),
    ("events", np.int64),
    ("mask", np.float32),
)


@lru_cache(maxsize=64)
def _sample_record(k: int) -> np.dtype:
    """The packed layout of one sample row drawn at fan-out ``k``: its ``k``
    ids, times, event indices and mask bits, ``28 * k`` bytes -- the size the
    sample store charges for the row."""
    if k <= 0:
        raise ValueError("k must be positive")
    return np.dtype([(name, dtype, (k,)) for name, dtype in _SAMPLE_FIELDS])


def _sample_columns(sample: NeighborhoodSample) -> Tuple[np.ndarray, ...]:
    return (sample.neighbor_ids, sample.neighbor_times, sample.event_indices, sample.mask)


def _split(blob: bytes, width: int) -> List[bytes]:
    """``blob`` cut into consecutive ``width``-byte records."""
    return [blob[start:start + width] for start in range(0, len(blob), width)]


def _pack_sample(sample: NeighborhoodSample, record: np.dtype) -> List[bytes]:
    """One ``record`` per row of ``sample``: one structured fill, one copy out."""
    rows = np.empty(sample.num_targets, dtype=record)
    for (name, _), column in zip(_SAMPLE_FIELDS, _sample_columns(sample)):
        rows[name] = column
    return _split(rows.tobytes(), record.itemsize)


class ModelCache:
    """Staleness-bounded embedding/sample/memory cache for one model.

    Args:
        machine: Machine whose clock and memory pools are charged.
        compute_device: Device holding embedding/memory rows.
        kinds: Entry kinds to enable (subset of embedding/sample/memory).
        policy: Eviction policy name (one fresh instance per store).
        capacity_mb: Total byte budget, split equally across the stores.
        staleness_ms: Event-time staleness bound (strict; 0 disables hits).
        degree_of: Optional ``node -> temporal degree`` callable (the
            degree-weighted policy's insert weight).
    """

    def __init__(
        self,
        machine: Machine,
        compute_device: Device,
        kinds: Sequence[str],
        policy: str = "lru",
        capacity_mb: float = 64.0,
        staleness_ms: float = 0.0,
        degree_of: Optional[Callable[[int], float]] = None,
    ) -> None:
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("a model cache needs at least one entry kind")
        unknown = [k for k in kinds if k not in ("embedding", "sample", "memory")]
        if unknown:
            raise ValueError(f"unknown cache kind(s) {unknown}")
        POSITIVE.check("cache capacity (MB)", capacity_mb)
        self.machine = machine
        self.compute_device = compute_device
        self.policy_name = policy
        self.capacity_mb = float(capacity_mb)
        self.staleness_ms = float(staleness_ms)
        per_store = int(capacity_mb * 1e6 / len(kinds))
        self._stores: Dict[str, DeviceResidentCache] = {}
        for kind in kinds:
            device = compute_device if kind in _DEVICE_KINDS else machine.cpu
            self._stores[kind] = DeviceResidentCache(
                machine,
                device,
                kind,
                make_eviction_policy(policy),
                per_store,
                staleness_ms,
                weight_of=degree_of,
            )

    # -- introspection -----------------------------------------------------

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(self._stores)

    def store(self, kind: str) -> Optional[DeviceResidentCache]:
        return self._stores.get(kind)

    @property
    def embeddings(self) -> Optional[DeviceResidentCache]:
        return self._stores.get("embedding")

    @property
    def samples(self) -> Optional[DeviceResidentCache]:
        return self._stores.get("sample")

    @property
    def memory(self) -> Optional[DeviceResidentCache]:
        return self._stores.get("memory")

    def describe(self) -> str:
        return (
            f"{self.policy_name}/{self.capacity_mb:g}MB/"
            f"staleness={self.staleness_ms:g}ms"
        )

    # -- adaptive fidelity -------------------------------------------------

    def set_fidelity(self, staleness_scale: float = 1.0, force_hits: bool = False) -> None:
        """Apply (or clear) the degradation controller's cache levers.

        ``staleness_scale`` multiplies every store's configured staleness
        bound for subsequent probes (lever 2); ``force_hits`` widens the
        *embedding* store's window to infinity so resident rows are served
        regardless of age (lever 3, for rows whose deadline is already
        lost).  ``(1.0, False)`` restores the configured bounds exactly.
        Stores with a zero base bound stay byte-identical to uncached
        execution: they never admitted writes, so there is nothing a wider
        window could serve.
        """
        Domain(1).check("staleness_scale", staleness_scale)
        for kind, store in self._stores.items():
            override: Optional[float] = None
            if store.admits_writes:
                if staleness_scale > 1.0:
                    override = store.staleness_ms * staleness_scale
                if force_hits and kind == "embedding":
                    override = float("inf")
            store.set_staleness_override(override)

    # -- embeddings --------------------------------------------------------

    def lookup_embeddings(
        self, nodes: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Admit a batch of (node, query-time) rows against the embedding store.

        Returns ``(hit_indices, hit_rows, miss_indices)`` over the query
        order; ``hit_rows`` is a read-only float32 ``(hits, dim)`` array read
        from the hit records in one pass, or ``None`` when nothing hit.
        """
        store = self._stores.get("embedding")
        n = len(nodes)
        if store is None:
            return (
                np.empty(0, dtype=np.int64),
                None,
                np.arange(n, dtype=np.int64),
            )
        values = store.probe_many(nodes.tolist(), times.tolist())
        hit_positions = [index for index in range(n) if values[index] is not None]
        miss_positions = [index for index in range(n) if values[index] is None]
        store.flush_charges("lookup")
        hit_rows = None
        if hit_positions:
            records = b"".join([values[index] for index in hit_positions])
            hit_rows = np.frombuffer(records, dtype=np.float32).reshape(len(hit_positions), -1)
        return (
            np.asarray(hit_positions, dtype=np.int64),
            hit_rows,
            np.asarray(miss_positions, dtype=np.int64),
        )

    def store_embeddings(
        self, nodes: np.ndarray, times: np.ndarray, rows: np.ndarray
    ) -> None:
        """Insert freshly computed embedding rows at their query event times,
        each as one ``dim * 4``-byte float32 record."""
        store = self._stores.get("embedding")
        if store is None or len(nodes) == 0:
            return
        if store.admits_writes:
            nbytes = int(rows.shape[1]) * 4
            records = _split(np.asarray(rows, dtype=np.float32).tobytes(), nbytes)
            store.put_rows(nodes.tolist(), records, times.tolist(), nbytes)
        store.flush_charges("update")

    # -- temporal-neighbourhood samples ------------------------------------

    def sample(
        self,
        sampler: TemporalNeighborSampler,
        nodes: np.ndarray,
        times: np.ndarray,
        k: int,
    ) -> NeighborhoodSample:
        """Cache-fronted batched temporal-neighbourhood query.

        Per query row: serve the cached sample row when one is valid under
        the staleness bound and drawn at this ``k`` (a row of another width
        is a miss, never a hit), otherwise fall through to ``sampler`` for the
        miss rows only (which charges the sampler's CPU cost for exactly
        those rows).  With zero hits the sampler is invoked on the original
        arrays, so the draw sequence -- and therefore the RNG stream -- is
        byte-identical to uncached execution.  The hit records are read
        back in one pass and scattered column by column; the miss rows are
        packed into records in one pass (:func:`_pack_sample`).
        """
        store = self._stores.get("sample")
        if store is None:
            return sampler.sample(nodes, times, k)
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        node_list = nodes.tolist()
        time_list = times.tolist()
        record = _sample_record(k)
        probed = store.probe_many(node_list, time_list, nbytes=record.itemsize)
        hit_positions = [index for index, value in enumerate(probed) if value is not None]
        if not hit_positions:
            sample = sampler.sample(nodes, times, k)
            if store.admits_writes:
                store.put_rows(node_list, _pack_sample(sample, record), time_list, record.itemsize)
            store.flush_charges("sample")
            return sample
        n = len(nodes)
        columns = [np.empty((n, k), dtype=dtype) for _, dtype in _SAMPLE_FIELDS]
        hits = np.frombuffer(b"".join([probed[index] for index in hit_positions]), dtype=record)
        hit_idx = np.asarray(hit_positions, dtype=np.int64)
        for column, (name, _) in zip(columns, _SAMPLE_FIELDS):
            column[hit_idx] = hits[name]
        if len(hit_positions) < n:
            miss_positions = [index for index, value in enumerate(probed) if value is None]
            miss_idx = np.asarray(miss_positions, dtype=np.int64)
            sub = sampler.sample(nodes[miss_idx], times[miss_idx], k)
            for column, part in zip(columns, _sample_columns(sub)):
                column[miss_idx] = part
            if store.admits_writes:
                store.put_rows(
                    [node_list[index] for index in miss_positions],
                    _pack_sample(sub, record),
                    [time_list[index] for index in miss_positions],
                    record.itemsize,
                )
        store.flush_charges("sample")
        return NeighborhoodSample(*columns)

    # -- recurrent memory rows ---------------------------------------------

    def lookup_memory(
        self, nodes: np.ndarray, times: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Admit per-node memory rows; returns ``(hit_indices, miss_indices)``.

        Values are presence-only: the functional row data comes from the
        model's host mirror (cached rows are exact copies by the
        write-through contract), so hits change transfer cost, not numerics.
        """
        store = self._stores.get("memory")
        n = len(nodes)
        if store is None:
            return (np.empty(0, dtype=np.int64), np.arange(n, dtype=np.int64))
        results = store.probe_many(nodes.tolist(), times.tolist())
        store.flush_charges("lookup")
        hit_positions = [index for index in range(n) if results[index] is not None]
        miss_positions = [index for index in range(n) if results[index] is None]
        return (
            np.asarray(hit_positions, dtype=np.int64),
            np.asarray(miss_positions, dtype=np.int64),
        )

    def store_memory_rows(
        self, nodes: np.ndarray, times: np.ndarray, row_nbytes: int
    ) -> None:
        """Register device-resident memory rows (write-through on update)."""
        store = self._stores.get("memory")
        if store is None or len(nodes) == 0:
            return
        node_list = np.asarray(nodes).tolist()
        time_list = np.asarray(times, dtype=np.float64).tolist()
        store.put_many(node_list, True, time_list, int(row_nbytes))
        store.flush_charges("update")

    # -- invalidation ------------------------------------------------------

    def observe_events(
        self, batch: EventStream, kinds: Optional[Sequence[str]] = None
    ) -> int:
        """Invalidate entries touched by a batch of incoming graph events.

        Every event ``(u, v, t)`` changes the temporal neighbourhood of both
        endpoints, so their sample and embedding entries must not be served
        afterwards.  ``kinds`` restricts the sweep (TGN skips ``"memory"``:
        its writes overwrite the touched rows in the same iteration).
        Returns the number of dropped entries.
        """
        return self.invalidate_nodes(batch.touched_nodes().tolist(), kinds=kinds)

    def invalidate_nodes(
        self, nodes: Iterable[int], kinds: Optional[Sequence[str]] = None
    ) -> int:
        """Invalidate the given nodes' entries across (selected) stores."""
        nodes = list(nodes)
        dropped = 0
        for kind, store in self._stores.items():
            if kinds is not None and kind not in kinds:
                continue
            dropped += store.invalidate(nodes)
            store.flush_charges("invalidate")
        return dropped

    def flush(self) -> int:
        """Drop every entry across every store (replica cold start / spin-down).

        The autoscaler calls this when a replica leaves the fleet: its
        device memory is released, so whatever the caches held is gone and
        the replica's next activation starts cold -- the cache-warm-up half
        of the modeled cold-start cost.  Returns the number of dropped
        entries; the invalidation work is charged to the owning machine.
        """
        dropped = 0
        for store in self._stores.values():
            dropped += store.flush()
            store.flush_charges("flush")
        return dropped

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Merged + per-kind counters, ready for :class:`ServingReport`."""
        merged = CacheStats()
        by_kind: Dict[str, Dict[str, Any]] = {}
        for kind, store in self._stores.items():
            merged.merge(store.stats)
            by_kind[kind] = store.stats.as_dict()
        payload: Dict[str, Any] = {
            "policy": self.policy_name,
            "capacity_mb": self.capacity_mb,
            "staleness_ms": self.staleness_ms,
            "kinds": list(self._stores),
        }
        payload.update(merged.as_dict())
        payload["by_kind"] = by_kind
        return payload


def merge_cache_stats(reports: Sequence[Optional[Dict[str, Any]]]) -> Optional[Dict[str, Any]]:
    """Merge per-replica/per-shard cache stat dicts into one report view.

    Counter keys are summed, ``hit_rate`` is recomputed from the merged
    totals, and configuration keys (policy, staleness) are taken from the
    first non-empty report.  ``capacity_mb`` sums each report's own
    capacity and ``kinds`` is the ordered union across reports, so
    heterogeneous replica sets (mixed capacities, models with different
    entry kinds) merge faithfully -- on a homogeneous fleet both reduce to
    the first report's values scaled by the cache count.  ``bytes_peak``
    takes the max across replicas (per-replica peaks happen at different
    times, so a sum is not a peak of anything); the summed footprint bound
    survives as ``bytes_peak_sum``.  Returns ``None`` when nothing cached.
    """
    live = [report for report in reports if report]
    if not live:
        return None
    kinds: List[str] = []
    for report in live:
        for kind in report.get("kinds", []):
            if kind not in kinds:
                kinds.append(kind)
    merged: Dict[str, Any] = {
        "policy": live[0].get("policy", ""),
        "capacity_mb": ordered_sum(report.get("capacity_mb", 0.0) for report in live),
        "staleness_ms": live[0].get("staleness_ms", 0.0),
        "kinds": kinds,
        "caches": len(live),
    }
    stats = CacheStats()
    for report in live:
        stats.merge(CacheStats(**{name: int(report.get(name) or 0) for name in COUNTER_FIELDS}))
    for key in SUMMED_COUNTERS:
        merged[key] = getattr(stats, key)
    merged["bytes_peak"] = stats.bytes_peak
    merged["bytes_peak_sum"] = stats.peak_sum
    merged["hit_rate"] = round(stats.hit_rate, 4)
    return merged


def make_model_cache(
    model: Any,
    policy: str = "lru",
    capacity_mb: float = 64.0,
    staleness_ms: float = 0.0,
) -> ModelCache:
    """Build a :class:`ModelCache` for ``model`` and attach it.

    The model must opt in via ``supports_caching`` and declare its entry
    kinds in ``cache_kinds`` (see :class:`repro.models.base.DGNNModel`).
    The degree-weighted policy reads node degrees from the model's
    temporal-neighbour sampler (every caching model samples).
    """
    if not model.supports_caching:
        raise TypeError(
            f"{type(model).__name__} does not support request caching; "
            "only models declaring supports_caching/cache_kinds can serve "
            "with --cache"
        )
    kinds = tuple(model.cache_kinds)
    if not kinds:
        raise TypeError(
            f"{type(model).__name__} declares supports_caching but no cache_kinds"
        )
    cache = ModelCache(
        model.machine,
        model.compute_device,
        kinds,
        policy=policy,
        capacity_mb=capacity_mb,
        staleness_ms=staleness_ms,
        degree_of=model.sampler.total_degree,
    )
    model.attach_cache(cache)
    return cache
