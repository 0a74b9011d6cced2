"""The device-charged staleness cache store.

A :class:`DeviceResidentCache` is one keyed store of cache entries whose
residency is charged to a *simulated* device memory pool and whose lookups,
inserts and invalidations are charged to the machine clock.  Nothing here is
"free": every probe batch costs host work, every hit batch a gather kernel on
the store's device, every insert batch a copy kernel plus an ``alloc`` event
on the device's :class:`~repro.hw.memory.MemoryPool`, and every eviction a
``free`` -- so the hit-rate vs. memory-pressure trade-off shows up in the
same profiles and memory reports as the model's own work.

Staleness semantics (event-time): an entry written at event time ``t_e`` may
serve a query at event time ``t_q`` iff ``0 <= t_q - t_e < staleness_ms``.
The bound is *strict*, so a staleness bound of 0 admits no hit at all; since
an entry inserted under a zero bound can never be served, :meth:`put`
*bypasses* the insert outright (no copy kernel, no occupancy) and cached
execution degenerates to uncached execution plus probe admin -- still
byte-identical in results (the equivalence the golden-suite tests pin
down).  Entries probed past their bound are expired on touch (freed and
counted as ``stale_evictions``), so a cache under a tight bound does not
accumulate dead rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .._compat import DATACLASS_SLOTS
from ..hw.device import Device
from ..hw.machine import Machine
from .policy import EvictionPolicy


@dataclass(frozen=True, **DATACLASS_SLOTS)
class CacheCostModel:
    """Machine-clock cost of cache operations.

    The defaults model a host-side open-addressing table in front of a
    device-resident row pool: fractions of a microsecond per probed key on
    the host, and bandwidth-bound gather/copy kernels on the store's device
    for the row payloads.  All costs are charged through the owning
    :class:`~repro.hw.machine.Machine`, so they land on whatever stream is
    current -- synchronous on the blocking path, asynchronous inside a named
    worker stream (the overlap server's prepare phase).
    """

    probe_us_per_key: float = 0.08
    insert_us_per_key: float = 0.12
    invalidate_us_per_key: float = 0.04

    def probe_ms(self, keys: int) -> float:
        return keys * self.probe_us_per_key * 1e-3

    def insert_ms(self, keys: int) -> float:
        return keys * self.insert_us_per_key * 1e-3

    def invalidate_ms(self, keys: int) -> float:
        return keys * self.invalidate_us_per_key * 1e-3


@dataclass
class CacheStats:
    """Running counters of one cache store (or a merged view of several)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stale_rejects: int = 0
    inserts: int = 0
    evictions: int = 0
    stale_evictions: int = 0
    invalidations: int = 0
    bytes_current: int = 0
    bytes_peak: int = 0
    #: Sum of the per-store peaks folded into this view (0 until a merge).
    #: Per-store peaks happen at different times, so their sum is a memory
    #: *footprint* bound, not a peak of the merged store -- ``bytes_peak``
    #: stays the max, this keeps the sum for telemetry that wants it.
    bytes_peak_sum: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        report: Dict[str, Any] = {}
        for name in COUNTER_FIELDS:
            report[name] = getattr(self, name)
            if name == "misses":
                report["hit_rate"] = round(self.hit_rate, 4)
        report["bytes_peak_sum"] = self.peak_sum
        return report

    @property
    def peak_sum(self) -> int:
        """Summed per-store peaks: ``bytes_peak`` itself for a single store."""
        return self.bytes_peak_sum if self.bytes_peak_sum else self.bytes_peak

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate ``other`` into this view (for multi-store/replica reports).

        Counters sum; ``bytes_peak`` takes the max -- the per-store peaks
        happened at different times, so a sum would overstate the peak of
        the merged store.  The sum survives as ``bytes_peak_sum`` (total
        footprint bound across stores).
        """
        merged_peak_sum = self.peak_sum + other.peak_sum
        for name in SUMMED_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.bytes_peak = max(self.bytes_peak, other.bytes_peak)
        self.bytes_peak_sum = merged_peak_sum
        return self


#: The counter names, spelled once (as the fields above) and in report order;
#: every one sums when views merge except the two peaks (see ``merge``).
COUNTER_FIELDS = tuple(f.name for f in fields(CacheStats))
SUMMED_COUNTERS = tuple(name for name in COUNTER_FIELDS if not name.startswith("bytes_peak"))


@dataclass(**DATACLASS_SLOTS)
class _Entry:
    """One live cache entry."""

    value: Any
    event_ms: float
    nbytes: int
    alloc_id: int


@dataclass
class _ChargeLedger:
    """Deferred per-batch charge counters (see ``flush_charges``)."""

    probed_keys: int = 0
    hit_bytes: int = 0
    inserted_keys: int = 0
    inserted_bytes: int = 0
    invalidated_keys: int = 0
    pending: bool = field(default=False)

    def any(self) -> bool:
        return self.pending


class DeviceResidentCache:
    """One keyed cache store charged against a simulated device.

    Args:
        machine: The machine whose clock and memory pools are charged.
        device: Device holding the cached rows (GPU for embedding/memory
            rows, the host CPU for sampling structures).
        kind: Entry kind tag (``"embedding"``, ``"sample"``, ``"memory"``);
            used for allocation tags and telemetry.
        policy: Eviction policy instance (not shared between stores).
        capacity_bytes: Residency budget.  Inserts evict victims until the
            new entry fits; a single entry larger than the budget is
            rejected outright (counted as an eviction-less miss).
        staleness_ms: Event-time staleness bound (strict; see module doc).
        cost_model: Machine-clock cost parameters.
        weight_of: Optional ``key -> weight`` callable consulted on insert
            (the degree-weighted policy's recompute-cost proxy).
    """

    def __init__(
        self,
        machine: Machine,
        device: Device,
        kind: str,
        policy: EvictionPolicy,
        capacity_bytes: int,
        staleness_ms: float,
        cost_model: Optional[CacheCostModel] = None,
        weight_of: Optional[Any] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        if staleness_ms < 0:
            raise ValueError("staleness bound must be non-negative")
        self.machine = machine
        self.device = device
        self.kind = kind
        self.policy = policy
        self.capacity_bytes = int(capacity_bytes)
        self.staleness_ms = float(staleness_ms)
        self.cost = cost_model if cost_model is not None else CacheCostModel()
        self.weight_of = weight_of
        self.stats = CacheStats()
        self._entries: Dict[Any, _Entry] = {}
        self._ledger = _ChargeLedger()
        self.tag = f"cache:{kind}"
        # Adaptive-fidelity override of the hit window (None = base bound).
        self._staleness_override: Optional[float] = None

    @property
    def effective_staleness_ms(self) -> float:
        """The staleness bound probes currently enforce.

        Equal to the configured ``staleness_ms`` unless the serving layer's
        degradation controller has widened it for the in-flight batch (see
        :meth:`set_staleness_override`).
        """
        if self._staleness_override is not None:
            return self._staleness_override
        return self.staleness_ms

    def set_staleness_override(self, staleness_ms: Optional[float]) -> None:
        """Temporarily widen (or restore) the probe hit window.

        ``None`` restores the configured bound.  Only *probes* consult the
        override: inserts and the staleness-0 write bypass stay governed by
        the base bound, so widening is purely an admission-side degradation
        and never changes what the cache stores.
        """
        if staleness_ms is not None and staleness_ms < self.staleness_ms:
            raise ValueError("staleness override must not be tighter than the base bound")
        self._staleness_override = None if staleness_ms is None else float(staleness_ms)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    @property
    def bytes_current(self) -> int:
        return self.stats.bytes_current

    def probe(self, key: Any, now_event_ms: float) -> Optional[Any]:
        """Look one key up at query event-time ``now_event_ms``.

        Returns the cached value on a hit and ``None`` on a miss.  An entry
        whose age falls outside ``[0, staleness_ms)`` is a miss; entries past
        the bound are expired (freed) on touch.  Charging is *deferred*: the
        caller batches probes and settles them with :meth:`flush_charges`.
        """
        self.stats.lookups += 1
        self._ledger.probed_keys += 1
        self._ledger.pending = True
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        age = now_event_ms - entry.event_ms
        staleness = self.effective_staleness_ms
        if 0.0 <= age < staleness:
            self.stats.hits += 1
            self._ledger.hit_bytes += entry.nbytes
            self.policy.on_access(key)
            return entry.value
        self.stats.misses += 1
        self.stats.stale_rejects += 1
        if age >= staleness:
            self._remove(key, entry)
            self.stats.stale_evictions += 1
        return None

    def probe_many(self, keys: Sequence[Any], times_ms: Sequence[float]) -> List[Any]:
        """Look up many keys, each at its own query event-time.

        Semantically identical to calling :meth:`probe` once per key, in
        order -- same stats, same deferred charges, same policy touches,
        same expire-on-touch behaviour -- but with the per-key Python
        overhead (attribute lookups, counter increments) hoisted out of the
        loop.  The memory-row admission path probes thousands of tiny keys
        per batch, where that overhead dwarfs the table work itself.
        Returns one value-or-``None`` per key.
        """
        n = len(keys)
        stats = self.stats
        stats.lookups += n
        ledger = self._ledger
        ledger.probed_keys += n
        ledger.pending = n > 0 or ledger.pending
        entries = self._entries
        staleness = self.effective_staleness_ms
        on_access = self.policy.on_access
        hits = 0
        misses = 0
        hit_bytes = 0
        results: List[Any] = []
        append = results.append
        for key, now in zip(keys, times_ms):
            entry = entries.get(key)
            if entry is None:
                misses += 1
                append(None)
                continue
            age = now - entry.event_ms
            if 0.0 <= age < staleness:
                hits += 1
                hit_bytes += entry.nbytes
                on_access(key)
                append(entry.value)
                continue
            misses += 1
            stats.stale_rejects += 1
            if age >= staleness:
                self._remove(key, entry)
                stats.stale_evictions += 1
            append(None)
        stats.hits += hits
        stats.misses += misses
        ledger.hit_bytes += hit_bytes
        return results

    # -- mutation ----------------------------------------------------------

    def put(self, key: Any, value: Any, event_ms: float, nbytes: int) -> bool:
        """Insert (or overwrite) one entry; returns whether it was admitted.

        Evicts policy victims until the entry fits the byte budget.  Entries
        larger than the whole budget are rejected.  Charging is deferred to
        :meth:`flush_charges`.

        Write bypass: under a zero staleness bound no entry can ever be
        served (the hit window ``[0, 0)`` is empty), so the insert is
        skipped entirely -- no copy kernel, no allocation, no occupancy.
        """
        if self.staleness_ms <= 0.0:
            return False
        nbytes = int(nbytes)
        if nbytes > self.capacity_bytes:
            return False
        previous = self._entries.get(key)
        if previous is not None:
            self._remove(key, previous)
        while self.stats.bytes_current + nbytes > self.capacity_bytes:
            victim = self.policy.victim()
            self._remove(victim, self._entries[victim])
            self.stats.evictions += 1
        alloc_id = self.machine.alloc(self.device, nbytes, tag=self.tag)
        self._entries[key] = _Entry(value, float(event_ms), nbytes, alloc_id)
        weight = self.weight_of(key) if self.weight_of is not None else None
        self.policy.on_insert(key, float(weight) if weight is not None else 0.0)
        self.stats.inserts += 1
        self.stats.bytes_current += nbytes
        self.stats.bytes_peak = max(self.stats.bytes_peak, self.stats.bytes_current)
        self.stats.entries = len(self._entries)
        self._ledger.inserted_keys += 1
        self._ledger.inserted_bytes += nbytes
        self._ledger.pending = True
        return True

    def put_many(
        self,
        keys: Sequence[Any],
        value: Any,
        times_ms: Sequence[float],
        nbytes: int,
    ) -> int:
        """Insert many same-sized entries sharing one value payload.

        :meth:`put` once per ``(key, event_ms)`` pair, in order.  Built for
        presence-style rows (TGN memory registration inserts ``True`` for
        every touched node); returns the number of admitted entries.
        """
        admitted = 0
        for key, event_ms in zip(keys, times_ms):
            admitted += self.put(key, value, event_ms, nbytes)
        return admitted

    def invalidate(self, keys: Iterable[Any]) -> int:
        """Drop every present entry among ``keys``; returns the drop count.

        Used when incoming graph events touch cached nodes: their
        neighbourhoods (and therefore samples/embeddings) changed, so the
        entries must not be served again regardless of the staleness bound.
        """
        dropped = 0
        for key in keys:
            entry = self._entries.get(key)
            if entry is None:
                continue
            self._remove(key, entry)
            dropped += 1
        self.stats.invalidations += dropped
        if dropped:
            self._ledger.invalidated_keys += dropped
            self._ledger.pending = True
        return dropped

    def flush(self) -> int:
        """Drop every live entry; returns the drop count.

        The bulk form of :meth:`invalidate`, used when a serving replica is
        spun down (its device memory is released) or cold-started (whatever
        the store held no longer exists on the new instance).  Charged like
        any other invalidation batch -- settle with :meth:`flush_charges`.
        """
        return self.invalidate(list(self._entries))

    def _remove(self, key: Any, entry: _Entry) -> None:
        del self._entries[key]
        self.policy.on_remove(key)
        self.machine.free(self.device, entry.alloc_id)
        self.stats.bytes_current -= entry.nbytes
        self.stats.entries = len(self._entries)

    # -- charging ----------------------------------------------------------

    def flush_charges(self, label: str = "") -> None:
        """Settle the deferred machine-clock charges of the current batch.

        Host-side table work (probes, insert bookkeeping, invalidations) is
        charged as one :meth:`~repro.hw.machine.Machine.host_work` item on
        the current CPU stream; the hit-row gather and the inserted-row copy
        are charged as bandwidth-bound kernels on the store's device.
        Batching the charges keeps the event log proportional to cache
        *batches*, not to individual keys.
        """
        ledger = self._ledger
        if not ledger.any():
            return
        machine = self.machine
        suffix = f"_{label}" if label else ""
        admin_ms = (
            self.cost.probe_ms(ledger.probed_keys)
            + self.cost.insert_ms(ledger.inserted_keys)
            + self.cost.invalidate_ms(ledger.invalidated_keys)
        )
        if admin_ms > 0.0:
            machine.host_work(f"cache_{self.kind}_admin{suffix}", admin_ms)
        if ledger.hit_bytes > 0:
            machine.launch_kernel(
                self.device,
                f"cache_{self.kind}_gather{suffix}",
                0.0,
                float(ledger.hit_bytes),
            )
        if ledger.inserted_bytes > 0:
            machine.launch_kernel(
                self.device,
                f"cache_{self.kind}_insert{suffix}",
                0.0,
                float(ledger.inserted_bytes),
            )
        self._ledger = _ChargeLedger()

    # -- introspection -----------------------------------------------------

    def entry_age_ms(self, key: Any, now_event_ms: float) -> Optional[float]:
        """Age of a live entry at ``now_event_ms`` (``None`` when absent)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        return now_event_ms - entry.event_ms
