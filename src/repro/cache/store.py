"""The device-charged staleness cache store.

A :class:`DeviceResidentCache` is one keyed store whose residency is charged
to a *simulated* device memory pool and whose lookups, inserts and
invalidations are charged to the machine clock.  What each charge is, the
strict event-time staleness window ``0 <= t_q - t_e < staleness_ms`` (so a
zero bound serves nothing, bypasses inserts and keeps cached execution
byte-identical to uncached) and expiry on touch are stated once, in
``docs/ARCHITECTURE.md``: layer 1 "Cache charging" and layer 4.

A *key batch is one run*: ``probe_many``, ``put_rows`` and ``invalidate``
each walk their keys in order inside one body, settle the policy's hit
touches once per batch and issue their pool traffic through one
:meth:`Machine.memory_run <repro.hw.machine.Machine.memory_run>`; the scalar
``probe`` / ``put`` are runs of one, so a batch equals its keys one at a
time, byte for byte (``tests/test_cache_store.py``, the
``batched-scalar-cache`` invariant).

A live entry is the exact tuple ``(value, event_ms, nbytes, alloc_id)``,
read by position: the value served on a hit, the event time its staleness
is measured from, its row size in bytes and the id of its simulated pool
allocation.  The value is an atomic: a sample or embedding row is one
``bytes`` record whose length is the entry's charged ``nbytes`` (packed
and read back per batch by :class:`~repro.cache.model_cache.ModelCache`),
a memory row a presence flag.  The collector never tracks ``bytes``, and
an exact tuple of atomics leaves its tracking after its first collection,
so a full store adds nothing for full collections to walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..domain import NON_NEGATIVE, POSITIVE, Domain
from ..hw import spec
from ..hw.device import Device
from ..hw.machine import Machine
from .policy import EvictionPolicy


def cache_admin_ms(probed: int, inserted: int, invalidated: int) -> float:
    """Host time (ms) of a batch's table work: its probed, inserted and
    invalidated keys at the cache prices of :mod:`repro.hw.spec`."""
    return (
        probed * spec.CACHE_PROBE_US_PER_KEY * 1e-3
        + inserted * spec.CACHE_INSERT_US_PER_KEY * 1e-3
        + invalidated * spec.CACHE_INVALIDATE_US_PER_KEY * 1e-3
    )


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
            new entry fits; an entry larger than the whole budget is
            rejected outright: :meth:`put_rows` returns 0 before touching
            the store, so nothing is evicted or admitted, no counter moves
            and an older entry under the same key stays as it was.
        staleness_ms: Event-time staleness bound (strict).
        weight_of: Optional ``key -> weight`` callable consulted on insert
            when the policy reads weights (the degree-weighted policy's
            recompute-cost proxy).
    """

    def __init__(
        self,
        machine: Machine,
        device: Device,
        kind: str,
        policy: EvictionPolicy,
        capacity_bytes: int,
        staleness_ms: float,
        weight_of: Optional[Any] = None,
    ) -> None:
        self.machine = machine
        self.device = device
        self.kind = kind
        self.policy = policy
        self.capacity_bytes = int(POSITIVE.check("cache capacity", capacity_bytes))
        self.staleness_ms = float(NON_NEGATIVE.check("staleness bound", staleness_ms))
        self.weight_of = weight_of
        self.stats = CacheStats()
        #: key -> (value, event_ms, nbytes, alloc_id); a row value is a
        #: ``bytes`` record of length ``nbytes`` (see the module docstring).
        self._entries: Dict[Any, Tuple[Any, float, int, int]] = {}
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

    @property
    def admits_writes(self) -> bool:
        """False under a zero staleness bound: no probe could hit what is inserted."""
        return self.staleness_ms > 0.0

    def set_staleness_override(self, staleness_ms: Optional[float]) -> None:
        """Temporarily widen (or restore) the probe hit window.

        ``None`` restores the configured bound.  Only *probes* consult the
        override: inserts and the staleness-0 write bypass stay governed by
        the base bound, so widening is purely an admission-side degradation
        and never changes what the cache stores.
        """
        if staleness_ms is not None:
            Domain(self.staleness_ms, infinite=True).check("staleness override", staleness_ms)
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
        """Look one key up at query event-time ``now_event_ms``: a probe batch of one."""
        return self.probe_many((key,), (now_event_ms,))[0]

    def probe_many(
        self, keys: Sequence[Any], times_ms: Sequence[float], nbytes: Optional[int] = None
    ) -> List[Any]:
        """Look up a batch of keys, each at its own query event-time.

        Returns the cached value per hit and ``None`` per miss.  An entry
        whose age falls outside ``[0, staleness_ms)`` is a miss; entries past
        the bound are expired (freed) on touch.  Given ``nbytes``, a fresh
        entry of any other size is a plain miss too (no hit, no gather, not
        a stale reject): a row of another width answers no query.  The
        policy hears of a batch's hits in one
        :meth:`~EvictionPolicy.on_access_many`, settled before any expiry so
        it sees touches and removals in key order.
        Charging is *deferred* to :meth:`flush_charges`.
        """
        if len(keys) != len(times_ms):
            raise ValueError(f"probe_many got {len(keys)} keys but {len(times_ms)} times")
        stats = self.stats
        entries = self._entries
        staleness = self.effective_staleness_ms
        hits = hit_bytes = stale = 0
        touched: List[Any] = []
        touch = touched.append
        results: List[Any] = []
        append = results.append
        for key, now in zip(keys, times_ms):
            entry = entries.get(key)
            if entry is None:
                append(None)
                continue
            age = now - entry[1]
            if 0.0 <= age < staleness:
                if nbytes is not None and entry[2] != nbytes:
                    append(None)
                    continue
                hit_bytes += entry[2]
                touch(key)
                append(entry[0])
                continue
            append(None)
            stale += 1
            if age >= staleness:
                self.policy.on_access_many(touched)
                hits += len(touched)
                touched.clear()
                with self.machine.memory_run(self.device, self.tag) as (_, free):
                    del entries[key]
                    self.policy.on_remove(key)
                    stats.bytes_current -= free(entry[3])
                stats.stale_evictions += 1
        if touched:
            self.policy.on_access_many(touched)
            hits += len(touched)
        stats.lookups += len(results)
        stats.hits += hits
        stats.misses += len(results) - hits
        stats.stale_rejects += stale
        stats.entries = len(entries)
        if results:
            ledger = self._ledger
            ledger.probed_keys += len(results)
            ledger.hit_bytes += hit_bytes
            ledger.pending = True
        return results

    # -- mutation ----------------------------------------------------------

    def put(self, key: Any, value: Any, event_ms: float, nbytes: int) -> bool:
        """Insert (or overwrite) one entry; returns whether it was admitted."""
        return bool(self.put_rows((key,), (value,), (event_ms,), nbytes))

    def put_many(
        self, keys: Sequence[Any], value: Any, times_ms: Sequence[float], nbytes: int
    ) -> int:
        """:meth:`put_rows` with one ``value`` shared by every key (presence rows)."""
        return self.put_rows(keys, [value] * len(keys), times_ms, nbytes)

    def put_rows(
        self, keys: Sequence[Any], values: Sequence[Any], times_ms: Sequence[float], nbytes: int
    ) -> int:
        """Insert (or overwrite) same-sized entries in key order; returns how many were admitted.

        Each key evicts policy victims until its entry fits the byte budget.
        Entries larger than the whole budget are rejected, and under a zero
        staleness bound -- nothing inserted could ever be served -- the
        insert is bypassed outright.  The whole batch is one
        :meth:`~repro.hw.machine.Machine.memory_run`; if a strict pool raises
        part-way, the keys before it stay admitted and counted.  Charging is
        deferred to :meth:`flush_charges`.
        """
        if not len(keys) == len(values) == len(times_ms):
            raise ValueError(
                f"put got {len(keys)} keys but {len(values)} values and {len(times_ms)} times"
            )
        nbytes = int(nbytes)
        capacity = self.capacity_bytes
        if not self.admits_writes or nbytes > capacity:
            return 0
        stats = self.stats
        entries = self._entries
        policy = self.policy
        on_insert, on_remove, next_victim = policy.on_insert, policy.on_remove, policy.victim
        weight_of = self.weight_of if policy.reads_weights else None
        current, peak = stats.bytes_current, stats.bytes_peak
        admitted = evictions = 0
        weight = None
        with self.machine.memory_run(self.device, self.tag) as (alloc, free):
            try:
                for key, value, event_ms in zip(keys, values, times_ms):
                    previous = entries.pop(key, None)
                    if previous is not None:
                        on_remove(key)
                        current -= free(previous[3])
                    while current + nbytes > capacity:
                        victim = next_victim()
                        evicted = entries.pop(victim)
                        on_remove(victim)
                        current -= free(evicted[3])
                        evictions += 1
                    entries[key] = (value, float(event_ms), nbytes, alloc(nbytes))
                    if weight_of is not None:
                        weight = weight_of(key)
                    on_insert(key, float(weight) if weight is not None else 0.0)
                    current += nbytes
                    if current > peak:
                        peak = current
                    admitted += 1
            finally:
                stats.inserts += admitted
                stats.evictions += evictions
                stats.bytes_current, stats.bytes_peak = current, peak
                stats.entries = len(entries)
                if admitted:
                    ledger = self._ledger
                    ledger.inserted_keys += admitted
                    ledger.inserted_bytes += admitted * nbytes
                    ledger.pending = True
        return admitted

    def invalidate(self, keys: Iterable[Any]) -> int:
        """Drop every present entry among ``keys``; returns the drop count.

        Used when incoming graph events touch cached nodes: their
        neighbourhoods (and therefore samples/embeddings) changed, so the
        entries must not be served again regardless of the staleness bound.
        """
        stats = self.stats
        entries = self._entries
        on_remove = self.policy.on_remove
        dropped = released = 0
        with self.machine.memory_run(self.device, self.tag) as (_, free):
            try:
                for key in keys:
                    entry = entries.pop(key, None)
                    if entry is not None:
                        on_remove(key)
                        released += free(entry[3])
                        dropped += 1
            finally:
                stats.bytes_current -= released
                stats.entries = len(entries)
                stats.invalidations += dropped
                if dropped:
                    self._ledger.invalidated_keys += dropped
                    self._ledger.pending = True
        return dropped

    def flush(self) -> int:
        """Drop every live entry (:meth:`invalidate` over all of them).

        Used when a serving replica is spun down (its device memory is
        released) or cold-started (whatever the store held no longer exists
        on the new instance).
        """
        return self.invalidate(list(self._entries))

    # -- charging ----------------------------------------------------------

    def flush_charges(self, label: str = "") -> None:
        """Settle the deferred machine-clock charges of the current batch.

        One ``host_work`` for the table work, one gather kernel for the hit
        rows and one copy kernel for the inserted rows (ARCHITECTURE layer 1,
        "Cache charging"), so the log grows with batches, not keys.
        """
        ledger = self._ledger
        if not ledger.any():
            return
        machine = self.machine
        suffix = f"_{label}" if label else ""
        admin_ms = cache_admin_ms(
            ledger.probed_keys, ledger.inserted_keys, ledger.invalidated_keys
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
