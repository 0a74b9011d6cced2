"""Pluggable eviction policies for the serving caches.

A policy orders the live entries of one :class:`~repro.cache.store.DeviceResidentCache`
and nominates victims when an insert does not fit the capacity budget.  Three
policies cover the trade-offs the ``cache_ablation`` experiment sweeps:

* **LRU** -- evict the least recently *served* entry.  The classic serving
  default: temporal-interaction workloads are bursty per node, so recency is
  a strong reuse signal.
* **LFU** -- evict the least frequently served entry (ties broken towards the
  oldest insertion).  Protects perennially hot nodes against one-off scans.
* **Degree-weighted** -- evict the entry whose node has the *smallest*
  temporal degree.  A high-degree node's neighbourhood sample and embedding
  are the most expensive to recompute (the paper's sampling cost grows with
  the candidate-list length), so the policy keeps exactly the entries whose
  misses hurt most -- a DGNN-specific refinement over LRU/LFU.

All policies are deterministic: victims depend only on the sequence of
``on_insert``/``on_access``/``on_remove`` calls (and the insertion weights),
never on hash order or wall clock.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Key = Any


class EvictionPolicy:
    """Orders cache entries and nominates eviction victims.

    The owning store calls :meth:`on_insert` when an entry is created,
    :meth:`on_access_many` with the entries a probe batch served,
    :meth:`on_remove` when an entry leaves for any reason (eviction,
    invalidation, staleness expiry, overwrite), and :meth:`victim` to pick
    the next entry to evict.
    """

    name = "policy"
    #: Whether :meth:`on_insert` uses its ``weight``; the store does not
    #: compute one for a policy that would ignore it.
    reads_weights = False

    def on_insert(self, key: Key, weight: float = 0.0) -> None:
        raise NotImplementedError

    def on_access(self, key: Key) -> None:
        raise NotImplementedError

    def on_access_many(self, keys: Iterable[Key]) -> None:
        """:meth:`on_access` for each key in order (the hits of one probe batch)."""
        for key in keys:
            self.on_access(key)

    def on_remove(self, key: Key) -> None:
        raise NotImplementedError

    def victim(self) -> Key:
        """The key to evict next; raises :class:`KeyError` when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least-recently-used: victims come from the cold end of a recency list."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[Key, None]" = OrderedDict()

    def on_insert(self, key: Key, weight: float = 0.0) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_access(self, key: Key) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def on_access_many(self, keys: Iterable[Key]) -> None:
        # The store passes live keys only, so touch without a membership test.
        # An unknown key raises KeyError after the iterator has yielded it, so
        # the next pass resumes just past it.
        move_to_end, keys = self._order.move_to_end, iter(keys)
        while True:
            try:
                deque(map(move_to_end, keys), maxlen=0)
            except KeyError:
                continue
            return

    def on_remove(self, key: Key) -> None:
        self._order.pop(key, None)

    def victim(self) -> Key:
        if not self._order:
            raise KeyError("cannot pick a victim from an empty cache")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class _HeapPolicy(EvictionPolicy):
    """Shared machinery for priority-ordered policies (LFU, degree-weighted).

    Keeps a lazy min-heap of ``(priority, tie, key, version)`` entries; stale
    heap entries (older version, or removed key) are discarded when popped.
    ``tie`` is a monotonically increasing insertion sequence, so equal
    priorities evict the oldest entry -- a deterministic total order.
    """

    def __init__(self) -> None:
        #: key -> (priority, tie, version)
        self._live: Dict[Key, Tuple[float, int, int]] = {}
        self._heap: List[Tuple[float, int, Key, int]] = []
        self._sequence = 0

    def _set(self, key: Key, priority: float, tie: Optional[int] = None) -> None:
        previous = self._live.get(key)
        if tie is None:
            if previous is not None:
                tie = previous[1]
            else:
                self._sequence += 1
                tie = self._sequence
        version = (previous[2] + 1) if previous is not None else 0
        self._live[key] = (priority, tie, version)
        heapq.heappush(self._heap, (priority, tie, key, version))

    def on_remove(self, key: Key) -> None:
        self._live.pop(key, None)

    def victim(self) -> Key:
        while self._heap:
            priority, tie, key, version = self._heap[0]
            current = self._live.get(key)
            if current is not None and current == (priority, tie, version):
                return key
            heapq.heappop(self._heap)
        raise KeyError("cannot pick a victim from an empty cache")

    def __len__(self) -> int:
        return len(self._live)


class LFUPolicy(_HeapPolicy):
    """Least-frequently-used: priority is the entry's hit count."""

    name = "lfu"

    def on_insert(self, key: Key, weight: float = 0.0) -> None:
        self._sequence += 1
        self._live[key] = (0.0, self._sequence, 0)
        heapq.heappush(self._heap, (0.0, self._sequence, key, 0))

    def on_access(self, key: Key) -> None:
        entry = self._live.get(key)
        if entry is None:
            return
        self._set(key, entry[0] + 1.0)


class DegreeWeightedPolicy(_HeapPolicy):
    """Evict the smallest-degree node first; hits do not reorder entries.

    The insertion ``weight`` is the node's temporal degree (supplied by the
    model cache from the sampler's adjacency index), i.e. a proxy for how
    expensive the entry is to recompute on a miss.
    """

    name = "degree"
    reads_weights = True

    def on_insert(self, key: Key, weight: float = 0.0) -> None:
        self._sequence += 1
        self._live[key] = (float(weight), self._sequence, 0)
        heapq.heappush(self._heap, (float(weight), self._sequence, key, 0))

    def on_access(self, key: Key) -> None:
        return None

    def on_access_many(self, keys: Iterable[Key]) -> None:
        return None


#: Policy registry keyed by CLI/config name.
EVICTION_POLICIES: Dict[str, Callable[[], EvictionPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    LFUPolicy.name: LFUPolicy,
    DegreeWeightedPolicy.name: DegreeWeightedPolicy,
}


def available_eviction_policies() -> List[str]:
    return list(EVICTION_POLICIES)


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate a registered eviction policy by name."""
    try:
        factory = EVICTION_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown eviction policy {name!r}; available: "
            f"{', '.join(EVICTION_POLICIES)}"
        ) from None
    return factory()
