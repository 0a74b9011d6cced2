"""Device memory tracking.

The paper reports per-configuration memory usage (Fig. 6) from PyTorch
Profiler.  The simulator reproduces this with a simple allocator attached to
each device: tensors register allocations when they are materialised on a
device and deallocations when they are released or moved away.  The allocator
records the current and peak footprint and a time series of the footprint,
which the memory profiler in :mod:`repro.core` turns into the Fig. 6 bars.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the device capacity and the pool is strict."""


class Allocation(NamedTuple):
    """One live allocation on a device."""

    alloc_id: int
    nbytes: int
    tag: str


class MemoryPool:
    """Tracks allocations on one device.

    Args:
        name: Device name (for error messages and reports).
        capacity_bytes: Device memory capacity.  When ``strict`` is true,
            exceeding it raises :class:`OutOfMemoryError`; otherwise the
            over-subscription is only reflected in the statistics.
        strict: Whether to enforce the capacity.
    """

    def __init__(self, name: str, capacity_bytes: int, strict: bool = False) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self.strict = strict
        self._next_id = 0
        self._live: Dict[int, Allocation] = {}
        self._current = 0
        self._peak = 0
        self._total_allocated = 0
        #: Footprint samples, appended on every change, as two parallel
        #: columns (timestamp_ms, current_bytes); see :attr:`history`.
        self._history_ms: List[float] = []
        self._history_bytes: List[int] = []

    # -- allocation -----------------------------------------------------

    def alloc(self, nbytes: int, tag: str = "", at_ms: float = 0.0) -> int:
        """Register an allocation and return its id."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.strict and self._current + nbytes > self.capacity_bytes:
            raise OutOfMemoryError(
                f"{self.name}: allocation of {nbytes} bytes exceeds capacity "
                f"({self._current}/{self.capacity_bytes} in use)"
            )
        alloc_id = self._next_id
        self._next_id += 1
        size = int(nbytes)
        self._live[alloc_id] = Allocation(alloc_id, size, tag)
        self._current = current = self._current + size
        self._total_allocated += size
        if current > self._peak:
            self._peak = current
        self._history_ms.append(at_ms)
        self._history_bytes.append(current)
        return alloc_id

    def free(self, alloc_id: int, at_ms: float = 0.0) -> int:
        """Release an allocation; returns the number of bytes freed."""
        allocation = self._live.pop(alloc_id, None)
        if allocation is None:
            raise KeyError(f"{self.name}: unknown allocation id {alloc_id}")
        self._current = current = self._current - allocation.nbytes
        self._history_ms.append(at_ms)
        self._history_bytes.append(current)
        return allocation.nbytes

    # -- statistics -----------------------------------------------------

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def history(self) -> Tuple[Tuple[float, int], ...]:
        """Footprint samples as ``(timestamp_ms, bytes)`` pairs."""
        return tuple(zip(self._history_ms, self._history_bytes))

    def usage_by_tag(self) -> Dict[str, int]:
        """Live bytes grouped by allocation tag."""
        usage: Dict[str, int] = {}
        for allocation in self._live.values():
            usage[allocation.tag] = usage.get(allocation.tag, 0) + allocation.nbytes
        return usage
