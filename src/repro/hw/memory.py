"""Device memory tracking.

The paper reports per-configuration memory usage (Fig. 6) from PyTorch
Profiler.  The simulator reproduces this with a simple allocator attached to
each device: tensors register allocations when they are materialised on a
device and deallocations when they are released or moved away.  The allocator
records the current and peak footprint; the footprint over time is the
machine's ``alloc`` / ``free`` events, which the memory profiler in
:mod:`repro.core` turns into the Fig. 6 bars.
"""

from __future__ import annotations

from typing import Dict, Tuple


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the device capacity and the pool is strict."""


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
        #: ``alloc id -> (nbytes, tag)`` of every live allocation (exact
        #: tuples, which the garbage collector stops tracking).
        self._live: Dict[int, Tuple[int, str]] = {}
        self._current = 0
        self._peak = 0

    # -- allocation -----------------------------------------------------

    def alloc(self, nbytes: int, tag: str = "") -> int:
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
        self._live[alloc_id] = (size, tag)
        self._current = current = self._current + size
        if current > self._peak:
            self._peak = current
        return alloc_id

    def free(self, alloc_id: int) -> int:
        """Release an allocation; returns the number of bytes freed."""
        allocation = self._live.pop(alloc_id, None)
        if allocation is None:
            raise KeyError(f"{self.name}: unknown allocation id {alloc_id}")
        nbytes = allocation[0]
        self._current -= nbytes
        return nbytes

    # -- statistics -----------------------------------------------------

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def usage_by_tag(self) -> Dict[str, int]:
        """Live bytes grouped by allocation tag."""
        usage: Dict[str, int] = {}
        for nbytes, tag in self._live.values():
            usage[tag] = usage.get(tag, 0) + nbytes
        return usage
