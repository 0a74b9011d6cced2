"""Simulated compute devices.

A :class:`Device` combines a :class:`~repro.hw.spec.DeviceSpec` with a busy
:class:`~repro.hw.timeline.Timeline` and a :class:`~repro.hw.memory.MemoryPool`.
The :class:`~repro.hw.machine.Machine` schedules kernels onto devices; the
device computes kernel durations from its roofline cost model.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from .memory import MemoryPool
from .spec import DeviceSpec
from .stream import Stream, StreamSet
from .timeline import Timeline

#: Entries :attr:`Device._cost_cache` may hold before it is cleared wholesale
#: (the cost model is a pure function of the key, so a cleared memo only
#: recomputes): data-dependent shapes must not grow a long-running server.
_COST_CACHE_LIMIT = 4096


class Device:
    """A simulated CPU or GPU.

    Args:
        spec: Cost-model parameters of the device.
        strict_memory: Whether the memory pool enforces the capacity.
    """

    def __init__(self, spec: DeviceSpec, strict_memory: bool = False) -> None:
        self.spec = spec
        self.streams = StreamSet(spec.name)
        self.memory = MemoryPool(
            spec.name, int(spec.memory_capacity_mb * 1e6), strict=strict_memory
        )
        # Identity is immutable (the spec is frozen), so it is cached as
        # plain attributes: these are read on every kernel launch and every
        # event record, where property dispatch is measurable overhead.
        self.name: str = spec.name
        self.kind: str = spec.kind
        self.is_gpu: bool = spec.is_gpu
        self.is_cpu: bool = spec.is_cpu
        self.default_stream: Stream = self.streams.default
        #: Memo of :meth:`kernel_ms` durations keyed by (flops, bytes): DGNN
        #: inference launches long homogeneous sequences of identically
        #: shaped kernels (RNN steps, per-head attention blocks, repeated
        #: mini-batches), so the cost model is recomputed only on the first
        #: occurrence of each shape.  Like the link's memo it holds floats,
        #: which the cyclic garbage collector never tracks.
        self._cost_cache: Dict[Tuple[float, float], float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.spec.name!r}, kind={self.spec.kind!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Device) and other.spec.name == self.spec.name

    def __hash__(self) -> int:
        return hash(self.spec.name)

    # -- cost model -----------------------------------------------------

    def kernel_ms(self, flops: float, bytes_moved: float) -> float:
        """Duration of one kernel under the device's roofline model.

        The kernel is compute bound when ``flops / effective_gflops`` exceeds
        ``bytes / bandwidth`` and memory bound otherwise; a fixed launch
        overhead is always added (``launch + max(compute, memory)``, the
        body floored at ``min_kernel_us``).  Small kernels are penalised
        through the spec's saturation curve, which is the mechanism behind
        low GPU utilization for serialized DGNN updates.
        """
        cached = self._cost_cache.get((flops, bytes_moved))
        if cached is None:
            # Checked on a miss only: a NaN never hits, so it always lands here.
            if not (0 <= flops < math.inf and 0 <= bytes_moved < math.inf):
                raise ValueError("flops and bytes must be non-negative and finite")
            spec = self.spec
            compute_ms = flops / (spec.effective_gflops(flops) * 1e6) if flops > 0 else 0.0
            memory_ms = bytes_moved / (spec.mem_bandwidth_gbps * 1e6)
            cached = spec.launch_overhead_us * 1e-3 + max(
                compute_ms, memory_ms, spec.min_kernel_us * 1e-3
            )
            if len(self._cost_cache) >= _COST_CACHE_LIMIT:
                self._cost_cache.clear()
            self._cost_cache[(flops, bytes_moved)] = cached
        return cached

    # -- streams / scheduling -------------------------------------------

    def stream(self, name: str) -> Stream:
        """Look up (creating on first use) a named execution stream."""
        return self.streams.stream(name)

    @property
    def timeline(self) -> Timeline:
        """The default stream's timeline (the seed's single device queue)."""
        return self.streams.default.timeline

    @property
    def free_at(self) -> float:
        """Time at which all of the device's streams have drained."""
        return self.streams.free_at

    # -- statistics -----------------------------------------------------

    def busy_ms(self, start_ms: Optional[float] = None, end_ms: Optional[float] = None) -> float:
        """Union busy time across all streams (concurrent work counts once)."""
        return self.streams.busy_ms(start_ms, end_ms)

    def utilization(self, start_ms: float, end_ms: float) -> float:
        if end_ms <= start_ms:
            return 0.0
        return self.busy_ms(start_ms, end_ms) / (end_ms - start_ms)
