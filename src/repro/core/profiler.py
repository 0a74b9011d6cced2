"""Profiler: captures a window of simulated execution for analysis.

Plays the role of PyTorch Profiler + Nsight Systems in the paper's
methodology.  A :class:`Profiler` wraps a :class:`~repro.hw.machine.Machine`;
entering its capture context snapshots the event cursor and simulated clock,
leaving it (after an implicit device synchronisation) produces a
:class:`Profile` -- an immutable view of everything that happened in between:
kernel events, transfers, synchronisations, warm-up steps and memory
activity.

What a capture keeps: the window's rows (a slice of the log, no copies of
the rows themselves) plus, per device, the three counters the log cannot
reproduce bit for bit -- the union busy time across its streams, the FLOPs
charged and the memory pool's bytes -- read from the machine at both ends
of the window, never by rescanning the event log.  The FLOPs and bytes are
running counters (O(1) each); the busy time is one
:func:`~repro.hw.stream.union_busy_ms` sweep over the device's intervals
(O(intervals) in numpy, a fixed number of Python calls).
Anything per stream is read from the rows.  The machine logs each event as
a row -- a plain 11-field tuple in :class:`~repro.hw.events.Event` field
order, whose region tuple is interned (all events issued inside one region
share one tuple object) and which the garbage collector stops tracking
after its first collection.  A machine built with ``record_events=False``
skips logging entirely -- detailed profiling is an opt-in cost, not a tax
on every simulated action.  A capture on such a machine still reports the
per-device counters but has no rows, so its event list is empty and its
per-stream view reads 0.

Cost model of reading a :class:`Profile`: everything the analysis computes
-- the merged busy runs (``busy_timeline``), utilization, the time and byte
totals, the kernel counts and ``memory_timeline`` -- reads ``rows`` through
one lazily built index (the first per-kind read partitions the window in a
single pass, the per-device split is derived from a kind's partition on
first use) and builds no ``Event``.  The one ``Event`` view is
``events``, built once on first read; a filtered view is a comprehension
over it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .._compat import DATACLASS_SLOTS, ordered_sum
from ..hw.events import ALLOC, FREE, KERNEL, SYNC, TRANSFER, WARMUP, Event, event_view
from ..hw.machine import Machine
from ..hw.timeline import Timeline, merged_runs


@dataclass(frozen=True, **DATACLASS_SLOTS)
class DeviceSnapshot:
    """Per-device statistics captured over one profiling window.

    ``busy_ms`` is the *union* busy time across the device's streams
    (concurrent work on two streams counts once); the per-stream split is
    :meth:`Profile.stream_busy_ms`.
    """

    name: str
    kind: str
    peak_gflops: float
    busy_ms: float
    flops: float
    peak_memory_bytes: int
    start_memory_bytes: int
    end_memory_bytes: int


class _EventIndex:
    """Lazily built partitions of one window's rows, issue order preserved.

    Each level is built on first use so a reader pays only for what it asks:
    the by-kind partition is one pass over the window, the per-resource split
    of a kind is one pass over that kind's rows, and a device's merged busy
    runs are one numpy sort and merge of its kernel (and warm-up) rows -- no
    ``Event`` at all.
    Rows are in ``Event`` field order: kind ``[0]``, resource ``[2]``,
    start ``[3]``, end ``[4]``, bytes ``[6]``.
    """

    __slots__ = ("_rows", "_by_kind", "_by_resource", "_busy")

    def __init__(self, rows: Tuple[tuple, ...]) -> None:
        self._rows = rows
        self._by_kind: Optional[Dict[str, Tuple[tuple, ...]]] = None
        self._by_resource: Dict[str, Dict[str, Tuple[tuple, ...]]] = {}
        self._busy: Dict[Tuple[str, bool], Timeline] = {}

    def rows_of_kind(self, kind: str) -> Tuple[tuple, ...]:
        if self._by_kind is None:
            parts: Dict[str, List[tuple]] = {}
            for row in self._rows:
                parts.setdefault(row[0], []).append(row)
            self._by_kind = {name: tuple(part) for name, part in parts.items()}
        return self._by_kind.get(kind, ())

    def rows_on(self, resource: str, kind: str) -> Tuple[tuple, ...]:
        split = self._by_resource.get(kind)
        if split is None:
            parts: Dict[str, List[tuple]] = {}
            for row in self.rows_of_kind(kind):
                parts.setdefault(row[2], []).append(row)
            split = self._by_resource[kind] = {name: tuple(part) for name, part in parts.items()}
        return split.get(resource, ())

    def busy_timeline(self, device_name: str, include_warmup: bool) -> Timeline:
        key = (device_name, include_warmup)
        timeline = self._busy.get(key)
        if timeline is None:
            rows = self.rows_on(device_name, KERNEL)
            if include_warmup:
                rows += self.rows_on(device_name, WARMUP)
            starts = np.fromiter(map(itemgetter(3), rows), dtype=np.float64, count=len(rows))
            ends = np.fromiter(map(itemgetter(4), rows), dtype=np.float64, count=len(rows))
            order = np.lexsort((ends, starts))
            # Merge overlaps so kernels running concurrently on different
            # streams count once; utilization must stay <= 1 for overlapped
            # schedules.
            run_starts, run_ends, _ = merged_runs(starts[order], ends[order])
            timeline = self._busy[key] = Timeline.from_intervals(
                device_name, zip(run_starts.tolist(), run_ends.tolist())
            )
        return timeline


#: Row kinds that occupy the stream they name (a ``SYNC`` row only waits on it).
_OCCUPYING = frozenset({KERNEL, TRANSFER, WARMUP})


def _duration_ms(rows: Tuple[tuple, ...]) -> float:
    """Summed ``end_ms - start_ms`` of ``rows``, as ``Event.duration_ms`` would sum."""
    return ordered_sum(row[4] - row[3] for row in rows)


@dataclass(frozen=True)
class Profile:
    """Everything recorded between the start and end of a capture window.

    Attributes:
        start_ms / end_ms: Simulated window boundaries (host clock).
        rows: The events issued inside the window, in issue order, as the
            log stores them: one 11-field tuple each, in ``Event`` field
            order.  The analysis reads these.
        events: The same events as ``Event`` values -- built from
            :attr:`rows` on first read, not a field.
        devices: Per-device statistics over the window.
        label: Optional label supplied when the capture was opened.
    """

    start_ms: float
    end_ms: float
    rows: Tuple[tuple, ...]
    devices: Tuple[DeviceSnapshot, ...]
    label: str = ""

    @cached_property
    def events(self) -> Tuple[Event, ...]:
        return tuple(map(event_view, self.rows))

    # -- basic views ---------------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        """Wall-clock (host) time of the window."""
        return self.end_ms - self.start_ms

    @cached_property
    def _index(self) -> _EventIndex:
        # Not a dataclass field: equality, hashing and ``replace`` ignore it.
        return _EventIndex(self.rows)

    def device(self, name_or_kind: str) -> Optional[DeviceSnapshot]:
        """Find a device snapshot by name or by kind (``"cpu"``/``"gpu"``)."""
        for snapshot in self.devices:
            if snapshot.name == name_or_kind or snapshot.kind == name_or_kind:
                return snapshot
        return None

    def stream_busy_ms(self, name_or_kind: str, stream: str) -> float:
        """Time one stream of one device (or any link, by name) was occupied.

        The summed durations of the window's kernel, transfer and warm-up
        rows on that resource and stream.  A ``SYNC`` row names the stream
        it waited on but occupies nothing, so it is not counted.
        """
        snapshot = self.device(name_or_kind)
        resource = snapshot.name if snapshot is not None else name_or_kind
        return ordered_sum(
            row[4] - row[3]
            for row in self.rows
            if row[2] == resource and row[10] == stream and row[0] in _OCCUPYING
        )

    def busy_timeline(self, device_name: str, include_warmup: bool = False) -> Timeline:
        """Merged busy runs of one named device as a queryable timeline.

        Kernels (and, on request, warm-up steps) of all the device's streams,
        overlaps merged, zero-length events dropped; ``busy_ms(lo, hi)`` on
        the result is the device's busy time inside any sub-window.  The
        timeline is cached and shared between callers: query it, never
        ``reserve`` on it.
        """
        return self._index.busy_timeline(device_name, include_warmup)

    # -- headline statistics ----------------------------------------------------

    def device_busy_ms(self, kind: str) -> float:
        snapshot = self.device(kind)
        return snapshot.busy_ms if snapshot else 0.0

    def gpu_utilization(self, include_warmup: bool = False) -> float:
        """Average busy fraction of the *first* GPU over the window.

        Warm-up intervals are excluded by default so the number reflects the
        steady-state utilization the paper reports (a few percent for most
        DGNNs).  On a multi-GPU machine this reports GPU 0 (the seed's "the
        GPU"); name other devices explicitly via :meth:`device_utilization`.
        """
        gpu = self.device("gpu")
        if gpu is None or self.elapsed_ms <= 0:
            return 0.0
        return self.device_utilization(gpu.name, include_warmup=include_warmup)

    def device_utilization(self, name: str, include_warmup: bool = False) -> float:
        """Busy fraction of one explicitly named device over the window."""
        snapshot = self.device(name)
        if snapshot is None or self.elapsed_ms <= 0:
            return 0.0
        busy = snapshot.busy_ms
        if not include_warmup:
            busy -= _duration_ms(self._index.rows_on(snapshot.name, WARMUP))
        return max(0.0, min(1.0, busy / self.elapsed_ms))

    def per_gpu_utilization(self, include_warmup: bool = False) -> Dict[str, float]:
        """Busy fraction of every GPU, keyed by device name."""
        return {
            snapshot.name: self.device_utilization(snapshot.name, include_warmup=include_warmup)
            for snapshot in self.devices
            if snapshot.kind == "gpu"
        }

    def gpu_compute_efficiency(self) -> float:
        """Achieved fraction of GPU peak FLOP/s over the window."""
        gpu = self.device("gpu")
        if gpu is None or self.elapsed_ms <= 0 or gpu.peak_gflops <= 0:
            return 0.0
        achieved_gflops = gpu.flops / (self.elapsed_ms * 1e6)
        return max(0.0, min(1.0, achieved_gflops / gpu.peak_gflops))

    def transfer_time_ms(self) -> float:
        return _duration_ms(self._index.rows_of_kind(TRANSFER))

    def transfer_bytes(self) -> int:
        return sum(row[6] for row in self._index.rows_of_kind(TRANSFER))

    def sync_wait_ms(self) -> float:
        return _duration_ms(self._index.rows_of_kind(SYNC))

    def warmup_ms(self) -> float:
        return _duration_ms(self._index.rows_of_kind(WARMUP))

    def peak_memory_mb(self, kind: str) -> float:
        snapshot = self.device(kind)
        return snapshot.peak_memory_bytes / 1e6 if snapshot else 0.0

    def kernel_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self._index.rows_of_kind(KERNEL))
        snapshot = self.device(kind)
        if snapshot is None:
            return 0
        return len(self._index.rows_on(snapshot.name, KERNEL))

    def kernel_time_ms(self, kind: str) -> float:
        """Summed kernel time on one device (by name or kind)."""
        snapshot = self.device(kind)
        if snapshot is None:
            return 0.0
        return _duration_ms(self._index.rows_on(snapshot.name, KERNEL))

    def mean_kernel_ms(self, kind: str) -> float:
        snapshot = self.device(kind)
        if snapshot is None:
            return 0.0
        durations = [row[4] - row[3] for row in self._index.rows_on(snapshot.name, KERNEL)]
        return ordered_sum(durations) / len(durations) if durations else 0.0

    # -- memory over time ----------------------------------------------------------

    def memory_timeline(self, kind: str) -> List[Tuple[float, int]]:
        """Reconstruct the device footprint over the window from alloc/free events."""
        snapshot = self.device(kind)
        if snapshot is None:
            return []
        current = snapshot.start_memory_bytes
        series: List[Tuple[float, int]] = [(self.start_ms, current)]
        for kind, _, resource, start_ms, _, _, nbytes, _, _, _, _ in self.rows:
            if resource != snapshot.name:
                continue
            if kind == ALLOC:
                current += nbytes
            elif kind == FREE:
                current -= nbytes
            else:
                continue
            series.append((start_ms, current))
        series.append((self.end_ms, current))
        return series


class Profiler:
    """Captures profiling windows on a machine.

    Example::

        profiler = Profiler(machine)
        with machine.activate(), profiler.capture("iteration-0"):
            model.inference_iteration(batch)
        profile = profiler.last_profile
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.profiles: List[Profile] = []

    @property
    def last_profile(self) -> Profile:
        if not self.profiles:
            raise RuntimeError("no profile captured yet")
        return self.profiles[-1]

    @contextlib.contextmanager
    def capture(self, label: str = "", synchronize: bool = True) -> Iterator["Profiler"]:
        """Capture everything that executes inside the block.

        By default the capture ends with a device synchronisation so queued
        GPU work is included in the window, exactly as the paper's profiling
        scripts call ``torch.cuda.synchronize()`` around each iteration.
        """
        machine = self.machine
        start_cursor = machine.event_cursor()
        start_ms = machine.host_time_ms
        start_memory = {d.name: d.memory.current_bytes for d in machine.devices}
        start_busy = {d.name: d.busy_ms() for d in machine.devices}
        # O(1) snapshot of the machine's running per-device FLOP counters
        # (the profiler used to rescan the whole event log here, which made
        # repeated captures O(n^2) across a run).
        start_flops = machine.device_flops_totals()
        try:
            yield self
        finally:
            if synchronize:
                machine.synchronize(name="profiler_sync")
            end_ms = machine.host_time_ms
            rows = tuple(machine.events.rows[start_cursor:])
            devices = []
            for device in machine.devices:
                flops = machine.device_flops(device.name) - start_flops.get(device.name, 0.0)
                devices.append(
                    DeviceSnapshot(
                        name=device.name,
                        kind=device.kind,
                        peak_gflops=device.spec.peak_gflops,
                        busy_ms=device.busy_ms() - start_busy[device.name],
                        flops=flops,
                        peak_memory_bytes=device.memory.peak_bytes,
                        start_memory_bytes=start_memory[device.name],
                        end_memory_bytes=device.memory.current_bytes,
                    )
                )
            self.profiles.append(
                Profile(
                    start_ms=start_ms,
                    end_ms=end_ms,
                    rows=rows,
                    devices=tuple(devices),
                    label=label,
                )
            )
