"""Named execution streams (the simulator's analogue of CUDA streams).

A :class:`Stream` is a FIFO work queue on one resource (a device's execution
units or the PCIe link).  Work issued onto the same stream serializes in issue
order; work issued onto *different* streams of the same resource may overlap
in simulated time, which is what makes the paper's Sec. 5 proposals --
sampling/compute overlap and cross-time-step pipelining -- executable instead
of merely estimable.

Cross-stream dependencies are expressed with :class:`StreamEvent` markers,
mirroring ``cudaEventRecord`` / ``cudaStreamWaitEvent``:

* :meth:`Stream.record_event` captures the completion time of all work issued
  to the stream so far;
* :meth:`Stream.wait_event` installs a floor so that work issued to the
  stream *afterwards* cannot start before the event is ready.

Every resource owns a ``"default"`` stream.  A machine that only ever touches
default streams schedules exactly like the original single-queue simulator,
which is how the seed's serialized semantics (and all figure/table numbers)
are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._compat import DATACLASS_SLOTS
from .timeline import Interval, Timeline, merged_runs

#: Name of the implicit stream every resource starts with.
DEFAULT_STREAM = "default"

#: Name of the machine-managed copy stream on the link (used by
#: ``non_blocking`` transfers, modelling the GPU's dedicated copy engine).
COPY_STREAM = "copy"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class StreamEvent:
    """A recorded point in a stream's queue (``cudaEvent_t`` analogue).

    Attributes:
        stream: Name of the stream the event was recorded on.
        resource: Name of the resource owning that stream.
        ready_ms: Simulated time at which all work issued to the stream
            before the record call has completed.
        name: Optional label for traces.
    """

    stream: str
    resource: str
    ready_ms: float
    name: str = "event"


class Stream:
    """One FIFO queue on a simulated resource.

    Streams are created through :meth:`StreamSet.stream` (usually via
    ``Machine.stream``); they should not be instantiated directly by user
    code.  A stream owns its busy :class:`~repro.hw.timeline.Timeline` and a
    monotone ``not-before`` floor raised by :meth:`wait_event`.
    """

    __slots__ = ("resource", "name", "timeline", "_not_before")

    def __init__(self, resource: str, name: str) -> None:
        self.resource = resource
        self.name = name
        self.timeline = Timeline(f"{resource}:{name}")
        self._not_before = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.resource!r}, {self.name!r})"

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_STREAM

    @property
    def free_at(self) -> float:
        """Earliest time at which newly issued work could start."""
        return max(self.timeline.free_at, self._not_before)

    def reserve(self, ready_ms: float, duration_ms: float) -> Interval:
        """Queue ``duration_ms`` of work behind everything already issued."""
        return self.timeline.reserve(max(ready_ms, self._not_before), duration_ms)

    def reserve_run(
        self,
        host_ms: float,
        step_ms: float,
        durations: Sequence[float],
        blocking: bool,
    ) -> Tuple[List[float], List[float], float]:
        """Queue a run of work items issued back to back by one host.

        Bit-identical to one :meth:`reserve` per duration (see
        :meth:`Timeline.reserve_run <repro.hw.timeline.Timeline.reserve_run>`,
        which this passes the stream's ``wait_event`` floor).
        """
        return self.timeline.reserve_run(
            host_ms, step_ms, self._not_before, durations, blocking
        )

    def record_event(self, at_ms: float, name: str = "event") -> StreamEvent:
        """Capture the completion time of all work issued so far.

        ``at_ms`` is the host time of the record call: an empty (drained)
        stream completes the event immediately at the record point, exactly
        like ``cudaEventRecord`` on an idle stream.
        """
        return StreamEvent(
            stream=self.name,
            resource=self.resource,
            ready_ms=max(at_ms, self.free_at),
            name=name,
        )

    def wait_event(self, event: StreamEvent) -> None:
        """Make all *subsequently issued* work wait for ``event``."""
        self._not_before = max(self._not_before, event.ready_ms)

    def busy_ms(self, start_ms: Optional[float] = None, end_ms: Optional[float] = None) -> float:
        return self.timeline.busy_ms(start_ms, end_ms)


class StreamSet:
    """The collection of streams owned by one resource (device or link).

    Provides the aggregate views the rest of the system needs: the join-all
    ``free_at`` horizon and the *union* busy time (overlapping intervals on
    different streams are not double counted, so utilization stays <= 1).
    """

    __slots__ = ("resource", "_streams")

    def __init__(self, resource: str) -> None:
        self.resource = resource
        self._streams: Dict[str, Stream] = {DEFAULT_STREAM: Stream(resource, DEFAULT_STREAM)}

    # -- access ---------------------------------------------------------

    @property
    def default(self) -> Stream:
        return self._streams[DEFAULT_STREAM]

    def stream(self, name: str) -> Stream:
        """Look up (creating on first use) the named stream."""
        if not name:
            raise ValueError("stream name must be non-empty")
        if name not in self._streams:
            self._streams[name] = Stream(self.resource, name)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self):
        return iter(self._streams.values())

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._streams)

    # -- aggregate views ------------------------------------------------

    @property
    def free_at(self) -> float:
        """Time at which *all* streams of the resource have drained."""
        return max(stream.timeline.free_at for stream in self._streams.values())

    def busy_ms(self, start_ms: Optional[float] = None, end_ms: Optional[float] = None) -> float:
        """Union busy time across all streams, optionally clipped to a window.

        One :func:`union_busy_ms` over every stream, whether one holds work
        or many, windowed or not: no total is kept between calls, so each
        call is one sweep over the window's spans.
        """
        return union_busy_ms(
            [stream.timeline for stream in self._streams.values()], start_ms, end_ms
        )


def union_busy_ms(
    timelines: Iterable[Timeline],
    start_ms: Optional[float] = None,
    end_ms: Optional[float] = None,
) -> float:
    """Total time during which *any* of the given timelines is busy.

    The one merged-busy reader.  Intervals within one timeline are disjoint,
    but intervals on different timelines (streams) may overlap; this clips
    every interval in the window to float64 columns (a timeline may hold
    ints), sorts the spans by ``(lo, hi)`` and merges them in one
    :func:`~repro.hw.timeline.merged_runs` sweep, so concurrent work counts
    once and touching intervals join one run.  Spans that all come from one
    timeline are already in that order, so they skip the sort.  This
    differs from ``Timeline.busy_ms``, which adds the intervals one by one,
    only in float rounding.
    """
    lo = start_ms if start_ms is not None else float("-inf")
    hi = end_ms if end_ms is not None else float("inf")
    starts: List[float] = []
    ends: List[float] = []
    sources = 0
    for timeline in timelines:
        first, last = timeline._overlap_range(lo, hi)
        if last > first:
            starts += timeline._starts[first:last]
            ends += timeline._ends[first:last]
            sources += 1
    # ``np.fromiter`` reads each float object once; ``np.array`` reads the
    # list twice, and on a long run those objects sit scattered in memory.
    los = np.maximum(np.fromiter(starts, dtype=np.float64, count=len(starts)), lo)
    his = np.minimum(np.fromiter(ends, dtype=np.float64, count=len(ends)), hi)
    if sources > 1:
        order = np.lexsort((his, los))
        los, his = los[order], his[order]
    return merged_runs(los, his)[2]
