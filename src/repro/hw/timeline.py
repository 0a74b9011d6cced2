"""Per-resource busy timelines.

A :class:`Timeline` records the busy intervals of one simulated resource (a
device's execution units or the PCIe link).  It answers the questions the
paper asks of Nsight traces: how busy was the GPU over a window (utilization),
when does the resource next become free (for scheduling), and how does
utilization evolve over time (Fig. 9's utilization-vs-time plots).

Storage is columnar: two parallel lists (starts, ends) and no per-interval
object.  What occupied an interval is the event log's business, not the
timeline's.  An :class:`Interval` is a value ``reserve`` returns and
iteration materialises on read; nothing holds one.  No running total is
kept either: reserving an interval appends two floats and nothing else.  So

* ``busy_ms(lo, hi)`` binary-searches the overlapping range and only walks
  the intervals that actually intersect the window; unclipped, it walks
  them all (O(intervals), summing ``end - start`` in insertion order).  It
  stays a Python walk on purpose: the analysis asks it once per grid cell
  or bin (hundreds of windows of a few intervals each per profile), where a
  numpy call's fixed cost would outweigh the walk;
* a merged question -- busy time with touching intervals merged into
  contiguous runs, over one stream or the union of several -- is
  :func:`repro.hw.stream.union_busy_ms`, the one merged-busy reader: after
  the bisect it is one numpy sweep in :func:`merged_runs`, O(intervals in
  the window) in C and a fixed number of Python calls whatever the window
  holds, windowed or not.  :func:`merged_runs` is the one place the merge
  rule lives; the profiler's merged busy runs call it too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np


class Interval(NamedTuple):
    """A closed-open busy interval ``[start_ms, end_ms)``.

    A plain immutable value: ``end_ms >= start_ms`` is enforced where
    intervals enter a :class:`Timeline` (:meth:`Timeline.reserve`,
    :meth:`Timeline.reserve_run`, :meth:`Timeline.from_intervals`), not here.
    """

    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class Timeline:
    """Append-only list of non-overlapping, time-ordered busy intervals.

    The simulator always schedules a new interval to start at or after the
    current ``free_at`` point, so intervals are naturally sorted and disjoint;
    this class enforces that invariant.
    """

    __slots__ = ("name", "_starts", "_ends")

    def __init__(self, name: str) -> None:
        self.name = name
        # The interval store: one row per interval across two columns, both
        # bisected by the window queries.
        self._starts: List[float] = []
        self._ends: List[float] = []

    # -- recording ------------------------------------------------------

    @property
    def free_at(self) -> float:
        """Earliest time at which the resource is free."""
        return self._ends[-1] if self._ends else 0.0

    def reserve(self, ready_ms: float, duration_ms: float) -> Interval:
        """Schedule a busy interval of ``duration_ms`` starting no earlier
        than ``ready_ms`` and no earlier than the end of the last interval.

        Returns the scheduled :class:`Interval`.
        """
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        ends = self._ends
        last_end = ends[-1] if ends else 0.0
        start = ready_ms if ready_ms > last_end else last_end
        end = start + duration_ms
        self._starts.append(start)
        ends.append(end)
        return Interval(start, end)

    def reserve_run(
        self,
        host_ms: float,
        step_ms: float,
        floor_ms: float,
        durations: Sequence[float],
        blocking: bool,
    ) -> Tuple[List[float], List[float], float]:
        """Reserve ``durations`` back to back from one host cursor.

        Bit-identical to one :meth:`reserve` per duration issued by a host
        at ``host_ms``: asynchronous issue (``blocking=False``) advances the
        host by ``step_ms`` before each reservation, blocking issue moves it
        to the interval's end after it, and every interval starts at
        ``max(host, floor_ms, end of the previous interval)`` -- the same
        float operations in the same order, but in one loop over locals with
        the columns extended once.  Returns ``(starts, ends, host_ms)``.

        A negative duration anywhere in the run raises ``ValueError`` and
        leaves the timeline exactly as it was, which is stronger than the
        scalar loop (it would have reserved the run's prefix first).
        """
        last_end = self._ends[-1] if self._ends else 0.0
        host = host_ms
        starts: List[float] = []
        ends: List[float] = []
        for duration_ms in durations:
            if duration_ms < 0:
                raise ValueError("duration must be non-negative")
            if not blocking:
                host += step_ms
            ready = floor_ms if floor_ms > host else host
            start = ready if ready > last_end else last_end
            last_end = end = start + duration_ms
            starts.append(start)
            ends.append(end)
            if blocking:
                host = end
        self._starts.extend(starts)
        self._ends.extend(ends)
        return starts, ends, host

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self._starts, self._ends)

    @property
    def intervals(self) -> Sequence[Interval]:
        return tuple(self)

    def busy_ms(self, start_ms: float | None = None, end_ms: float | None = None) -> float:
        """Total busy time, optionally clipped to a window."""
        lo = start_ms if start_ms is not None else float("-inf")
        hi = end_ms if end_ms is not None else float("inf")
        first, last = self._overlap_range(lo, hi)
        total = 0.0
        starts = self._starts
        ends = self._ends
        for index in range(first, last):
            overlap = min(ends[index], hi) - max(starts[index], lo)
            if overlap > 0:
                total += overlap
        return total

    def _overlap_range(self, lo: float, hi: float) -> Tuple[int, int]:
        """Index range [first, last) of intervals that may overlap [lo, hi)."""
        # Intervals are sorted and disjoint: everything ending at or before
        # ``lo`` and everything starting at or after ``hi`` is irrelevant.
        first = bisect_right(self._ends, lo)
        last = bisect_left(self._starts, hi)
        return (first, last)

    def utilization_series(
        self, start_ms: float, end_ms: float, bin_ms: float
    ) -> List[Tuple[float, float]]:
        """Binned utilization over a window.

        Returns a list of ``(bin_start_ms, utilization)`` pairs covering the
        window in steps of ``bin_ms``; this is the data behind the paper's
        Fig. 9 GPU-utilization-over-time plots.
        """
        if bin_ms <= 0:
            raise ValueError("bin_ms must be positive")
        if end_ms <= start_ms:
            return []
        series: List[Tuple[float, float]] = []
        t = start_ms
        while t < end_ms:
            hi = min(t + bin_ms, end_ms)
            # ``t += bin_ms`` can leave a residue bin narrower than any real
            # interval; the floor keeps it from reporting a spurious 100 %.
            series.append((t, self.busy_ms(t, hi) / max(hi - t, 1e-9)))
            t += bin_ms
        return series

    def span(self) -> Tuple[float, float]:
        """(first start, last end) of the recorded intervals; (0, 0) if empty."""
        if not self._starts:
            return (0.0, 0.0)
        return (self._starts[0], self._ends[-1])

    @classmethod
    def from_intervals(cls, name: str, intervals: Iterable[Tuple[float, float]]) -> "Timeline":
        """A reporting timeline over already scheduled ``(start, end)`` pairs.

        Unlike :meth:`reserve`, which recomputes ``start + duration``, the
        endpoints are stored exactly as given, so window queries reproduce a
        scan over the pairs bit for bit.  The pairs must be sorted and
        disjoint (each start at or after the previous end).
        """
        timeline = cls(name)
        starts: List[float] = []
        ends: List[float] = []
        last_end = float("-inf")
        for start, end in intervals:
            if start < last_end:
                raise ValueError("intervals must be sorted and disjoint")
            if end < start:
                raise ValueError("interval ends before it starts")
            last_end = end
            starts.append(start)
            ends.append(end)
        timeline._starts, timeline._ends = starts, ends
        return timeline


def merged_runs(los: np.ndarray, his: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Merge spans into contiguous busy runs: ``(run_los, run_his, total_ms)``.

    ``los`` and ``his`` are float64 columns sorted by ``(lo, hi)``; spans
    with ``hi <= lo`` are dropped.  A span joins the open run when it starts
    at or before the furthest end so far (touching spans merge) and opens a
    new run when it starts after it.  ``total_ms`` adds the run lengths left
    to right (``np.add.accumulate`` is a sequential scan, not a pairwise
    sum), so it is the bits a Python ``total += run_hi - run_lo`` loop gives,
    on every Python version.  This is the one place the merge rule lives:
    :func:`repro.hw.stream.union_busy_ms` and the profiler's merged busy
    runs call it, and no timeline keeps a merged total of its own.
    """
    keep = his > los
    los = los[keep]
    his = his[keep]
    if not len(los):
        return los, his, 0.0
    reach = np.maximum.accumulate(his)
    opens = np.empty(len(los), dtype=bool)
    opens[0] = True
    np.greater(los[1:], reach[:-1], out=opens[1:])
    closes = np.empty(len(los), dtype=bool)
    closes[:-1] = opens[1:]
    closes[-1] = True
    run_los = los[opens]
    run_his = reach[closes]
    return run_los, run_his, float(np.add.accumulate(run_his - run_los)[-1])
