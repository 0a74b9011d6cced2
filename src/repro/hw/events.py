"""Event records emitted by the hardware simulator.

Every simulated action -- a compute kernel, a host<->device transfer, a
warm-up step or a memory (de)allocation -- produces one event.  The profiler
in :mod:`repro.core` consumes the event stream to build the breakdowns,
utilization timelines and memory curves that the paper derives from PyTorch
Profiler and NVIDIA Nsight Systems traces.

:class:`Event` is the one public value type.  The log stores each event as a
*row* -- an exact 11-field tuple in ``Event`` field order -- and hands out
``Event`` values built from the rows on demand (:data:`event_view`).  The
cyclic garbage collector stops tracking an exact tuple of strings and numbers
after its first collection; an instance of a tuple *subclass* stays tracked
and is walked again by every full collection, a cost that grows with the
log.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator, List, NamedTuple, Tuple

#: Event kinds.
KERNEL = "kernel"
TRANSFER = "transfer"
WARMUP = "warmup"
ALLOC = "alloc"
FREE = "free"
SYNC = "sync"
#: Zero-duration stream markers (event record / event wait); ignored by the
#: breakdown aggregation but kept in the log so traces show cross-stream
#: dependencies.
MARKER = "marker"

_VALID_KINDS = frozenset({KERNEL, TRANSFER, WARMUP, ALLOC, FREE, SYNC, MARKER})


def check_event(kind: str, name: str = "", start_ms: float = 0.0, end_ms: float = 0.0) -> None:
    """The two checks every event passes, wherever it is built or logged.

    ``kind`` must be one of the seven kinds and the event must not end before
    it starts.  A run charger whose kind is a constant and whose events
    cannot end early calls it once per run with the kind alone.
    """
    if kind not in _VALID_KINDS:
        raise ValueError(f"unknown event kind: {kind!r}")
    if end_ms < start_ms:
        raise ValueError(f"event {name!r} ends ({end_ms}) before it starts ({start_ms})")


class _EventFields(NamedTuple):
    """Field order, defaults, ``==``, ``hash`` and ``repr`` of :class:`Event`."""

    kind: str
    name: str
    resource: str
    start_ms: float
    end_ms: float
    flops: float = 0.0
    bytes: int = 0
    region: Tuple[str, ...] = ()
    src: str = ""
    dst: str = ""
    stream: str = ""


class Event(_EventFields):
    """A single timestamped action on a simulated device or link.

    An immutable value; every construction checks the kind and that the
    event does not end before it starts (:func:`check_event`).  The machine
    logs rows that passed the same checks, and reads build an ``Event``
    around a stored row without repeating them (:data:`event_view`).

    Attributes:
        kind: One of ``kernel``, ``transfer``, ``warmup``, ``alloc``, ``free``
            or ``sync``.
        name: Operation name (e.g. ``"gemm"``, ``"h2d"``, ``"context_init"``).
        resource: Name of the device or link the event occupies.
        start_ms / end_ms: Simulated start and end time in milliseconds.
        flops: Floating point work performed (kernels only).
        bytes: Bytes moved or allocated.
        region: The region-annotation stack active when the event was issued,
            outermost first (e.g. ``("iteration", "Sampling")``).
        src / dst: For transfers, source and destination device names.
        stream: Name of the execution stream the event was issued on (empty
            for events that do not occupy a stream, e.g. alloc/free).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        name: str,
        resource: str,
        start_ms: float,
        end_ms: float,
        flops: float = 0.0,
        bytes: int = 0,
        region: Tuple[str, ...] = (),
        src: str = "",
        dst: str = "",
        stream: str = "",
    ) -> "Event":
        check_event(kind, name, start_ms, end_ms)
        return tuple.__new__(
            cls, (kind, name, resource, start_ms, end_ms, flops, bytes, region, src, dst, stream)
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "Event":
        # ``_replace`` builds through here; keep it behind the same checks.
        return cls(*iterable)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


#: ``event_view(row)``: the :class:`Event` a stored row stands for, built
#: without re-running the checks the row passed when it was logged.
event_view = partial(tuple.__new__, Event)


class EventLog:
    """An append-only sequence of events, stored as rows, read as :class:`Event`.

    The machine owns one log per run context and appends to :attr:`rows`
    directly.  Iterating, indexing and slicing are the one way to read
    ``Event`` values; a filter is a comprehension over them, and the
    profilers and exporters that must not pay for the views read the rows.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        #: One exact 11-field tuple per event, in issue order.
        self.rows: List[tuple] = []

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Event]:
        return map(event_view, self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(event_view, self.rows[index]))
        return event_view(self.rows[index])
