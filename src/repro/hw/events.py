"""Event records emitted by the hardware simulator.

Every simulated action -- a compute kernel, a host<->device transfer, a
warm-up step or a memory (de)allocation -- produces one event.  The profiler
in :mod:`repro.core` consumes the event stream to build the breakdowns,
utilization timelines and memory curves that the paper derives from PyTorch
Profiler and NVIDIA Nsight Systems traces.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, Tuple

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

_new_tuple = tuple.__new__


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
    event does not end before it starts.  (A named tuple under a validating
    ``__new__``: one event per simulated action makes the constructor the
    hottest allocation in the simulator, and a frozen dataclass pays one
    ``object.__setattr__`` per field.)

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
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        if end_ms < start_ms:
            raise ValueError(f"event {name!r} ends ({end_ms}) before it starts ({start_ms})")
        return _new_tuple(
            cls, (kind, name, resource, start_ms, end_ms, flops, bytes, region, src, dst, stream)
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "Event":
        # ``_replace`` builds through here; keep it behind the same checks.
        return cls(*iterable)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def innermost_region(self) -> str:
        """The most specific region label, or ``""`` when unannotated."""
        return self.region[-1] if self.region else ""

    def overlaps(self, start_ms: float, end_ms: float) -> bool:
        """Whether this event overlaps the half-open window [start, end)."""
        return self.start_ms < end_ms and self.end_ms > start_ms


class EventLog:
    """An append-only sequence of :class:`Event` objects.

    The machine owns one log per run context; profilers snapshot slices of it.
    """

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[Event] = []

    def append(self, event: Event) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def clear(self) -> None:
        self._events.clear()

    def snapshot(self) -> Sequence[Event]:
        """An immutable copy of the current event list."""
        return tuple(self._events)

    def since(self, index: int) -> Sequence[Event]:
        """Events appended at or after position ``index``."""
        return tuple(self._events[index:])

    def of_kind(self, kind: str) -> Sequence[Event]:
        return tuple(e for e in self._events if e.kind == kind)

    def on_stream(self, resource: str, stream: str) -> Sequence[Event]:
        """Events issued on one stream of one resource."""
        return tuple(e for e in self._events if e.resource == resource and e.stream == stream)
