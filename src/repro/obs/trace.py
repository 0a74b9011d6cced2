"""The span tracer: per-request spans over the simulated timeline.

A :class:`Tracer` collects three kinds of records while a server runs:

* **Spans** -- named intervals on the simulated clock.  The servers emit a
  ``queue`` span per request (arrival to dispatch), a ``service`` span per
  batch (dispatch to completion, carrying every rider request's trace id),
  and nested ``sample``/``compute``/``nic`` children, so a cross-node
  request yields one coherent tree: its queue span on the front-end node
  linked (by trace id) to a service span on whichever node ran the batch.
* **Instants** -- point events: fidelity level changes, autoscale
  spin-up/down, cache invalidation broadcasts.
* **Event slices** -- ``(span, node, start_index, end_index)`` windows of a
  machine's event log, captured with :meth:`Machine.event_cursor` around
  the host code that issued a batch's work.  They attribute every timeline
  event to the span that caused it without touching the events themselves.

The tracer is strictly *read-only* with respect to the simulation: it never
charges work, never advances a clock, never emits an event.  Attaching one
therefore cannot perturb an experiment, and a detached server (``tracer is
None``) allocates nothing on the hot path -- the identity discipline of the
shape backend (PR 6) and adaptive fidelity (PR 9), enforced by the
``trace-conservation`` fuzz invariant and regression tests.

All span times are **absolute** simulated milliseconds (the machine/cluster
frame); :attr:`Tracer.t0` records the serve-loop origin so the exporter can
align the report's relative request times.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Tolerance (ms) for span-arithmetic identities: per-request span durations
#: must reproduce the reported queue/service latency split within this.
EPS_MS = 1e-6


class Span:
    """One named interval on the simulated clock (a node of the trace tree)."""

    __slots__ = (
        "span_id",
        "name",
        "category",
        "start_ms",
        "end_ms",
        "node",
        "trace_ids",
        "parent_id",
        "attrs",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start_ms: float,
        end_ms: Optional[float],
        node: str,
        trace_ids: Tuple[int, ...] = (),
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.node = node
        self.trace_ids = trace_ids
        self.parent_id = parent_id
        self.attrs = attrs or {}

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise ValueError(f"span {self.span_id} ({self.name}) was never closed")
        return self.end_ms - self.start_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "node": self.node,
            "trace_ids": list(self.trace_ids),
            "parent": self.parent_id,
            "attrs": dict(self.attrs),
        }


class Instant:
    """One point event (fidelity change, scale event, invalidation burst)."""

    __slots__ = ("name", "category", "ts_ms", "node", "attrs")

    def __init__(
        self,
        name: str,
        category: str,
        ts_ms: float,
        node: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.ts_ms = ts_ms
        self.node = node
        self.attrs = attrs or {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "ts_ms": self.ts_ms,
            "node": self.node,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans, instants and event-log slices from one serving run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        #: ``(span_id, node, start_index, end_index)`` event-log windows.
        self.slices: List[Tuple[int, str, int, int]] = []
        #: Serve-loop origin on the machine clock (set by the server).
        self.t0 = 0.0
        self._next_id = 0
        self._machines: Dict[str, Any] = {}
        self._node_by_machine: Dict[int, str] = {}
        #: NIC link resource names (for exporter/attribution classification).
        self.nic_resources: set = set()

    # -- wiring ------------------------------------------------------------

    def attach(self, machine: Any, node: str = "node0") -> "Tracer":
        """Register one machine under a node name.

        Requires event recording: slices index into ``machine.events``, and
        the exporter renders the timeline from them.
        """
        if not getattr(machine, "record_events", True):
            raise ValueError(
                "tracing requires record_events=True: spans attribute slices "
                "of the event log, which record_events=False never materializes"
            )
        self._machines[node] = machine
        self._node_by_machine[id(machine)] = node
        return self

    def attach_cluster(self, cluster: Any) -> "Tracer":
        """Register every node of a cluster (``node0`` .. ``node<N-1>``)."""
        for index, machine in enumerate(cluster.nodes):
            self.attach(machine, f"node{index}")
        self.nic_resources.update(link.name for link in cluster.nic_links)
        return self

    @property
    def machines(self) -> Dict[str, Any]:
        return dict(self._machines)

    def attached(self, machine: Any) -> bool:
        return id(machine) in self._node_by_machine

    def node_of(self, machine: Any) -> str:
        return self._node_by_machine[id(machine)]

    # -- spans -------------------------------------------------------------

    def span(
        self,
        name: str,
        category: str,
        start_ms: float,
        end_ms: float,
        node: str,
        trace_ids: Tuple[int, ...] = (),
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record one closed span; returns its id."""
        sid = self._next_id
        self._next_id += 1
        self.spans.append(
            Span(sid, name, category, start_ms, end_ms, node, trace_ids, parent_id, attrs)
        )
        return sid

    def open_span(
        self,
        name: str,
        category: str,
        start_ms: float,
        node: str,
        trace_ids: Tuple[int, ...] = (),
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Open a span whose end is not known yet (close with :meth:`close_span`)."""
        sid = self._next_id
        self._next_id += 1
        self.spans.append(
            Span(sid, name, category, start_ms, None, node, trace_ids, parent_id, attrs)
        )
        return sid

    def close_span(self, span_id: int, end_ms: float) -> None:
        self.spans[span_id].end_ms = end_ms

    def get_span(self, span_id: int) -> Span:
        return self.spans[span_id]

    def instant(
        self, name: str, category: str, ts_ms: float, node: str, **attrs: Any
    ) -> None:
        self.instants.append(Instant(name, category, ts_ms, node, attrs))

    # -- event-log slices --------------------------------------------------

    def record_slice(self, span_id: int, machine: Any, start_index: int) -> None:
        """Attribute events issued since ``start_index`` to ``span_id``.

        Call with a cursor captured via ``machine.event_cursor()`` right
        before the span's host-side work; the slice closes at the current
        cursor.  Empty windows are dropped.
        """
        end_index = machine.event_cursor()
        if end_index > start_index:
            self.slices.append((span_id, self.node_of(machine), start_index, end_index))
