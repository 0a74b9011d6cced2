"""The span tracer: per-request spans over the simulated timeline.

A :class:`Tracer` collects two kinds of records while a server runs:

* **Spans** -- named intervals on the simulated clock.  The servers emit a
  ``queue`` span per request (arrival to dispatch), a ``service`` span per
  batch (dispatch to completion, carrying every rider request's trace id),
  and nested ``sample``/``compute``/``nic`` children, so a cross-node
  request yields one coherent tree: its queue span on the front-end node
  linked (by trace id) to a service span on whichever node ran the batch.
* **Instants** -- point events: fidelity level changes, autoscale
  spin-up/down, cache invalidation broadcasts.

What ran is not copied here: each attached machine's event log is the one
record of it.  The exporter renders its rows, and ``repro-dgnn trace``
attributes them to a request by the request's time window.

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
    """Collects spans and instants from one serving run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        #: Serve-loop origin on the machine clock (set by the server).
        self.t0 = 0.0
        self._machines: Dict[str, Any] = {}
        self._node_by_machine: Dict[int, str] = {}
        #: NIC link resource names (for exporter/attribution classification).
        self.nic_resources: set = set()

    # -- wiring ------------------------------------------------------------

    def attach(self, machine: Any, node: str = "node0") -> "Tracer":
        """Register one machine under a node name.

        Requires event recording: the exporter renders each node's timeline
        from ``machine.events``.
        """
        if not machine.record_events:
            raise ValueError(
                "tracing requires record_events=True: the exported timeline is "
                "the event log, which record_events=False never materializes"
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

    # -- records -----------------------------------------------------------

    def span(
        self,
        name: str,
        category: str,
        start_ms: float,
        end_ms: Optional[float] = None,
        *,
        machine: Any,
        trace_ids: Tuple[int, ...] = (),
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record one span on ``machine``'s node track; returns its id.

        Without ``end_ms`` the span stays open until :meth:`close_span`.  A
        child span (``parent_id`` given) carries its parent's trace ids.
        """
        sid = len(self.spans)
        if parent_id is not None:
            trace_ids = self.spans[parent_id].trace_ids
        node = self._node_by_machine[id(machine)]
        self.spans.append(
            Span(sid, name, category, start_ms, end_ms, node, trace_ids, parent_id, attrs)
        )
        return sid

    def close_span(self, span_id: int, end_ms: float) -> None:
        self.spans[span_id].end_ms = end_ms

    def instant(
        self, name: str, category: str, ts_ms: float, *, machine: Any, **attrs: Any
    ) -> None:
        """Record a point event on ``machine``'s node track."""
        node = self._node_by_machine[id(machine)]
        self.instants.append(Instant(name, category, ts_ms, node, attrs))
