"""Batch routers for replicated multi-GPU serving.

In replicated mode the dynamic batcher still forms one batch at a time, but
the batch can be dispatched to any of N model replicas (one per GPU).  The
router decides which.  Routers are pure decision logic over the per-replica
state the server feeds back (dispatches and completions), so they are
unit-testable without a simulator:

* :class:`RoundRobinRouter` -- cycle through replicas regardless of load.
  Optimal under perfectly uniform batch cost, pathological under skew.
* :class:`JoinShortestQueueRouter` -- dispatch to the replica with the
  fewest in-flight requests (ties to the lowest index).  The classic
  load-balancing baseline.
* :class:`LeastLatencyRouter` -- estimate each replica's completion time for
  the candidate batch as ``backlog + batch service`` using a per-replica
  online EWMA :class:`~repro.serve.policy.ServiceTimeEstimator`, and pick
  the minimum.  With heterogeneous batch sizes this beats JSQ because a
  short queue of huge batches can still be the slower choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Type

from ..domain import POSITIVE_INT, Domain
from .policy import ServiceTimeEstimator


@dataclass
class ReplicaState:
    """Load bookkeeping for one replica, maintained by the router."""

    index: int
    inflight_requests: int = 0
    inflight_batches: int = 0
    dispatched_requests: int = 0
    estimator: ServiceTimeEstimator = field(default_factory=ServiceTimeEstimator)

    @property
    def per_request_ms(self) -> float:
        estimate = self.estimator.per_request_ms
        return estimate if estimate is not None else 0.0


class Router:
    """Base class: picks a replica for each formed batch."""

    #: Registry name; subclasses override.
    name: str = "router"

    def __init__(self, num_replicas: int) -> None:
        POSITIVE_INT.check("num_replicas", num_replicas)
        self.replicas = [ReplicaState(index) for index in range(num_replicas)]
        #: Replicas eligible for new dispatches.  All replicas start active;
        #: an autoscaler narrows the set (scale-down drains a replica by
        #: removing it here while its in-flight batches finish).
        self._active = set(range(num_replicas))

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    # -- active set ------------------------------------------------------

    def set_active(self, indices) -> None:
        """Restrict routing to ``indices`` (the autoscaler's current fleet).

        Inactive replicas keep their state (queues drain, estimators stay
        warm for when they are reactivated) but receive no new batches.
        """
        active = set(int(i) for i in indices)
        if not active:
            raise ValueError("active set must contain at least one replica")
        replicas = Domain(0, self.num_replicas, hi_open=True, integer=True)
        invalid = [i for i in active if i not in replicas]
        if invalid:
            raise ValueError(f"replica indices out of range: {sorted(invalid)}")
        self._active = active

    def active_indices(self) -> List[int]:
        """Replicas currently eligible for dispatch, in index order."""
        return sorted(self._active)

    # -- decision --------------------------------------------------------

    def route(self, batch_size: int, now_ms: float) -> int:
        """Replica index the next batch of ``batch_size`` should go to."""
        raise NotImplementedError

    # -- feedback --------------------------------------------------------

    def notify_dispatch(self, index: int, batch_size: int) -> None:
        """The server dispatched ``batch_size`` requests to replica ``index``."""
        state = self.replicas[index]
        state.inflight_requests += batch_size
        state.inflight_batches += 1
        state.dispatched_requests += batch_size

    def notify_complete(self, index: int, batch_size: int, service_ms: float) -> None:
        """Replica ``index`` finished a batch after ``service_ms``.

        ``service_ms`` should be the batch's *execution* time on the
        replica, excluding time it spent queued behind that replica's
        earlier batches -- the least-latency estimate already accounts for
        the backlog via the in-flight count, so queue-inclusive samples
        would double-count it.
        """
        state = self.replicas[index]
        state.inflight_requests = max(0, state.inflight_requests - batch_size)
        state.inflight_batches = max(0, state.inflight_batches - 1)
        state.estimator.observe(batch_size, service_ms)

    # -- reporting -------------------------------------------------------

    def queue_depths(self) -> List[int]:
        """Current in-flight request count per replica."""
        return [state.inflight_requests for state in self.replicas]

    def describe(self) -> str:
        return f"{self.name}(replicas={self.num_replicas})"


class RoundRobinRouter(Router):
    """Cycle through replicas in index order."""

    name = "round-robin"

    def __init__(self, num_replicas: int) -> None:
        super().__init__(num_replicas)
        self._next = 0

    def route(self, batch_size: int, now_ms: float) -> int:
        # Advance the cursor past inactive replicas; with every replica
        # active this is the plain one-step cycle.
        for _ in range(self.num_replicas):
            index = self._next
            self._next = (self._next + 1) % self.num_replicas
            if index in self._active:
                return index
        raise RuntimeError("no active replica to route to")


class JoinShortestQueueRouter(Router):
    """Dispatch to the replica with the fewest in-flight requests."""

    name = "jsq"

    def route(self, batch_size: int, now_ms: float) -> int:
        return min(
            self.active_indices(),
            key=lambda i: (self.replicas[i].inflight_requests, i),
        )


class LeastLatencyRouter(Router):
    """Dispatch to the replica with the smallest estimated completion time.

    The estimate for replica ``i`` is ``(inflight + batch) * per_request_i``
    from its own EWMA service-time estimator.  Before any completion has
    been observed for a replica its estimate is unknown, and the router
    falls back to queue depth for it -- which also guarantees every replica
    receives early traffic and gets an estimate.
    """

    name = "least-latency"

    def route(self, batch_size: int, now_ms: float) -> int:
        def score(index: int):
            state = self.replicas[index]
            per_request = state.estimator.per_request_ms
            if per_request is None:
                # Unknown replica: prefer it (explore) over any estimated one.
                return (0, state.inflight_requests, index)
            estimated = (state.inflight_requests + batch_size) * per_request
            return (1, estimated, index)

        return min(self.active_indices(), key=score)


#: Router registry for the CLI / experiment sweeps.
ROUTERS: Dict[str, Type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    LeastLatencyRouter.name: LeastLatencyRouter,
}


def available_routers() -> List[str]:
    return sorted(ROUTERS)


def make_router(name: str, num_replicas: int) -> Router:
    """Build a router by registry name."""
    key = name.lower()
    if key not in ROUTERS:
        raise KeyError(f"unknown router {name!r}; available: {', '.join(available_routers())}")
    return ROUTERS[key](num_replicas)
