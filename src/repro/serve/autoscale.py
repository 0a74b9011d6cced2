"""Elastic autoscaling: replica fleets that track the offered load.

A statically provisioned serving fleet must be sized for its peak: under a
diurnal swing most of that capacity idles, and under a flash crowd any
smaller fleet melts down.  The :class:`Autoscaler` closes the loop the
cluster serving tier already exposes -- the router's per-replica EWMA
service-time estimators and the completed requests' latency tail -- and
grows or shrinks the *active* replica set between those bounds:

* **Scale up** when the estimated fleet utilization (arrival rate x EWMA
  per-request cost / active capacity) crosses the high watermark, or the
  sliding-window p99 breaches the configured SLO.  Spinning a replica up is
  not free: the server charges the modeled cold start -- the weight
  transfer to the new replica's GPU (over the NIC for remote nodes) -- and
  the replica joins the fleet only when its weights have landed.  Its
  serving cache starts cold on top (see :meth:`repro.cache.ModelCache.flush`),
  so the first batches it serves also pay warm-up misses.
* **Scale down** when utilization falls below the low watermark and the tail
  is healthy.  Only a *drained* replica (no in-flight batches) is released;
  its cache is flushed, so a later re-activation is a genuine cold start.

Both directions respect cooldowns so one noisy window cannot thrash the
fleet.  The autoscaler is pure decision logic plus bookkeeping: the
:class:`~repro.serve.cluster.ClusterServer` binds it to a router and a pair
of ``spin_up`` / ``spin_down`` callbacks that do the actual simulator
charging, which keeps the policy unit-testable without a machine.

Accounting: the fleet's cost axis is the **GPU-time integral** -- replica
count integrated over the serving window, a replica counting from the
instant its spin-up is *initiated* (capacity is paid for while it warms)
until it is released.  A static fleet's integral is simply
``replicas x duration``; the ``autoscaling`` experiment compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .._compat import DATACLASS_SLOTS, ordered_sum
from ..core.stats import LatencySummary
from ..domain import POSITIVE_INT, Domain

#: Estimated utilization above which the fleet grows.
HIGH_WATERMARK = 0.75
#: Estimated utilization below which the fleet shrinks.
LOW_WATERMARK = 0.30
#: Completed-request window the tail is measured over.
P99_WINDOW = 64
#: Arrival window the offered rate is estimated over.
RATE_WINDOW = 32


@dataclass(frozen=True, **DATACLASS_SLOTS)
class AutoscaleConfig:
    """Knobs of the elastic-fleet policy.

    Args:
        min_replicas: Fleet floor (never scaled below) and its size at
            serve start.
        max_replicas: Fleet ceiling; must not exceed the replicas built.
        slo_ms: Optional latency SLO; a sliding-window p99 above it triggers
            a scale-up even when utilization looks fine (queue explosions
            show up in the tail before the rate estimator catches up).
        up_cooldown_ms: Minimum gap between consecutive scale-ups.
        down_cooldown_ms: Minimum gap after *any* scale event before a
            scale-down (longer than the up cooldown so a fresh replica is
            given time to prove itself before being reclaimed).
    """

    min_replicas: int = 1
    max_replicas: int = 4
    slo_ms: Optional[float] = None
    up_cooldown_ms: float = 50.0
    down_cooldown_ms: float = 200.0

    def __post_init__(self) -> None:
        POSITIVE_INT.check("min_replicas", self.min_replicas)
        Domain(self.min_replicas, integer=True).check(
            "max_replicas (>= min_replicas)", self.max_replicas
        )


@dataclass(**DATACLASS_SLOTS)
class ScaleEvent:
    """One fleet-size change, for the report's event timeline."""

    t_ms: float
    action: str  # "up" or "down"
    replica: int
    reason: str
    ready_ms: Optional[float] = None  # when an added replica finished warming

    def as_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "t_ms": round(self.t_ms, 3),
            "action": self.action,
            "replica": self.replica,
            "reason": self.reason,
        }
        if self.ready_ms is not None:
            row["ready_ms"] = round(self.ready_ms, 3)
            row["cold_start_ms"] = round(self.ready_ms - self.t_ms, 3)
        return row


@dataclass(**DATACLASS_SLOTS)
class _Fleet:
    """Mutable fleet state (split out so the policy reads declaratively)."""

    active: set = field(default_factory=set)
    pending: Dict[int, float] = field(default_factory=dict)  # index -> ready_ms
    owned_since: Dict[int, float] = field(default_factory=dict)
    gpu_time_ms: float = 0.0

    @property
    def capacity(self) -> int:
        """Replicas paid for right now (active plus still-warming)."""
        return len(self.active) + len(self.pending)


class Autoscaler:
    """Watermark + SLO driven elastic control of a replica fleet."""

    def __init__(self, config: Optional[AutoscaleConfig] = None) -> None:
        self.config = config if config is not None else AutoscaleConfig()
        self.router: Any = None
        self._num_replicas = 0
        self._spin_up: Optional[Callable[[int, float], float]] = None
        self._spin_down: Optional[Callable[[int, float], None]] = None
        self._fleet = _Fleet()
        self._arrivals: List[float] = []
        self._latencies: List[float] = []
        self._last_up_ms = -float("inf")
        self._last_change_ms = -float("inf")
        self.events: List[ScaleEvent] = []
        self.cold_start_ms = 0.0

    # -- lifecycle -------------------------------------------------------

    def bind(
        self,
        router: Any,
        num_replicas: int,
        spin_up: Callable[[int, float], float],
        spin_down: Callable[[int, float], None],
        now_ms: float = 0.0,
    ) -> None:
        """Attach to a server run: router, fleet size and charge callbacks.

        The first ``min_replicas`` replicas form the initial fleet; they
        are assumed warm (the server warm-up covered them) and start
        accruing GPU-time immediately.
        """
        Domain(self.config.max_replicas, integer=True).check(
            "replicas built (>= max_replicas)", num_replicas
        )
        self.router = router
        self._num_replicas = num_replicas
        self._spin_up = spin_up
        self._spin_down = spin_down
        start = self.config.min_replicas
        self._fleet = _Fleet(active=set(range(start)))
        for index in range(start):
            self._fleet.owned_since[index] = now_ms
        router.set_active(sorted(self._fleet.active))

    # -- observations ----------------------------------------------------

    def observe_arrival(self, arrival_ms: float) -> None:
        self._arrivals.append(arrival_ms)
        if len(self._arrivals) > RATE_WINDOW:
            del self._arrivals[:-RATE_WINDOW]

    def observe_completion(self, now_ms: float, latency_ms: float) -> None:
        self._latencies.append(latency_ms)
        if len(self._latencies) > P99_WINDOW:
            del self._latencies[:-P99_WINDOW]

    # -- signals ---------------------------------------------------------

    def arrival_rate_per_s(self, now_ms: float) -> float:
        """Offered rate over the recent-arrival window, decayed by lulls.

        Measured from the oldest windowed arrival to *now* (not to the last
        arrival), so the estimate falls off once traffic stops -- which is
        what lets the fleet shrink after a flash crowd has passed.
        """
        if len(self._arrivals) < 2:
            return 0.0
        span_ms = max(now_ms - self._arrivals[0], 1e-6)
        return len(self._arrivals) / span_ms * 1000.0

    def per_request_ms(self) -> Optional[float]:
        """Mean EWMA per-request cost across replicas with an estimate."""
        estimates = [
            state.estimator.per_request_ms
            for state in self.router.replicas
            if state.estimator.per_request_ms is not None
        ]
        if not estimates:
            return None
        return ordered_sum(estimates) / len(estimates)

    def utilization(self, now_ms: float) -> Optional[float]:
        """Estimated fleet utilization: offered work rate over capacity."""
        per_request = self.per_request_ms()
        if per_request is None:
            return None
        rate = self.arrival_rate_per_s(now_ms)
        capacity = max(self._fleet.capacity, 1)
        return rate * per_request / 1000.0 / capacity

    def window_p99_ms(self) -> Optional[float]:
        if not self._latencies:
            return None
        return LatencySummary.from_values(self._latencies).p99_ms

    def next_ready_ms(self) -> Optional[float]:
        """Earliest pending-replica ready time (a loop wake-up target)."""
        if not self._fleet.pending:
            return None
        return min(self._fleet.pending.values())

    # -- control step ----------------------------------------------------

    def step(self, now_ms: float) -> None:
        """Promote warmed replicas, then apply at most one scale decision."""
        self._promote(now_ms)
        fleet = self.fleet_size
        utilization = self.utilization(now_ms)
        p99 = self.window_p99_ms()
        slo = self.config.slo_ms
        slo_breached = slo is not None and p99 is not None and p99 > slo
        up_cooled = now_ms - self._last_up_ms >= self.config.up_cooldown_ms
        if fleet < self.config.max_replicas and up_cooled:
            if slo_breached:
                self._scale_up(now_ms, f"p99 {p99:.1f} ms > SLO {slo:g} ms")
                return
            if utilization is not None and utilization > HIGH_WATERMARK:
                self._scale_up(now_ms, f"utilization {utilization:.2f} > {HIGH_WATERMARK:g}")
                return
        if (
            fleet > self.config.min_replicas
            and not self._fleet.pending
            and not slo_breached
            and now_ms - self._last_change_ms >= self.config.down_cooldown_ms
            and utilization is not None
            and utilization < LOW_WATERMARK
        ):
            self._scale_down(now_ms, f"utilization {utilization:.2f} < {LOW_WATERMARK:g}")

    def _promote(self, now_ms: float) -> None:
        ready_now = sorted(
            index for index, ready in self._fleet.pending.items() if ready <= now_ms + 1e-9
        )
        if not ready_now:
            return
        for index in ready_now:
            del self._fleet.pending[index]
            self._fleet.active.add(index)
        self.router.set_active(sorted(self._fleet.active))

    def _scale_up(self, now_ms: float, reason: str) -> None:
        candidates = [
            index
            for index in range(self._num_replicas)
            if index not in self._fleet.active and index not in self._fleet.pending
        ]
        if not candidates:
            return
        index = candidates[0]
        ready_ms = self._spin_up(index, now_ms)
        self._fleet.owned_since[index] = now_ms
        self.cold_start_ms += max(0.0, ready_ms - now_ms)
        if ready_ms <= now_ms + 1e-9:
            self._fleet.active.add(index)
            self.router.set_active(sorted(self._fleet.active))
        else:
            self._fleet.pending[index] = ready_ms
        self._last_up_ms = now_ms
        self._last_change_ms = now_ms
        self.events.append(ScaleEvent(now_ms, "up", index, reason, ready_ms=ready_ms))

    def _scale_down(self, now_ms: float, reason: str) -> None:
        # Only a drained replica can leave; prefer the newest (highest
        # index), which keeps the long-lived floor replicas' estimators and
        # caches warm.
        drained = [
            index
            for index in sorted(self._fleet.active, reverse=True)
            if self.router.replicas[index].inflight_batches == 0
        ]
        if not drained:
            return
        index = drained[0]
        self._fleet.active.discard(index)
        self.router.set_active(sorted(self._fleet.active))
        since = self._fleet.owned_since.pop(index, now_ms)
        self._fleet.gpu_time_ms += max(0.0, now_ms - since)
        self._spin_down(index, now_ms)
        self._last_change_ms = now_ms
        self.events.append(ScaleEvent(now_ms, "down", index, reason))

    # -- reporting -------------------------------------------------------

    @property
    def fleet_size(self) -> int:
        """Replicas currently paid for (active plus warming)."""
        return self._fleet.capacity

    def gpu_time_ms(self, end_ms: float) -> float:
        """The fleet's GPU-time integral up to ``end_ms`` (non-mutating)."""
        open_spans = ordered_sum(
            max(0.0, end_ms - since) for since in self._fleet.owned_since.values()
        )
        return self._fleet.gpu_time_ms + open_spans

    def stats(self, end_ms: float) -> Dict[str, Any]:
        """The report payload (``ServingReport.autoscale``)."""
        ups = sum(1 for event in self.events if event.action == "up")
        downs = sum(1 for event in self.events if event.action == "down")
        return {
            "min_replicas": self.config.min_replicas,
            "max_replicas": self.config.max_replicas,
            "initial_replicas": self.config.min_replicas,
            "final_fleet": self.fleet_size,
            "scale_ups": ups,
            "scale_downs": downs,
            "cold_start_ms": round(self.cold_start_ms, 3),
            "gpu_time_ms": round(self.gpu_time_ms(end_ms), 3),
            "events": [event.as_dict() for event in self.events],
        }
