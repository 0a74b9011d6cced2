"""Pluggable batch-scheduling policies for the inference server.

A policy answers two questions about the request queue: *how many* queued
requests to dispatch as one dynamic batch right now (``0`` = keep waiting),
and *when* to re-evaluate absent new arrivals (the timeout / deadline the
server advances the simulated clock to).  Three policies are provided:

* :class:`FIFOPolicy` -- dispatch whatever is queued immediately (up to
  ``max_batch_size``).  Minimises queueing delay at low load but forfeits
  batching efficiency.
* :class:`TimeoutBatchingPolicy` -- accumulate until the batch is full or
  the oldest request has waited ``batch_timeout_ms``: the classic dynamic
  batcher (TF-Serving/Triton style).
* :class:`SLOAwarePolicy` -- timeout batching that additionally tracks an
  online estimate of batch service time and *shrinks* the batch when the
  oldest request's deadline no longer fits a full batch's service.

Policies are pure decision logic over (queue, clock); they never touch the
machine, which keeps them unit-testable without a simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..domain import NON_NEGATIVE, POSITIVE, POSITIVE_INT
from .request import Request

#: EWMA smoothing weight of each new per-request service sample.
ESTIMATOR_ALPHA = 0.3
#: Headroom the SLO policy multiplies every service estimate by.
SAFETY_FACTOR = 1.2


class ServiceTimeEstimator:
    """Online EWMA estimate of per-request service cost.

    The server feeds every completed batch back via :meth:`observe`; the
    SLO-aware policy asks :meth:`estimate` how long a candidate batch would
    take.  A single smoothed per-request cost is enough here because batch
    service in the simulator is dominated by per-event sampling/compute,
    which scales near-linearly with batch size.
    """

    def __init__(self) -> None:
        self._per_request_ms: Optional[float] = None

    @property
    def per_request_ms(self) -> Optional[float]:
        """Smoothed service cost of one request (``None`` before any batch)."""
        return self._per_request_ms

    def observe(self, batch_size: int, service_ms: float) -> None:
        """Fold one completed batch into the estimate."""
        if batch_size <= 0 or service_ms < 0:
            return
        sample = service_ms / batch_size
        if self._per_request_ms is None:
            self._per_request_ms = sample
        else:
            self._per_request_ms += ESTIMATOR_ALPHA * (sample - self._per_request_ms)

    def estimate(self, batch_size: int) -> float:
        """Estimated service time of a ``batch_size`` batch (0 when unknown)."""
        if self._per_request_ms is None:
            return 0.0
        return self._per_request_ms * batch_size


class SchedulerPolicy:
    """Base class: decides batch formation over the request queue."""

    #: Registry name; subclasses override.
    name: str = "policy"
    #: The overrides :func:`make_policy` accepts for this policy, in the
    #: order ``batch_timeout_ms``, ``slo_ms``; each is a constructor keyword
    #: whose default is the policy's own.
    overrides: Tuple[str, ...] = ()

    def __init__(self, max_batch_size: int = 8) -> None:
        self.max_batch_size = POSITIVE_INT.check("max_batch_size", max_batch_size)

    def select_batch_size(self, queue: Sequence[Request], now_ms: float) -> int:
        """Number of requests (from the queue head) to dispatch now; 0 = wait."""
        raise NotImplementedError

    def next_deadline_ms(self, queue: Sequence[Request], now_ms: float) -> Optional[float]:
        """Absolute time at which the policy wants to re-evaluate, or ``None``.

        The server advances the simulated clock to the earlier of this and
        the next request arrival when the policy declines to dispatch.
        """
        return None

    def observe(self, batch_size: int, service_ms: float) -> None:
        """Feedback hook: one batch of ``batch_size`` took ``service_ms``."""

    def attach_fidelity(self, controller) -> None:
        """Refuse a degradation controller: only ``slo`` estimates deadlines."""
        raise TypeError(
            f"policy {self.describe()} has no deadline estimator to drive "
            "degradation; adaptive fidelity requires the 'slo' policy"
        )

    def describe(self) -> str:
        return f"{self.name}(max_batch_size={self.max_batch_size})"


class FIFOPolicy(SchedulerPolicy):
    """Dispatch immediately: whatever is queued, up to the batch cap."""

    name = "fifo"

    def select_batch_size(self, queue: Sequence[Request], now_ms: float) -> int:
        return min(len(queue), self.max_batch_size)


class TimeoutBatchingPolicy(SchedulerPolicy):
    """Accumulate until the batch fills or the oldest request times out."""

    name = "timeout"
    overrides = ("batch_timeout_ms",)

    def __init__(self, max_batch_size: int = 8, batch_timeout_ms: float = 5.0) -> None:
        super().__init__(max_batch_size=max_batch_size)
        self.batch_timeout_ms = NON_NEGATIVE.check("batch timeout (ms)", batch_timeout_ms)

    def select_batch_size(self, queue: Sequence[Request], now_ms: float) -> int:
        if not queue:
            return 0
        if len(queue) >= self.max_batch_size:
            return self.max_batch_size
        if now_ms - queue[0].arrival_ms >= self.batch_timeout_ms:
            return len(queue)
        return 0

    def next_deadline_ms(self, queue: Sequence[Request], now_ms: float) -> Optional[float]:
        if not queue:
            return None
        return queue[0].arrival_ms + self.batch_timeout_ms

    def describe(self) -> str:
        return (
            f"{self.name}(max_batch_size={self.max_batch_size}, "
            f"batch_timeout_ms={self.batch_timeout_ms})"
        )


class SLOAwarePolicy(TimeoutBatchingPolicy):
    """Timeout batching that shrinks batches under deadline pressure.

    While the oldest queued request has comfortable slack, this behaves like
    :class:`TimeoutBatchingPolicy`.  Once the slack no longer covers the
    estimated service time of the batch it would otherwise form, the policy
    dispatches immediately with the largest batch whose estimated service
    still fits inside the slack (always at least one request -- a late
    dispatch is better than a later one).  The estimate comes from a
    :class:`ServiceTimeEstimator` fed by the server's completion feedback.
    """

    name = "slo"
    overrides = ("batch_timeout_ms", "slo_ms")

    #: Scheduling arithmetic (deadline - now, division by the per-request
    #: cost) accumulates float rounding error; comparisons within this many
    #: ms are treated as equal so a wake-up scheduled *at* the pressure
    #: boundary actually lands in the pressure branch.
    EPS_MS = 1e-9

    def __init__(
        self,
        max_batch_size: int = 8,
        batch_timeout_ms: float = 5.0,
        slo_ms: float = 50.0,
    ) -> None:
        super().__init__(max_batch_size=max_batch_size, batch_timeout_ms=batch_timeout_ms)
        self.slo_ms = POSITIVE.check("SLO (ms)", slo_ms)
        self.estimator = ServiceTimeEstimator()
        #: Optional degradation controller (see :mod:`repro.serve.fidelity`).
        #: The policy only *consults* it -- state advances at server dispatch.
        self.fidelity = None

    def attach_fidelity(self, controller) -> None:
        """Let the unsalvageable-deadline branch consider degraded service.

        With a controller attached, a batch that cannot make its deadline at
        full quality re-checks the fit at the controller's next degradation
        level before falling back to throughput batching.
        """
        self.fidelity = controller

    def _slack_ms(self, oldest: Request, now_ms: float) -> float:
        deadline = oldest.deadline_ms
        if deadline is None:
            deadline = oldest.arrival_ms + self.slo_ms
        return deadline - now_ms

    def _fitting(self, slack_ms: float, cost_ms: float, candidate: int) -> int:
        """Largest batch whose estimated service fits ``slack_ms``.

        Float-tolerant: ``slack / cost`` for a batch scheduled exactly at
        its pressure boundary is an integer up to rounding error, and a
        plain floor would drop it to ``n - 1`` -- stranding the tail of the
        queue past its deadline.
        """
        if cost_ms <= 0:
            return candidate
        return int(slack_ms / cost_ms + self.EPS_MS)

    def select_batch_size(self, queue: Sequence[Request], now_ms: float) -> int:
        if not queue:
            return 0
        candidate = min(len(queue), self.max_batch_size)
        per_request = self.estimator.per_request_ms
        if per_request is None:
            # No service observations yet: fall back to plain timeout batching.
            return super().select_batch_size(queue, now_ms)
        slack = self._slack_ms(queue[0], now_ms)
        cost = per_request * SAFETY_FACTOR
        if slack > self.estimator.estimate(candidate) * SAFETY_FACTOR + self.EPS_MS:
            # Comfortable slack: a full batch still makes the deadline.
            return super().select_batch_size(queue, now_ms)
        fitting = self._fitting(slack, cost, candidate)
        if fitting < 1:
            if self.fidelity is not None:
                # Before conceding the deadline, re-price the batch at the
                # controller's next degradation level: shrunken fan-out /
                # widened staleness may still fit a batch inside the slack.
                degraded = self._fitting(
                    slack, cost * self.fidelity.projected_cost_scale(), candidate
                )
                if degraded >= 1:
                    return min(candidate, degraded)
            # The oldest deadline is unsalvageable even with a batch of one;
            # shrinking would only shed throughput and grow the backlog (a
            # latency death spiral under overload), so batch for throughput.
            return super().select_batch_size(queue, now_ms)
        # Deadline pressure: dispatch now with the largest batch that fits.
        return min(candidate, fitting)

    def deadline_pressured(self, queue: Sequence[Request], now_ms: float) -> bool:
        """Whether the oldest queued request misses its deadline at full cost.

        The server asks this at dispatch time to drive the fidelity
        controller's escalate/recover state machine; it mirrors the
        unsalvageable branch of :meth:`select_batch_size` (a batch of one at
        full quality no longer fits the slack) without any side effects.
        """
        if not queue:
            return False
        per_request = self.estimator.per_request_ms
        if per_request is None:
            return False
        slack = self._slack_ms(queue[0], now_ms)
        return self._fitting(slack, per_request * SAFETY_FACTOR, 1) < 1

    def next_deadline_ms(self, queue: Sequence[Request], now_ms: float) -> Optional[float]:
        timeout_deadline = super().next_deadline_ms(queue, now_ms)
        if not queue:
            return timeout_deadline
        per_request = self.estimator.per_request_ms
        if per_request is None:
            return timeout_deadline
        candidate = min(len(queue), self.max_batch_size)
        slack = self._slack_ms(queue[0], now_ms)
        cost = per_request * SAFETY_FACTOR
        # Schedule the wake-up against the batch select_batch_size would
        # *actually* dispatch, not the full candidate: when the slack already
        # caps the dispatchable batch below the candidate, pushing the wake
        # out to the full-candidate pressure point would land it after the
        # moment that smaller batch could still make the deadline.
        fitting = self._fitting(slack, cost, candidate)
        selected = min(candidate, max(fitting, 1))
        pressure_start = (
            now_ms + slack - self.estimator.estimate(selected) * SAFETY_FACTOR
        )
        if pressure_start <= now_ms + self.EPS_MS:
            # Already under pressure: act immediately if a shrunken batch can
            # still make the deadline, otherwise wait for the plain timeout.
            if fitting >= 1:
                return now_ms
            return timeout_deadline
        if timeout_deadline is None:
            return pressure_start
        return min(timeout_deadline, pressure_start)

    def observe(self, batch_size: int, service_ms: float) -> None:
        self.estimator.observe(batch_size, service_ms)

    def describe(self) -> str:
        return (
            f"{self.name}(max_batch_size={self.max_batch_size}, "
            f"batch_timeout_ms={self.batch_timeout_ms}, slo_ms={self.slo_ms})"
        )


#: Policy registry for the CLI / experiment sweeps.
POLICIES: Dict[str, Type[SchedulerPolicy]] = {
    FIFOPolicy.name: FIFOPolicy,
    TimeoutBatchingPolicy.name: TimeoutBatchingPolicy,
    SLOAwarePolicy.name: SLOAwarePolicy,
}


def available_policies() -> List[str]:
    return sorted(POLICIES)


def _given_overrides(
    batch_timeout_ms: Optional[float], slo_ms: Optional[float]
) -> Dict[str, float]:
    """The overrides a caller passed, by constructor keyword, in declaration order."""
    pairs = (("batch_timeout_ms", batch_timeout_ms), ("slo_ms", slo_ms))
    return {name: value for name, value in pairs if value is not None}


def applicable_policy_overrides(
    name: str,
    batch_timeout_ms: Optional[float] = None,
    slo_ms: Optional[float] = None,
) -> Dict[str, float]:
    """The subset of overrides the named policy consumes.

    Experiment grids run one workload across several policies carrying a
    single ``(batch_timeout_ms, slo_ms)`` pair; this filters that pair down
    to what ``name`` actually takes (its class's ``overrides``), so
    :func:`make_policy` -- which rejects inapplicable overrides -- can be
    called uniformly across the sweep.
    """
    accepted = POLICIES.get(name.lower(), SchedulerPolicy).overrides
    given = _given_overrides(batch_timeout_ms, slo_ms)
    return {key: value for key, value in given.items() if key in accepted}


def make_policy(
    name: str,
    max_batch_size: int = 8,
    batch_timeout_ms: Optional[float] = None,
    slo_ms: Optional[float] = None,
) -> SchedulerPolicy:
    """Build a scheduler policy by registry name.

    Only the overrides the policy class declares (``overrides``) are
    accepted: ``batch_timeout_ms`` applies to ``timeout`` and ``slo``,
    ``slo_ms`` to ``slo`` alone.  Passing an inapplicable override raises
    :class:`ValueError` -- silently dropping it would let a CLI typo
    (``--policy fifo --batch-timeout-ms 20``) change nothing while looking
    accepted.  Omitted overrides fall back to the constructor's defaults.
    """
    key = name.lower()
    if key not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; available: {', '.join(available_policies())}")
    cls = POLICIES[key]
    given = _given_overrides(batch_timeout_ms, slo_ms)
    inapplicable = [override for override in given if override not in cls.overrides]
    if inapplicable:
        raise ValueError(
            f"policy {name!r} does not take {' or '.join(inapplicable)}; "
            "drop the override or pick a policy that consumes it "
            f"(available: {', '.join(available_policies())})"
        )
    return cls(max_batch_size, **given)
