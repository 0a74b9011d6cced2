"""Sampling/compute overlap (paper Sec. 5.1.1).

The paper proposes hiding the CPU-side graph-preprocessing cost (temporal
neighbourhood sampling, t-batching, time encoding) by overlapping it with the
accelerator-side computation of the previous batch.  Two tools are provided:

* :class:`OverlappedRunner` -- an *executable* double-buffered scheduler: the
  host-side preparation of batch ``i+1`` is issued onto a named CPU stream
  (a prefetch worker) while the device computes batch ``i``, with stream
  events ordering the hand-off.  Any model declaring ``supports_overlap``
  (e.g. :class:`~repro.models.tgat.TGAT`) can be driven this way.
* :func:`estimate_overlap_speedup` -- the analytic steady-state what-if on a
  measured profile: a perfectly overlapped pipeline is bound by the larger
  of the host and device halves.

Because the profiled models are sampling-bound, both tools show the same
thing the paper argues: the attainable speedup is limited by the sampling
half, so sampling must itself be accelerated, not merely hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple

from .._compat import ordered_sum
from ..core.breakdown import compute_breakdown
from ..core.profiler import Profile
from ..hw.stream import Stream, StreamEvent
from ..models.base import require_protocol

#: Breakdown labels counted as host-side preprocessing that could be overlapped.
HOST_LABELS = (
    "Sampling (CPU)",
    "Sampling",
    "Load Embedding",
    "top-k",
    "Etc(data loading, cuda sync)",
)


@dataclass(frozen=True)
class OverlapEstimate:
    """Result of the sampling/compute overlap what-if.

    Attributes:
        baseline_ms: Measured iteration breakdown total.
        overlapped_ms: Estimated steady-state iteration time if host-side
            preprocessing of batch ``i+1`` ran concurrently with device-side
            work of batch ``i``.
        host_ms / device_ms: The two halves being overlapped.
    """

    baseline_ms: float
    overlapped_ms: float
    host_ms: float
    device_ms: float

    @property
    def speedup(self) -> float:
        if self.overlapped_ms <= 0:
            return float("inf")
        return self.baseline_ms / self.overlapped_ms

    @property
    def bound_by(self) -> str:
        """Which half limits the pipelined iteration ("host" or "device")."""
        return "host" if self.host_ms >= self.device_ms else "device"


def estimate_overlap_speedup(profile: Profile) -> OverlapEstimate:
    """Estimate the steady-state speedup of overlapping preprocessing with compute.

    The host half is the sum of the :data:`HOST_LABELS` rows; the device
    half is everything else (attention/GNN/RNN compute, transfers, syncs).
    In steady state a perfectly overlapped pipeline is bound by the larger
    half, which for sampling-bound models like TGAT means the benefit is
    capped well below 2x -- matching the paper's observation that sampling
    must itself be accelerated, not merely hidden.
    """
    breakdown = compute_breakdown(profile)
    host_ms = ordered_sum(breakdown.time_ms(label) for label in HOST_LABELS)
    device_ms = breakdown.total_ms - host_ms
    return OverlapEstimate(
        baseline_ms=breakdown.total_ms,
        overlapped_ms=max(host_ms, device_ms),
        host_ms=host_ms,
        device_ms=device_ms,
    )


# -- executable scheduler ------------------------------------------------------


@dataclass
class OverlapRunResult:
    """Outcome of one :meth:`OverlappedRunner.run` call.

    Attributes:
        outputs: Per-batch model outputs, in batch order.
        iteration_ms: Host-observed wall time of each iteration (the wait for
            the batch's preparation plus its device computation).  The first
            entry includes the pipeline-fill cost unless the run was primed
            with :meth:`OverlappedRunner.prefetch`.
    """

    outputs: List[Any] = field(default_factory=list)
    iteration_ms: List[float] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return ordered_sum(self.iteration_ms)

    def steady_state_ms(self) -> float:
        """Mean per-iteration time after discarding the pipeline-fill iteration."""
        tail = self.iteration_ms[1:] or self.iteration_ms
        if not tail:
            return 0.0
        return ordered_sum(tail) / len(tail)


class OverlappedRunner:
    """Double-buffered execution of a prepare/compute model (Sec. 5.1.1).

    Drives any model declaring ``supports_overlap``:

    * ``prepare_iteration(batch)`` -- host-only preprocessing returning an
      opaque *plan* (for TGAT: the temporal-neighbourhood sampling plan);
    * ``compute_iteration(batch, plan)`` -- the base model's device half,
      which synchronises only the compute device's default stream, not the
      whole machine.

    The runner issues ``prepare_iteration(batch[i+1])`` onto a named CPU
    stream (modelling the prefetch worker thread the paper proposes) before
    waiting on the recorded completion event of ``prepare(batch[i])`` and
    running ``compute_iteration(batch[i])``.  In steady state the iteration
    time is therefore ``max(host_half, device_half)`` -- the executable
    counterpart of :func:`estimate_overlap_speedup`.
    """

    #: Name of the CPU prefetch stream.
    STREAM_NAME = "sampling"

    def __init__(self, model: Any) -> None:
        require_protocol(model, "overlap", "see OverlappedRunner docs")
        self.model = model
        self._pending: Optional[Tuple[Any, Any, StreamEvent]] = None

    @property
    def stream(self) -> Stream:
        """The CPU prefetch stream preparation work is issued onto."""
        machine = self.model.machine
        return machine.stream(machine.cpu, self.STREAM_NAME)

    def prefetch(self, batch: Any) -> None:
        """Issue the preparation of ``batch`` ahead of a :meth:`run` call.

        Priming the pipeline outside a profiling window excludes the one-time
        fill cost from steady-state measurements.
        """
        self._pending = self._issue_prepare(batch)

    def run(self, batches: Iterable[Any]) -> OverlapRunResult:
        """Process ``batches`` with sampling/compute overlap."""
        machine = self.model.machine
        result = OverlapRunResult()
        batch_list = list(batches)
        for index, batch in enumerate(batch_list):
            if self._pending is None or self._pending[0] is not batch:
                self._pending = self._issue_prepare(batch)
            _, plan, ready = self._pending
            self._pending = None
            started = machine.host_time_ms
            # Prefetch the next batch *before* blocking on this one so the
            # prefetch stream stays fed while the device computes.
            if index + 1 < len(batch_list):
                self._pending = self._issue_prepare(batch_list[index + 1])
            machine.event_synchronize(ready, name="wait_prepared")
            result.outputs.append(self.model.compute_iteration(batch, plan))
            result.iteration_ms.append(machine.host_time_ms - started)
        return result

    def run_sequential(self, batches: Iterable[Any]) -> OverlapRunResult:
        """Baseline: the same batches through ``inference_iteration``."""
        machine = self.model.machine
        result = OverlapRunResult()
        for batch in batches:
            started = machine.host_time_ms
            result.outputs.append(self.model.inference_iteration(batch))
            result.iteration_ms.append(machine.host_time_ms - started)
        return result

    def _issue_prepare(self, batch: Any) -> Tuple[Any, Any, StreamEvent]:
        machine = self.model.machine
        stream = self.stream
        with machine.use_stream(stream):
            plan = self.model.prepare_iteration(batch)
            ready = machine.record_event(stream, name="prepared")
        return (batch, plan, ready)
