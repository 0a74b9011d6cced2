"""Replicated multi-GPU serving: one batcher, N model replicas, a router.

:class:`ScaleOutServer` is :class:`~repro.serve.core.ServingCore` over
data-parallel replicas on one machine: every formed batch is routed to a
replica and dispatched asynchronously, so replicas execute concurrently in
simulated time.  See :mod:`repro.serve.core` for the loop, the async
dispatch protocol and the host-bound ceiling it runs into.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .core import ServingCore
from .fidelity import FidelityController
from .policy import SchedulerPolicy
from .request import Request
from .router import Router
from .telemetry import ServingReport


class ScaleOutServer(ServingCore):
    """Serves a request list against N model replicas on one machine."""

    def __init__(
        self,
        replicas: Sequence[Any],
        policy: SchedulerPolicy,
        router: Router,
        fidelity: Optional[FidelityController] = None,
        backfill_nodes: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if any(replica.machine is not replicas[0].machine for replica in replicas):
            raise ValueError("all replicas must live on one machine")
        super().__init__(
            replicas,
            policy,
            router=router,
            fidelity=fidelity,
            backfill_nodes=backfill_nodes,
            tracer=tracer,
            metrics=metrics,
        )

    # In the class body: benchmarks/spans.py times ``serve`` only where ``"serve" in cls.__dict__``.
    def serve(
        self,
        requests: Sequence[Request],
        label: str = "serve-scaleout",
        arrival_name: str = "trace",
        warm_up: bool = True,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the telemetry report."""
        return super().serve(requests, label, arrival_name, warm_up)
