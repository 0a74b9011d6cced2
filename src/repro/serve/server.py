"""Single-model serving: the host joins the device after every batch.

:class:`InferenceServer` is :class:`~repro.serve.core.ServingCore` over one
model with no router -- blocking by default, or pipelined one batch deep
with ``overlap=True``.  A :class:`~repro.serve.placement.ShardedModel` is
served the same way (it is one model to the loop).  See
:mod:`repro.serve.core` for the loop and the execution modes.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..models.base import require_protocol
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .core import ServingCore
from .fidelity import FidelityController
from .policy import SchedulerPolicy
from .request import Request
from .telemetry import ServingReport


class InferenceServer(ServingCore):
    """Serves a request list against one model on its simulated machine."""

    def __init__(
        self,
        model: Any,
        policy: SchedulerPolicy,
        overlap: bool = False,
        fidelity: Optional[FidelityController] = None,
        backfill_nodes: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if overlap:
            require_protocol(model, "overlap", "serve it with overlap=False")
        super().__init__(
            [model],
            policy,
            overlap=overlap,
            fidelity=fidelity,
            backfill_nodes=backfill_nodes,
            tracer=tracer,
            metrics=metrics,
        )

    # In the class body: benchmarks/spans.py times ``serve`` only where ``"serve" in cls.__dict__``.
    def serve(
        self,
        requests: Sequence[Request],
        label: str = "serve",
        arrival_name: str = "trace",
        warm_up: bool = True,
    ) -> ServingReport:
        """Serve ``requests`` to completion and return the telemetry report."""
        return super().serve(requests, label, arrival_name, warm_up)
