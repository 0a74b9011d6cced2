"""Cross-time-step pipelining (paper Sec. 5.2.1, Fig. 10).

The paper proposes overlapping the RNN of time step ``t+1`` with the GNN of
time step ``t`` in EvolveGCN (and, analogously, sampling with attention in
TGAT, updating with intensity computation in LDG).  Two tools are provided:

* :class:`PipelinedEvolveGCN` -- a real restructuring of EvolveGCN-O that
  evolves the weights for a whole window of snapshots up front (legal for the
  -O variant, whose weight evolution does not depend on the node embeddings)
  and then streams the GNN computations.  With ``use_streams=True`` (the
  default on GPU machines) the weight-evolution RNN is issued onto a
  dedicated ``"rnn"`` GPU stream and each snapshot's GNN onto a ``"gnn"``
  stream gated by a recorded weight-ready event, so the two stages execute
  concurrently on the device exactly as Fig. 10 draws them; with
  ``use_streams=False`` both stages share the default stream and only the
  hoisting (not device-level overlap) remains.
* :func:`estimate_pipeline_speedup` -- an analytic what-if on a measured
  breakdown: if two stages were perfectly overlapped, the iteration would
  take ``max(a, b)`` instead of ``a + b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.breakdown import Breakdown
from ..graph.snapshots import GraphSnapshot
from ..models.evolvegcn import EvolveGCN
from ..nn.module import Parameter
from ..tensor import Tensor


@dataclass(frozen=True)
class PipelineEstimate:
    """Result of an analytic pipelining what-if.

    Attributes:
        baseline_ms: Measured serial time of the two stages plus the rest.
        pipelined_ms: Estimated time with the two stages overlapped.
    """

    baseline_ms: float
    pipelined_ms: float
    stage_a: str
    stage_b: str

    @property
    def speedup(self) -> float:
        if self.pipelined_ms <= 0:
            return float("inf")
        return self.baseline_ms / self.pipelined_ms


def estimate_pipeline_speedup(breakdown: Breakdown, stage_a: str, stage_b: str) -> PipelineEstimate:
    """Estimate the speedup from overlapping two stages of a breakdown."""
    a = breakdown.time_ms(stage_a)
    b = breakdown.time_ms(stage_b)
    rest = breakdown.total_ms - a - b
    return PipelineEstimate(
        baseline_ms=breakdown.total_ms,
        pipelined_ms=max(a, b) + rest,
        stage_a=stage_a,
        stage_b=stage_b,
    )


class PipelinedEvolveGCN:
    """Runs EvolveGCN-O over a snapshot window with pipelined weight evolution.

    The -O variant's weight RNN consumes only the previous weights, so the
    whole weight trajectory for a window of snapshots can be computed without
    waiting for any GNN work.  On a GPU machine with ``use_streams=True`` the
    trajectory is issued onto a dedicated ``"rnn"`` stream, each snapshot's
    weight pair records a ready event, and the per-snapshot GNN work runs on
    a ``"gnn"`` stream that waits only for *its own* snapshot's weights --
    RNN step ``t+1`` therefore executes concurrently with GNN step ``t``,
    which is exactly the schedule Fig. 10 illustrates.  With
    ``use_streams=False`` (or without a GPU) both stages share the default
    stream and only the critical-path hoisting remains (the seed behaviour).
    """

    #: GPU stream names used by the pipelined schedule.
    RNN_STREAM = "rnn"
    GNN_STREAM = "gnn"

    def __init__(self, model: EvolveGCN, use_streams: bool = True) -> None:
        if model.config.variant != "O":
            raise ValueError(
                "PipelinedEvolveGCN requires the -O variant: the -H weight evolution "
                "depends on the node embeddings of the same snapshot and cannot be hoisted"
            )
        self.model = model
        self.use_streams = use_streams

    def run_window(self, snapshots: Sequence[GraphSnapshot]) -> List[Tensor]:
        """Process a window of snapshots with pipelined weight evolution."""
        model = self.model
        machine = model.machine
        device = model.compute_device
        pipelined = self.use_streams and machine.has_gpu
        rnn_stream = machine.stream(device, self.RNN_STREAM) if pipelined else None
        gnn_stream = machine.stream(device, self.GNN_STREAM) if pipelined else None

        # Phase 1: evolve the whole weight trajectory (RNN only).  On the
        # "rnn" stream each snapshot's weight pair records a ready event so
        # the GNN stage can consume weights as they complete instead of
        # waiting for the whole trajectory.
        weight_0 = Tensor(model.weight_0.data, device)
        weight_1 = Tensor(model.weight_1.data, device)
        trajectory = []
        weight_ready = []
        with machine.region("RNN"):
            for _ in snapshots:
                if pipelined:
                    with machine.use_stream(rnn_stream):
                        weight_0 = model.weight_rnn_0(weight_0, weight_0)
                        weight_1 = model.weight_rnn_1(weight_1, weight_1)
                    weight_ready.append(machine.record_event(rnn_stream, name="weights_ready"))
                else:
                    weight_0 = model.weight_rnn_0(weight_0, weight_0)
                    weight_1 = model.weight_rnn_1(weight_1, weight_1)
                    weight_ready.append(None)
                trajectory.append((weight_0, weight_1))

        # Phase 2: stream the per-snapshot GNN work using the precomputed
        # weights.  The "gnn" stream waits on each snapshot's weight-ready
        # event, so it overlaps with still-executing later RNN steps.
        outputs: List[Tensor] = []
        for snapshot, (w0, w1), ready in zip(snapshots, trajectory, weight_ready):
            with machine.region("GNN"):
                adjacency, features = model._prepare_snapshot(snapshot)
                if pipelined:
                    machine.wait_event(gnn_stream, ready)
                    with machine.use_stream(gnn_stream):
                        hidden = model.gcn_layer(adjacency, features, w0)
                        embeddings = model.gcn_out_layer(adjacency, hidden, w1)
                        outputs.append(model.classifier(embeddings))
                else:
                    hidden = model.gcn_layer(adjacency, features, w0)
                    embeddings = model.gcn_out_layer(adjacency, hidden, w1)
                    outputs.append(model.classifier(embeddings))
        model.weight_0 = Parameter(trajectory[-1][0].data, device, name="gcn.weight0")
        model.weight_1 = Parameter(trajectory[-1][1].data, device, name="gcn.weight1")
        model.finish_iteration()
        return outputs
