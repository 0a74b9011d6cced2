"""DyRep: representation learning over dynamic graphs (Trivedi et al., 2019).

DyRep is an event-based (continuous-time) model built on temporal point
processes.  When an event between nodes ``u`` and ``v`` is observed, each
endpoint's embedding is updated by an RNN cell whose input combines three
signals: a *localised embedding* aggregated from the other endpoint's
neighbourhood with temporal attention, *self-propagation* (the node's own
previous embedding) and an *exogenous drive* (the time elapsed since the
node's last update).  A conditional-intensity decoder then scores how likely
the event was.

Because computing the intensity for an event requires the most recently
updated embeddings, events must be processed strictly in order -- the paper
finds GPU utilization below 2% and GPU inference *slower* than CPU for every
batch size (Fig. 8(c)).

Region labels: ``Temporal Attention``, ``Node Embedding Update``,
``Conditional Intensity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import TemporalInteractionDataset
from ..graph.events import EventStream
from ..graph.sampling import TemporalNeighborSampler
from ..hw.machine import Machine
from ..nn import GRUCell, Linear
from ..nn import init as nn_init
from ..tensor import Tensor, ops
from .base import CONTINUOUS, DGNNModel, ModelCard


@dataclass(frozen=True)
class DyRepConfig:
    """DyRep hyper-parameters.

    Attributes:
        embedding_dim: Width of the dynamic node embeddings.
        num_neighbors: Neighbours aggregated by the temporal attention.
        batch_size: Events per profiled iteration (events inside a batch are
            still processed sequentially, which is the point).
    """

    embedding_dim: int = 64
    num_neighbors: int = 5
    batch_size: int = 64
    seed: int = 6


class DyRep(DGNNModel):
    """Event-sequential temporal point-process model."""

    name = "dyrep"
    serves_event_streams = True

    def __init__(
        self,
        machine: Machine,
        dataset: TemporalInteractionDataset,
        config: DyRepConfig = DyRepConfig(),
    ) -> None:
        super().__init__(machine)
        self.config = config
        self.dataset = dataset
        self.sampler = TemporalNeighborSampler(dataset.stream, uniform=False, seed=config.seed)
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        dim = config.embedding_dim
        self.attention_proj = Linear(dim, dim, device, rng)
        self.update_cell = GRUCell(dim + dim + 1, dim, device, rng)
        self.intensity_decoder = Linear(2 * dim, 1, device, rng)
        init_rng = np.random.default_rng(config.seed)
        self._embeddings = (
            init_rng.standard_normal((dataset.num_nodes, dim)).astype(np.float32) * 0.1
        )
        self._last_update = np.zeros(dataset.num_nodes, dtype=np.float64)

    # -- Table 1 --------------------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="DyRep",
            category=CONTINUOUS,
            evolving_node_features=True,
            evolving_edge_features=True,
            evolving_topology=True,
            evolving_weights=False,
            time_encoding="RNN",
            tasks=("dynamic link prediction", "time prediction"),
        )

    # -- batching ----------------------------------------------------------------------------

    def batch_footprint_bytes(self, batch: EventStream) -> int:
        dim = self.config.embedding_dim
        return int(batch.num_events * (2 * dim + self.config.num_neighbors * dim) * 4)

    # -- inference -------------------------------------------------------------------------------

    def inference_iteration(self, batch: EventStream) -> Tensor:
        """Process the batch's events one by one; returns the event intensities."""
        return self._event_sequential_iteration(batch)

    # -- per-event update -------------------------------------------------------------

    def _process_event(self, table: Tensor, src: int, dst: int, timestamp: float):
        """One DyRep event update; returns the new table and the intensity."""
        device = self.compute_device
        new_rows = {}
        for node, other in ((src, dst), (dst, src)):
            localized = self._localized_embedding(table, other, timestamp)
            with self.machine.region("Node Embedding Update"):
                previous = ops.gather_rows(table, np.array([node]))
                exogenous = Tensor(
                    np.array([[timestamp - self._last_update[node]]], dtype=np.float32), device
                )
                rnn_input = ops.concat([localized, previous, exogenous], axis=-1)
                new_rows[node] = self.update_cell(rnn_input, previous)
            self._last_update[node] = timestamp
        with self.machine.region("Node Embedding Update"):
            updated = ops.scatter_rows(
                table,
                np.array([src, dst]),
                ops.concat([new_rows[src], new_rows[dst]], axis=0),
            )
        with self.machine.region("Conditional Intensity"):
            pair = ops.concat([new_rows[src], new_rows[dst]], axis=-1)
            intensity = ops.softplus(self.intensity_decoder(pair))
        return (updated, intensity)

    def _localized_embedding(self, table: Tensor, node: int, timestamp: float) -> Tensor:
        """Temporal-attention aggregation of ``node``'s neighbourhood (1, dim)."""
        with self.machine.region("Temporal Attention"):
            sample = self.sampler.sample(
                np.array([node]),
                np.array([timestamp]),
                self.effective_fanout(self.config.num_neighbors),
            )
            neighbor_rows = ops.gather_rows(table, sample.neighbor_ids.reshape(-1))
            projected = self.attention_proj(neighbor_rows)
            target = ops.gather_rows(table, np.array([node]))
            scores = ops.matmul(projected, ops.transpose(target), name="dyrep_attn_scores")
            mask = Tensor(sample.mask.reshape(-1, 1), table.device)
            masked = ops.add(ops.mul(scores, mask), ops.mul(ops.sub(mask, 1.0), 1e9))
            weights = ops.softmax(ops.transpose(masked), axis=-1)
            aggregated = ops.matmul(weights, projected, name="dyrep_attn_agg")
            return aggregated
