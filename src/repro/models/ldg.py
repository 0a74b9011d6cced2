"""LDG: Latent Dynamic Graph with bilinear interactions (Knyazev et al., 2021).

LDG shares DyRep's event-sequential node-embedding update but replaces the
fixed graph attention with an encoder from Neural Relational Inference (NRI):
a sequence of learnable edge/node mapping functions that infer a latent
interaction graph, followed by a bilinear decoder that scores node pairs.
The paper profiles both the MLP-encoder and bilinear variants and finds the
same behaviour as DyRep: utilization below 2% and no GPU speedup at any batch
size (Fig. 8(d)).

Region labels: ``Encoder (NRI)``, ``Node Embedding Update``,
``Bilinear Decoder``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import TemporalInteractionDataset
from ..graph.events import EventStream
from ..hw.machine import Machine
from ..nn import MLP, GRUCell
from ..nn import init as nn_init
from ..tensor import Tensor, ops
from .base import CONTINUOUS, DGNNModel, ModelCard


@dataclass(frozen=True)
class LDGConfig:
    """LDG hyper-parameters.

    Attributes:
        embedding_dim: Width of the dynamic node embeddings.
        latent_edge_dim: Width of the NRI latent edge representation.
        batch_size: Events per profiled iteration.
        bilinear: Use the bilinear decoder (True) or an MLP decoder (False);
            the paper profiles both variants.
    """

    embedding_dim: int = 64
    latent_edge_dim: int = 32
    batch_size: int = 64
    bilinear: bool = True
    seed: int = 8


class LDG(DGNNModel):
    """DyRep-style updates with an NRI encoder and a bilinear decoder."""

    name = "ldg"
    serves_event_streams = True

    def __init__(
        self,
        machine: Machine,
        dataset: TemporalInteractionDataset,
        config: LDGConfig = LDGConfig(),
    ) -> None:
        super().__init__(machine)
        self.config = config
        self.dataset = dataset
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        dim = config.embedding_dim
        edge_dim = config.latent_edge_dim
        # NRI encoder: node->edge and edge->node mapping functions.
        self.node_to_edge = MLP((2 * dim, edge_dim, edge_dim), device, rng)
        self.edge_to_node = MLP((edge_dim, dim), device, rng)
        self.update_cell = GRUCell(dim + dim + 1, dim, device, rng)
        if config.bilinear:
            self.bilinear_weight = nn_init.xavier_uniform(
                (dim, dim), device, rng, name="bilinear.weight"
            )
            self.decoder_mlp = None
        else:
            self.bilinear_weight = None
            self.decoder_mlp = MLP((2 * dim, dim, 1), device, rng)
        init_rng = np.random.default_rng(config.seed)
        self._embeddings = (
            init_rng.standard_normal((dataset.num_nodes, dim)).astype(np.float32) * 0.1
        )
        self._last_update = np.zeros(dataset.num_nodes, dtype=np.float64)

    # -- Table 1 -----------------------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="LDG",
            category=CONTINUOUS,
            evolving_node_features=True,
            evolving_edge_features=True,
            evolving_topology=True,
            evolving_weights=True,
            time_encoding="RNN + self-attention",
            tasks=("dynamic link prediction",),
        )

    # -- batching --------------------------------------------------------------------------------

    def batch_footprint_bytes(self, batch: EventStream) -> int:
        dim = self.config.embedding_dim
        return int(batch.num_events * (2 * dim + self.config.latent_edge_dim) * 4)

    # -- inference --------------------------------------------------------------------

    def inference_iteration(self, batch: EventStream) -> Tensor:
        """Process the batch's events one by one; returns the pair scores."""
        return self._event_sequential_iteration(batch)

    # -- per-event update -------------------------------------------------------------

    def _process_event(self, table: Tensor, src: int, dst: int, timestamp: float):
        device = self.compute_device
        # NRI encoder: infer the latent edge between the two endpoints and the
        # resulting node-level messages.
        with self.machine.region("Encoder (NRI)"):
            src_row = ops.gather_rows(table, np.array([src]))
            dst_row = ops.gather_rows(table, np.array([dst]))
            edge_latent = self.node_to_edge(ops.concat([src_row, dst_row], axis=-1))
            message = self.edge_to_node(edge_latent)
        # DyRep-style recurrent node update for both endpoints.
        new_rows = {}
        with self.machine.region("Node Embedding Update"):
            for node, previous in ((src, src_row), (dst, dst_row)):
                exogenous = Tensor(
                    np.array([[timestamp - self._last_update[node]]], dtype=np.float32), device
                )
                rnn_input = ops.concat([message, previous, exogenous], axis=-1)
                new_rows[node] = self.update_cell(rnn_input, previous)
                self._last_update[node] = timestamp
            updated = ops.scatter_rows(
                table,
                np.array([src, dst]),
                ops.concat([new_rows[src], new_rows[dst]], axis=0),
            )
        # Bilinear (or MLP) decoder scoring the interaction.
        with self.machine.region("Bilinear Decoder"):
            if self.bilinear_weight is not None:
                left = ops.matmul(new_rows[src], self.bilinear_weight, name="bilinear_left")
                score = ops.sigmoid(
                    ops.matmul(left, ops.transpose(new_rows[dst]), name="bilinear_right")
                )
            else:
                pair = ops.concat([new_rows[src], new_rows[dst]], axis=-1)
                score = ops.sigmoid(self.decoder_mlp(pair))
        return (updated, score)
