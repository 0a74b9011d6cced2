"""JODIE: Predicting Dynamic Embedding Trajectory in Temporal Interaction
Networks (Kumar et al., 2019).

JODIE maintains a dynamic embedding per user and per item.  For every
interaction it (i) *projects* the user's embedding forward to the interaction
time (an attention-like elementwise projection), (ii) *predicts* the embedding
of the item the user will interact with, and (iii) *updates* both the user and
item embeddings with two mutually-recursive RNNs.  Inference uses the t-batch
schedule: batches whose interactions share no user or item, so the per-batch
RNN updates can run in parallel while the batches themselves remain strictly
sequential -- the temporal dependency that keeps JODIE's GPU utilization at
1.5-2.5% in the paper.

Fig. 5(a) describes the CPU/GPU choreography this class reproduces: the
t-batch is assembled on the CPU, shipped to the GPU, projected/predicted/
updated there, and the refreshed embeddings return to the CPU before the next
t-batch starts.

Region labels match Fig. 7(d): ``Load Embedding``, ``Project User Embedding``,
``Predict Item Embedding``, ``Update Embedding``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..datasets.base import TemporalInteractionDataset
from ..graph.tbatch import TBatch, iter_tbatches
from ..hw.machine import Machine
from ..nn import GRUCell, Linear
from ..nn import init as nn_init
from ..tensor import Tensor, ops
from .base import CONTINUOUS, DGNNModel, ModelCard


@dataclass(frozen=True)
class JODIEConfig:
    """JODIE hyper-parameters.

    Attributes:
        embedding_dim: Width of the dynamic user/item embeddings.
        max_tbatch_size: Cap on interactions per t-batch (large t-batches are
            split so the working set stays bounded).
    """

    embedding_dim: int = 64
    max_tbatch_size: int = 512
    seed: int = 2


class JODIE(DGNNModel):
    """JODIE with t-batched inference."""

    name = "jodie"

    def __init__(
        self,
        machine: Machine,
        dataset: TemporalInteractionDataset,
        config: JODIEConfig = JODIEConfig(),
    ) -> None:
        super().__init__(machine)
        if not dataset.is_bipartite:
            raise ValueError("JODIE expects a bipartite user-item interaction dataset")
        self.config = config
        self.dataset = dataset
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        dim = config.embedding_dim
        edge_dim = dataset.edge_dim
        self.user_rnn = GRUCell(dim + edge_dim + 1, dim, device, rng)
        self.item_rnn = GRUCell(dim + edge_dim + 1, dim, device, rng)
        self.projection = Linear(1, dim, device, rng)
        self.prediction = Linear(2 * dim, dim, device, rng)
        # Dynamic embedding state (host-resident between t-batches).
        init_rng = np.random.default_rng(config.seed)
        self._user_embeddings = (
            init_rng.standard_normal((dataset.num_users, dim)).astype(np.float32) * 0.1
        )
        self._item_embeddings = (
            init_rng.standard_normal((max(1, dataset.num_items), dim)).astype(np.float32) * 0.1
        )
        self._user_last_time = np.zeros(dataset.num_users, dtype=np.float64)
        self._item_last_time = np.zeros(max(1, dataset.num_items), dtype=np.float64)

    # -- Table 1 -----------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="JODIE",
            category=CONTINUOUS,
            evolving_node_features=True,
            evolving_edge_features=False,
            evolving_topology=True,
            evolving_weights=False,
            time_encoding="RNN",
            tasks=("future interaction prediction", "state change prediction"),
        )

    # -- batching --------------------------------------------------------------------

    def iteration_batches(self) -> Iterator[TBatch]:
        """Yield t-batches, split at ``max_tbatch_size``, outside the profiled regions.

        Each call assigns the whole stream to t-batches in one pass, then
        builds only the batches it is asked for, as they are consumed.
        """
        for batch in iter_tbatches(self.dataset.stream):
            yield from self._split(batch)

    def _split(self, batch: TBatch) -> Iterator[TBatch]:
        cap = self.config.max_tbatch_size
        if batch.size <= cap:
            yield batch
            return
        for start in range(0, batch.size, cap):
            stop = min(start + cap, batch.size)
            yield TBatch(
                event_indices=batch.event_indices[start:stop],
                users=batch.users[start:stop],
                items=batch.items[start:stop],
                timestamps=batch.timestamps[start:stop],
            )

    def batch_footprint_bytes(self, batch: TBatch) -> int:
        dim = self.config.embedding_dim
        return int(batch.size * (2 * dim + self.dataset.edge_dim + 2) * 4)

    # -- state ---------------------------------------------------------------------------

    @property
    def user_embeddings(self) -> np.ndarray:
        return self._user_embeddings.copy()

    @property
    def item_embeddings(self) -> np.ndarray:
        return self._item_embeddings.copy()

    # -- inference -------------------------------------------------------------------------

    def _forward(self, batch: TBatch) -> Tensor:
        """Process one t-batch; returns the predicted item embeddings."""
        device = self.compute_device
        host = self.host_device
        users = batch.users
        items = batch.items - self.dataset.num_users
        timestamps = batch.timestamps
        edge_feats_np = self.dataset.stream.edge_features[batch.event_indices]

        # (1) Assemble the t-batch payload on the CPU and ship it to the GPU.
        with self.machine.region("Load Embedding"):
            user_emb_host = ops.gather_rows(Tensor(self._user_embeddings, host), users)
            item_emb_host = ops.gather_rows(Tensor(self._item_embeddings, host), items)
            user_dt = (timestamps - self._user_last_time[users]).astype(np.float32)
            item_dt = (timestamps - self._item_last_time[items]).astype(np.float32)
            user_emb = user_emb_host.to(device, name="user_embeddings")
            item_emb = item_emb_host.to(device, name="item_embeddings")
            edge_feats = Tensor(edge_feats_np, host).to(device, name="edge_features")
            user_dt_t = Tensor(user_dt[:, None], host).to(device, name="user_dt")
            item_dt_t = Tensor(item_dt[:, None], host).to(device, name="item_dt")

        # (2) Project the user embedding to the interaction time.
        with self.machine.region("Project User Embedding"):
            drift = self.projection(user_dt_t)
            projected_user = ops.mul(user_emb, ops.add(drift, 1.0))

        # (3) Predict the embedding of the item the user will interact with.
        with self.machine.region("Predict Item Embedding"):
            predicted_item = self.prediction(ops.concat([projected_user, item_emb], axis=-1))

        # (4) Update both embeddings with the mutually-recursive RNNs and
        #     write the refreshed state back to the host for the next t-batch.
        with self.machine.region("Update Embedding"):
            user_input = ops.concat([item_emb, edge_feats, user_dt_t], axis=-1)
            item_input = ops.concat([user_emb, edge_feats, item_dt_t], axis=-1)
            new_user = self.user_rnn(user_input, user_emb)
            new_item = self.item_rnn(item_input, item_emb)
            new_user_host = new_user.to(host, name="updated_user_embeddings")
            new_item_host = new_item.to(host, name="updated_item_embeddings")
            self._user_embeddings[users] = new_user_host.data
            self._item_embeddings[items] = new_item_host.data
            self._user_last_time[users] = timestamps
            self._item_last_time[items] = timestamps
        return predicted_item
