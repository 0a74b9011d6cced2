"""TGN: Temporal Graph Networks (Rossi et al., 2020).

TGN keeps a *memory* vector per node.  For each batch of interactions it
(i) collects the raw messages produced by the previous events of the batch's
nodes on the CPU, (ii) ships the batch to the GPU, (iii) aggregates messages
per node and updates the node memories with a GRU, (iv) computes time-aware
node embeddings with graph attention over sampled temporal neighbours, and
(v) scores the batch's edges, sending the predictions back to the host.

The paper (Figs. 5(b), 6(c), 7(a)) highlights TGN's frequent CPU<->GPU memory
exchange: raw messages and node memories cross PCIe every batch, so the
message-passing stage dominates at large batch sizes and GPU utilization
*drops* as the batch grows.

Region labels: ``Aggregate Messages``, ``Update Memory``,
``Compute Embedding``, ``Message Passing`` (transfer-heavy neighbour
gathering), with transfers visible as ``Memory Copy`` unless folded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.base import TemporalInteractionDataset
from ..graph.events import EventStream
from ..graph.sampling import TemporalNeighborSampler
from ..hw.machine import Machine
from ..nn import MLP, BochnerTimeEncoder, GRUCell, Linear, TemporalNeighborAttention
from ..nn import init as nn_init
from ..tensor import Tensor, meta, ops
from .base import CONTINUOUS, DGNNModel, ModelCard


@dataclass(frozen=True)
class TGNConfig:
    """TGN hyper-parameters.

    Attributes:
        memory_dim: Width of the per-node memory vector.
        embedding_dim: Width of the computed node embeddings.
        time_dim: Width of the time encoding.
        num_neighbors: Temporal neighbours used by the embedding module.
        num_heads: Attention heads in the embedding module.
        batch_size: Interactions per batch -- the swept parameter of
            Figs. 6(c), 7(a) and Table 2.
    """

    memory_dim: int = 64
    embedding_dim: int = 64
    time_dim: int = 16
    num_neighbors: int = 10
    num_heads: int = 2
    batch_size: int = 128
    seed: int = 1


class TGN(DGNNModel):
    """Temporal graph network with a per-node memory module.

    With a serving cache attached (see :mod:`repro.cache`) the iteration
    becomes cache-aware in two places: the per-node *memory rows* shipped to
    the device each batch are fronted by a write-through device-resident
    store (a hit skips the row's PCIe upload; values are exact because every
    memory write re-registers its row), and the temporal-neighbourhood
    queries are fronted by the sample store.  At a staleness bound of 0 no
    entry is served and the iteration is byte-identical to uncached
    execution.
    """

    name = "tgn"
    serves_event_streams = True
    supports_caching = True
    cache_kinds = ("memory", "sample")

    def __init__(
        self,
        machine: Machine,
        dataset: TemporalInteractionDataset,
        config: TGNConfig = TGNConfig(),
    ) -> None:
        super().__init__(machine)
        self.config = config
        self.dataset = dataset
        self.sampler = TemporalNeighborSampler(dataset.stream, uniform=True, seed=config.seed)
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        message_dim = 2 * config.memory_dim + dataset.edge_dim + config.time_dim
        self.message_mlp = MLP((message_dim, config.memory_dim), device, rng)
        self.memory_updater = GRUCell(config.memory_dim, config.memory_dim, device, rng)
        self.time_encoder = BochnerTimeEncoder(config.time_dim, device)
        self.embedding_attention = TemporalNeighborAttention(
            config.memory_dim, config.time_dim, config.num_heads, device, rng
        )
        self.embedding_proj = Linear(config.memory_dim, config.embedding_dim, device, rng)
        self.link_predictor = MLP((2 * config.embedding_dim, config.embedding_dim, 1), device, rng)
        # Node state: memory lives on the compute device (GPU when present);
        # the last-update clock is host-side bookkeeping.
        self._memory = np.zeros((dataset.num_nodes, config.memory_dim), dtype=np.float32)
        self._last_update = np.zeros(dataset.num_nodes, dtype=np.float64)

    # -- Table 1 ----------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="TGN",
            category=CONTINUOUS,
            evolving_node_features=True,
            evolving_edge_features=True,
            evolving_topology=False,
            evolving_weights=False,
            time_encoding="time embedding",
            tasks=("future edge prediction",),
        )

    # -- batching ------------------------------------------------------------------

    def batch_footprint_bytes(self, batch: EventStream) -> int:
        nodes = 2 * batch.num_events
        per_node = (2 * self.config.memory_dim + self.config.embedding_dim) * 4
        neighbors = nodes * self.config.num_neighbors * self.config.memory_dim * 4
        return int(nodes * per_node + neighbors + batch.edge_features.nbytes)

    # -- cache plumbing ----------------------------------------------------------------

    @property
    def _memory_row_bytes(self) -> int:
        return self.config.memory_dim * 4

    def _upload_memory_rows(
        self, host_rows: Tensor, nodes: np.ndarray, times: np.ndarray, name: str
    ) -> Tensor:
        """Move gathered memory rows to the device through the memory cache.

        Rows with a live cache entry are served from the device-resident
        pool (the cache charges their gather); only the miss rows pay the
        host->device transfer, and they are registered for future batches.
        The returned tensor always carries the host mirror's values, so
        numerics are identical whether or not anything hit.
        """
        device = self.compute_device
        cache = self.cache
        if cache is None or cache.memory is None or not self.uses_gpu:
            return host_rows.to(device, name=name)
        hit_idx, miss_idx = cache.lookup_memory(nodes, times)
        if miss_idx.size:
            miss_host = Tensor(host_rows.data[miss_idx], self.host_device, name=name)
            miss_host.to(device, name=name)
            cache.store_memory_rows(
                np.asarray(nodes)[miss_idx],
                np.asarray(times, dtype=np.float64)[miss_idx],
                self._memory_row_bytes,
            )
        return Tensor(host_rows.data, device, name=name)

    # -- inference ---------------------------------------------------------------------

    def _forward(self, batch: EventStream) -> Tensor:
        """Process one batch of interactions; returns the edge probabilities."""
        device = self.compute_device
        host = self.host_device
        src, dst, timestamps = (batch.src, batch.dst, batch.timestamps)
        nodes = np.concatenate([src, dst])

        # (1) Raw-message collection on the host (Fig. 5(b) "Get Raw Messages").
        with self.machine.region("Aggregate Messages"):
            host_memory = Tensor(self._memory, host)
            src_mem_host = ops.gather_rows(host_memory, src)
            dst_mem_host = ops.gather_rows(host_memory, dst)
            edge_feats_host = Tensor(batch.edge_features, host)
            deltas = (timestamps - self._last_update[src]).astype(np.float32)
            # Batch payload crosses PCIe: memories, edge features, time
            # deltas.  The memory rows go through the write-through device
            # cache when one is attached, so previously registered rows skip
            # the upload.
            src_mem = self._upload_memory_rows(src_mem_host, src, timestamps, "src_memory")
            dst_mem = self._upload_memory_rows(dst_mem_host, dst, timestamps, "dst_memory")
            edge_feats = edge_feats_host.to(device, name="edge_features")
            delta_t = Tensor(deltas, host).to(device, name="time_deltas")

        # (2) Memory update on the device.
        with self.machine.region("Update Memory"):
            time_enc = self.time_encoder(delta_t)
            message = ops.concat([src_mem, dst_mem, edge_feats, time_enc], axis=-1)
            message = self.message_mlp(message)
            updated_src = self.memory_updater(message, src_mem)
            updated_dst = self.memory_updater(message, dst_mem)
            # Write the refreshed memories back into the host-side store
            # (mirrors TGN's "Update Memory" round trip in Fig. 5(b)).
            updated_src_host = updated_src.to(host, name="updated_src_memory")
            updated_dst_host = updated_dst.to(host, name="updated_dst_memory")
            self._memory[src] = updated_src_host.data
            self._memory[dst] = updated_dst_host.data
            self._last_update[src] = timestamps
            self._last_update[dst] = timestamps
            if self.cache is not None and self.uses_gpu:
                # Write-through: the refreshed rows are device-resident
                # (``updated_src``/``updated_dst``), so re-register them at
                # the batch's event times -- future uploads of these rows
                # may be served from the device pool.
                self.cache.store_memory_rows(src, timestamps, self._memory_row_bytes)
                self.cache.store_memory_rows(dst, timestamps, self._memory_row_bytes)

        # (3) Temporal-neighbourhood message passing (sampling + gathering).
        with self.machine.region("Message Passing"):
            query_times_all = np.concatenate([timestamps, timestamps])
            sample = self._sample(
                nodes, query_times_all, self.effective_fanout(self.config.num_neighbors)
            )
            # Shapes derive from the sample's own width so a degraded-fanout
            # batch (adaptive fidelity) stays self-consistent end to end.
            fanout = sample.neighbor_ids.shape[1]
            neighbor_mem_host = ops.gather_rows(
                Tensor(self._memory, host), sample.neighbor_ids.reshape(-1)
            )
            neighbor_mem = self._upload_memory_rows(
                neighbor_mem_host,
                sample.neighbor_ids.reshape(-1),
                np.repeat(query_times_all, fanout),
                "neighbor_memory",
            )
            neighbor_mem = ops.reshape(
                neighbor_mem, (len(nodes), fanout, self.config.memory_dim)
            )
            query_times = np.concatenate([timestamps, timestamps])
            if self.machine.shape_mode:
                neighbor_dt = Tensor(meta.placeholder((len(nodes), fanout)), device)
            else:
                neighbor_dt = Tensor(
                    (query_times[:, None] - sample.neighbor_times).astype(np.float32),
                    device,
                )
            mask = ops.reshape(Tensor(sample.mask, device), (len(nodes), 1, 1, fanout))

        # (4) Embedding computation on the device.
        with self.machine.region("Compute Embedding"):
            node_mem = ops.concat([updated_src, updated_dst], axis=0)
            target_dt = Tensor(np.zeros(len(nodes), dtype=np.float32), device)
            target_enc = self.time_encoder(target_dt)
            neighbor_enc = self.time_encoder(neighbor_dt)
            attended = self.embedding_attention(
                node_mem, target_enc, neighbor_mem, neighbor_enc, mask=mask
            )
            embeddings = self.embedding_proj(attended)
            num_events = batch.num_events
            src_emb = Tensor(embeddings.data[:num_events], device)
            dst_emb = Tensor(embeddings.data[num_events:], device)
            scores = ops.sigmoid(self.link_predictor(ops.concat([src_emb, dst_emb], axis=-1)))
            scores_host = scores.to(host, name="edge_probabilities")

        if self.cache is not None:
            # The batch's events change their endpoints' neighbourhoods:
            # drop those nodes' cached sample rows.  Memory entries are
            # exempt -- the write-through above already re-registered the
            # touched rows with their post-event values.
            self.cache.observe_events(batch, kinds=("sample",))
        return scores_host
