"""TGAT: Temporal Graph Attention Network (Xu et al., 2020).

TGAT computes a node's embedding at time ``t`` by attending over the node's
*temporal neighbourhood*: the interactions that happened before ``t``.  Each
layer (i) samples a fixed number of earlier neighbours on the CPU, (ii)
encodes the relative interaction times with a Bochner time embedding, and
(iii) runs multi-head attention over the concatenated neighbour/time
features.  A two-layer model therefore recursively samples neighbours of
neighbours, which is why the paper finds CPU-side sampling to dominate
inference (Fig. 7(e)-(h)) and the GPU to sit mostly idle (Fig. 6(a)-(b)).

Region labels match the paper's Fig. 7 legend: ``Sampling (CPU)``,
``Time Encoding``, ``Attention Layer`` (transfers appear as ``Memory Copy``
and the trailing device sync as ``Cuda Synchronization``).

TGAT declares both protocols; ``prepare_iteration`` plans a batch and every
entry point runs one ``_forward`` over one plan type, :class:`TGATPlan`: the
rows the embedding cache serves plus the sampling plan for the rest (without
a cache, every row is a miss).  The one exception is the uncached
``inference_iteration``, which samples *inline*, interleaved with compute --
the order the offline profiles measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.base import TemporalInteractionDataset
from ..graph.events import EventStream
from ..graph.sampling import NeighborhoodSample, TemporalNeighborSampler
from ..hw.machine import Machine
from ..nn import (
    MLP,
    BochnerTimeEncoder,
    Linear,
    ModuleList,
    TemporalNeighborAttention,
)
from ..nn import init as nn_init
from ..tensor import Tensor, meta, ops
from .base import CONTINUOUS, DGNNModel, ModelCard

_NO_HITS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class TGATConfig:
    """TGAT hyper-parameters.

    Attributes:
        node_dim: Internal node embedding width (raw features are projected
            down to this).
        time_dim: Width of the Bochner time encoding.
        num_heads: Attention heads per layer.
        num_layers: Number of recursive attention layers (the paper uses 2).
        num_neighbors: Temporal neighbours sampled per node per layer -- the
            swept parameter of Figs. 6(a) and 7(e)-(h).
        batch_size: Interactions per mini-batch.
        uniform_sampling: Uniform vs most-recent neighbour sampling.
    """

    node_dim: int = 32
    time_dim: int = 16
    num_heads: int = 2
    num_layers: int = 2
    num_neighbors: int = 20
    batch_size: int = 64
    uniform_sampling: bool = True
    seed: int = 0


@dataclass
class TGATPlan:
    """A batch's prepared work: what :meth:`TGAT.prepare_iteration` returns.

    ``hit_indices``/``hit_rows`` are the query rows served from the
    embedding cache; ``miss_nodes``/``miss_times`` (at ``miss_indices`` of
    the original query order) still need the full sampling + compute path,
    and ``samples`` is their precomputed sampling plan in the model's
    depth-first query order.
    """

    hit_indices: np.ndarray
    hit_rows: Optional[np.ndarray]
    miss_indices: np.ndarray
    miss_nodes: np.ndarray
    miss_times: np.ndarray
    samples: List[NeighborhoodSample]

    @property
    def num_hits(self) -> int:
        return int(self.hit_indices.size)


class TGAT(DGNNModel):
    """Temporal graph attention network over an interaction stream."""

    name = "tgat"
    serves_event_streams = True
    supports_caching = True
    cache_kinds = ("embedding", "sample")
    supports_overlap = True
    supports_async_dispatch = True

    def __init__(
        self,
        machine: Machine,
        dataset: TemporalInteractionDataset,
        config: TGATConfig = TGATConfig(),
    ) -> None:
        super().__init__(machine)
        self.config = config
        self.dataset = dataset
        self.sampler = TemporalNeighborSampler(
            dataset.stream, uniform=config.uniform_sampling, seed=config.seed
        )
        rng = nn_init.make_rng(config.seed)
        device = self.compute_device
        self.feature_proj = Linear(dataset.node_dim, config.node_dim, device, rng)
        # The raw node features are projected to the working width once at
        # construction time (host-side, outside any profiling window), so the
        # per-batch gathers and transfers move node_dim-wide rows -- the same
        # working-set layout the reference implementation keeps on the GPU.
        if machine.shape_mode:
            self._projected_features = meta.placeholder(
                (dataset.node_features.shape[0], config.node_dim)
            )
        else:
            self._projected_features = (
                dataset.node_features @ self.feature_proj.weight.data.T
            ).astype(np.float32)
        self.time_encoder = BochnerTimeEncoder(config.time_dim, device)
        self.attention_layers = ModuleList(
            [
                TemporalNeighborAttention(
                    config.node_dim, config.time_dim, config.num_heads, device, rng
                )
                for _ in range(config.num_layers)
            ]
        )
        self.link_predictor = MLP((2 * config.node_dim, config.node_dim, 1), device, rng)
        # The projected feature table is uploaded to the compute device once
        # (during warm-up / first use) and stays resident, as the reference
        # implementation keeps node features on the GPU.  Per-batch work then
        # gathers from this table on-device.
        self._device_features: Optional[Tensor] = None

    # -- Table 1 -------------------------------------------------------------

    def describe(self) -> ModelCard:
        return ModelCard(
            name="TGAT",
            category=CONTINUOUS,
            evolving_node_features=True,
            evolving_edge_features=True,
            evolving_topology=True,
            evolving_weights=False,
            time_encoding="time embedding",
            tasks=("link prediction", "link classification"),
        )

    # -- batching -------------------------------------------------------------

    def batch_footprint_bytes(self, batch: EventStream) -> int:
        k = self.config.num_neighbors
        per_node = (self.config.node_dim + self.config.time_dim) * 4
        targets = 2 * batch.num_events
        # Each layer materialises neighbour features for every target node.
        working_set = targets * (1 + k) * per_node * self.config.num_layers
        return int(working_set + batch.edge_features.nbytes)

    @staticmethod
    def _queries(batch: EventStream) -> Tuple[np.ndarray, np.ndarray]:
        """The batch's (node, query time) rows: every source, then every destination."""
        return (
            np.concatenate([batch.src, batch.dst]),
            np.concatenate([batch.timestamps, batch.timestamps]),
        )

    # -- overlap protocol (Sec. 5.1.1, executed) --------------------------------------

    def prepare_iteration(self, batch: EventStream) -> TGATPlan:
        """Host-side preprocessing of one batch: cache admission and sampling.

        Embedding-store hits are admitted first (each one short-circuits its
        node's entire sampling subtree); the sampling plan -- itself fronted
        by the sample store via :meth:`_sample` -- is then built for the
        miss rows, issuing exactly the temporal-neighbourhood queries the
        inline path would, in the same order.  Issued inside a named CPU
        stream context (see :class:`repro.optim.OverlappedRunner`) the
        sampling cost lands asynchronously, which is what lets batch
        ``i+1``'s sampling hide under batch ``i``'s device work.  Hits are
        admitted against the cache state at *prepare* time: under the
        overlap server batch ``i+1`` is prepared before batch ``i`` retires,
        exactly the admission race a pipelined serving cache has in
        production.
        """
        nodes, times = self._queries(batch)
        if self.cache is None:
            hit_idx, hit_rows, miss_idx = _NO_HITS, None, np.arange(len(nodes))
        else:
            hit_idx, hit_rows, miss_idx = self.cache.lookup_embeddings(nodes, times)
            nodes, times = nodes[miss_idx], times[miss_idx]
        samples: List[NeighborhoodSample] = []
        if nodes.size:
            self._sampling_plan(nodes, times, self.config.num_layers, samples)
        return TGATPlan(hit_idx, hit_rows, miss_idx, nodes, times, samples)

    def _sampling_plan(
        self,
        nodes: np.ndarray,
        times: np.ndarray,
        layer: int,
        out: List[NeighborhoodSample],
    ) -> None:
        """Depth-first sampling recursion matching :meth:`_embed`'s query order.

        A layer-1 sample feeds no deeper query, so its ids are left unread.
        """
        if layer == 0:
            return
        config = self.config
        with self.machine.region("Sampling (CPU)"):
            sample = self._sample(nodes, times, self.effective_fanout(config.num_neighbors))
        out.append(sample)
        if layer == 1:
            return
        self._sampling_plan(nodes, times, layer - 1, out)
        flat_neighbors = sample.neighbor_ids.reshape(-1)
        flat_times = np.repeat(times, sample.k)
        self._sampling_plan(flat_neighbors, flat_times, layer - 1, out)

    # -- recursive temporal attention -----------------------------------------------

    def _forward(self, batch: EventStream, plan: Optional[TGATPlan] = None) -> Tensor:
        """Predict link scores for every interaction in the mini-batch.

        ``plan=None`` plans the batch first when a cache is attached and
        samples inline otherwise.  Uncached, embedding and scoring are one
        taped block (sampling precomputed or not -- see :meth:`_tape_key`).
        Cached, the miss rows' embedding is the taped block; embedding-store
        hits are merged in with a device gather, the batch's events then
        invalidate the entries they touch and the freshly computed rows are
        inserted at their query event times -- so an entry inserted by its
        own batch survives, but pre-existing entries of touched nodes die.
        With zero hits (always the case at staleness 0) the miss rows are
        the whole batch and the scores are byte-identical to the uncached
        forward.
        """
        cache = self.cache
        config = self.config
        num_events = batch.num_events
        if cache is None:
            if plan is None:
                nodes, times = self._queries(batch)
                samples = None
            else:
                nodes, times, samples = plan.miss_nodes, plan.miss_times, plan.samples

            def compute() -> Tensor:
                embeddings = self._embed(
                    nodes,
                    times,
                    layer=config.num_layers,
                    plan=iter(samples) if samples is not None else None,
                )
                return self._score_pairs(embeddings, num_events)

            return self._replayed(self._tape_key("forward", len(nodes), num_events, samples), compute)
        if plan is None:
            plan = self.prepare_iteration(batch)
        miss_emb: Optional[Tensor] = None
        if plan.miss_nodes.size:
            miss_emb = self._replayed(
                self._tape_key("embed", len(plan.miss_nodes), 0, plan.samples),
                lambda: self._embed(
                    plan.miss_nodes,
                    plan.miss_times,
                    layer=config.num_layers,
                    plan=iter(plan.samples),
                ),
            )
        if plan.num_hits == 0:
            assert miss_emb is not None
            embeddings = miss_emb
        else:
            device = self.compute_device
            num_rows = plan.num_hits + len(plan.miss_nodes)
            if self.machine.shape_mode:
                merged = meta.placeholder((num_rows, config.node_dim))
            else:
                merged = np.empty((num_rows, config.node_dim), dtype=np.float32)
                merged[plan.hit_indices] = plan.hit_rows
                if miss_emb is not None:
                    merged[plan.miss_indices] = miss_emb.data
            with self.machine.region("Others"):
                # The hit rows are gathered from the device-resident cache
                # pool into the batch's working tensor.
                self.machine.launch_kernel(
                    device,
                    "cache_embedding_combine",
                    0.0,
                    float(merged.nbytes),
                )
            embeddings = Tensor(merged, device)
        scores = self._score_pairs(embeddings, num_events)
        cache.observe_events(batch)
        if miss_emb is not None:
            cache.store_embeddings(plan.miss_nodes, plan.miss_times, miss_emb.data)
        return scores

    def _tape_key(
        self,
        site: str,
        num_nodes: int,
        num_events: int,
        plan: Optional[Sequence[NeighborhoodSample]],
    ) -> Optional[tuple]:
        """Shape signature of one planned compute block (see ``_replayed``).

        With the sampling precomputed, every charge ``_embed`` and
        ``_score_pairs`` issue follows from the row counts and the plan's own
        sample widths (adaptive fidelity may have changed the fan-out since).
        ``None`` -- run direct -- without a plan, where sampling interleaves
        with compute, and until the feature table is resident, because its
        one-time upload must not be taped.
        """
        table = self._device_features
        if plan is None or table is None or table.device != self.compute_device:
            return None
        widths = tuple(sample.mask.shape for sample in plan)
        return (site, num_nodes, num_events, widths, self.machine.current_region)

    def _score_pairs(self, embeddings: Tensor, num_events: int) -> Tensor:
        """Link-prediction head over the batch's (src, dst) embedding pairs."""
        src_emb = Tensor(embeddings.data[:num_events], embeddings.device)
        dst_emb = Tensor(embeddings.data[num_events:], embeddings.device)
        with self.machine.region("Attention Layer"):
            pair = ops.concat([src_emb, dst_emb], axis=-1)
            return ops.sigmoid(self.link_predictor(pair))

    def _embed(
        self,
        nodes: np.ndarray,
        times: np.ndarray,
        layer: int,
        plan: Optional[Iterator[NeighborhoodSample]] = None,
    ) -> Tensor:
        """Layer-``layer`` embeddings of (node, time) pairs on the compute device.

        With a ``plan``, neighbourhoods are popped from the precomputed
        sampling plan (produced by :meth:`prepare_iteration` in the same
        depth-first order) instead of querying -- and charging -- the sampler.
        """
        if layer == 0:
            return self._raw_embeddings(nodes)
        config = self.config
        if plan is None:
            with self.machine.region("Sampling (CPU)"):
                sample = self._sample(nodes, times, self.effective_fanout(config.num_neighbors))
        else:
            sample = next(plan)
        # Downstream shapes derive from the sample's own width, not the
        # configured fan-out: under adaptive fidelity the overlap server may
        # change the fan-out scale between a batch's prepare and compute
        # phases, and the plan's samples carry the width they were drawn at.
        fanout = sample.k
        # Recursive lower-layer embeddings for the targets and their neighbours.
        target_prev = self._embed(nodes, times, layer - 1, plan=plan)
        if layer == 1 and self.machine.shape_mode:
            # Layer 0 is a shape-only gather, which reads the index's length
            # alone: the sample's ids stay unresolved.
            flat_neighbors = meta.placeholder(len(nodes) * fanout, np.int64)
        else:
            flat_neighbors = sample.neighbor_ids.reshape(-1)
        flat_times = np.repeat(times, fanout)
        neighbor_prev = self._embed(flat_neighbors, flat_times, layer - 1, plan=plan)
        num_targets = len(nodes)
        neighbor_prev = ops.reshape(neighbor_prev, (num_targets, fanout, config.node_dim))
        device = self.compute_device
        host = self.host_device
        # The sampled neighbour ids, interaction-time deltas and validity mask
        # are produced on the host and must cross PCIe every layer -- this is
        # the per-batch "Memory Copy" the paper sees growing with the
        # neighbourhood size.
        if self.machine.shape_mode:
            dt_shape = (num_targets, fanout)
            neighbor_dt_host = Tensor(meta.placeholder(dt_shape), host)
            ids_host = Tensor(meta.placeholder(dt_shape), host)
        else:
            neighbor_dt_host = Tensor(
                (times[:, None] - sample.neighbor_times).astype(np.float32), host
            )
            ids_host = Tensor(sample.neighbor_ids.astype(np.float32), host)
        mask_host = Tensor(sample.mask, host)
        neighbor_dt = neighbor_dt_host.to(device, name="neighbor_time_deltas")
        mask = mask_host.to(device, name="neighbor_mask")
        ids_host.to(device, name="neighbor_indices")
        with self.machine.region("Time Encoding"):
            target_dt = Tensor(np.zeros(num_targets, dtype=np.float32), device)
            target_time_enc = self.time_encoder(target_dt)
            neighbor_time_enc = self.time_encoder(neighbor_dt)
        with self.machine.region("Attention Layer"):
            mask = ops.reshape(mask, (num_targets, 1, 1, fanout))
            attention = self.attention_layers[layer - 1]
            return attention(
                target_prev, target_time_enc, neighbor_prev, neighbor_time_enc, mask=mask
            )

    def compute_embeddings(self, nodes: np.ndarray, times: np.ndarray) -> Tensor:
        """Full-depth embeddings for explicit (node, time) pairs.

        The offline backfill pass (:mod:`repro.cache.backfill`) uses this to
        precompute hot-node embeddings into the serving cache outside any
        request; it runs the ordinary recursive attention (sampling charged
        as usual) without the link-prediction head.
        """
        nodes = np.asarray(nodes)
        times = np.asarray(times, dtype=np.float64)
        return self._embed(nodes, times, layer=self.config.num_layers)

    def _feature_table(self) -> Tensor:
        """The device-resident projected feature table (uploaded on first use)."""
        if self._device_features is None or self._device_features.device != self.compute_device:
            host_table = Tensor(self._projected_features, self.host_device, name="feature_table")
            self._device_features = host_table.to(self.compute_device, name="feature_table")
        return self._device_features

    def warm_up(self, batch=None) -> None:  # noqa: D102 - see base class
        super().warm_up(batch)
        # Upload the feature table as part of model initialisation so the
        # per-iteration profiles only see the per-batch work.
        self._feature_table()

    def _raw_embeddings(self, nodes: np.ndarray) -> Tensor:
        """Layer-0 embeddings: gather from the device-resident feature table."""
        with self.machine.region("Others"):
            table = self._feature_table()
            return ops.gather_rows(table, nodes)
