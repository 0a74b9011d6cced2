"""Model placement across a multi-GPU machine: replicas and shards.

Two scale-out placements sit on top of the N-GPU
:class:`~repro.hw.machine.Machine` topology:

* **Replication** (:func:`build_replicas`): one full model copy per GPU,
  each constructed inside ``machine.placement(gpu_i)`` so its weights,
  feature tables and kernels land on its own device.  A router
  (:mod:`repro.serve.router`) spreads batches across the replicas; see
  :class:`~repro.serve.scaleout.ScaleOutServer`.  Like replicas share one
  tape book (:func:`share_tape_books`), so under the shape backend a batch
  shape is recorded once per replica set, not once per replica.
* **Sharding** (:class:`ShardedModel`): the graph's node space is split by a
  seeded :class:`~repro.graph.partition.GraphPartition`; each batch is
  divided by event ownership, every shard computes on its own GPU, and the
  neighbour features a shard needs from other shards are charged to the
  GPU<->GPU route *before* its compute -- one ``p2p`` transfer per remote
  shard on NVLink topologies, two staged PCIe hops otherwise.  Shard
  outputs are gathered on a root GPU at the end.  The wrapper declares
  the same serving surface a :class:`~repro.models.base.DGNNModel` does
  (``serving_placement``, ``num_replicas``, ``cache``, ``cache_stats()``,
  ``backfill_targets``), so the blocking
  :class:`~repro.serve.server.InferenceServer` serves it through the whole
  arrival/batching loop without asking what it is.  Its caches live on its
  shards: ``cache`` is ``None``, ``cache_stats()`` merges the shards'
  counters and ``backfill_targets`` names the shards.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..cache import merge_cache_stats
from ..graph.events import EventStream
from ..graph.partition import GraphPartition
from ..hw.device import Device
from ..hw.machine import Machine
from ..models.base import require_protocol

#: Shard whose GPU gathers the final outputs.
ROOT_SHARD = 0


def build_replicas(
    machine: Machine,
    factory: Callable[[], Any],
    devices: Optional[Sequence[Device]] = None,
) -> List[Any]:
    """Construct one model replica per device via the placement context.

    ``factory`` is called once per device inside
    ``with machine.placement(device):`` so every model constructor that
    reads ``machine.compute_device`` (they all do) pins its replica to that
    device without needing a device argument.  The replicas then share tape
    books (:func:`share_tape_books`).
    """
    targets = list(devices) if devices is not None else list(machine.gpus)
    if not targets:
        targets = [machine.compute_device]
    replicas = []
    for device in targets:
        with machine.placement(device):
            replicas.append(factory())
    share_tape_books(replicas)
    return replicas


def share_tape_books(replicas: Sequence[Any]) -> None:
    """Give each set of replicas that record alike one tape book.

    Each replica joins the book of the first earlier replica it records like
    (:meth:`~repro.models.base.DGNNModel.join_tape_book`); a replica like
    none of them keeps its own book and is the one later replicas try.
    """
    leaders: List[Any] = []
    for replica in replicas:
        if not any(replica.join_tape_book(leader) for leader in leaders):
            leaders.append(replica)


class ShardedModel:
    """Serve one logical model as N graph shards on N GPUs.

    Args:
        replicas: One model per shard (see :func:`build_replicas`); each must
            declare ``supports_async_dispatch`` (TGAT-style event-stream
            models: ``prepare_iteration`` then ``dispatch_iteration``).
        partition: Node -> shard assignment; shard ``i`` runs on
            ``replicas[i]``'s compute device.

    Outputs gather on shard :data:`ROOT_SHARD`'s GPU, and one cross-shard
    neighbour row costs ``row_bytes`` on the wire: the replica's ``node_dim``
    float32 row.
    """

    supports_overlap = False
    supports_async_dispatch = False
    #: Telemetry tag the serving report picks up.
    serving_placement = "shard"
    #: The caches live on the shards (see :attr:`backfill_targets`).
    cache = None

    def __init__(
        self,
        replicas: Sequence[Any],
        partition: GraphPartition,
    ) -> None:
        if not replicas:
            raise ValueError("sharded serving needs at least one replica")
        if partition.num_shards != len(replicas):
            raise ValueError(
                f"partition has {partition.num_shards} shards but "
                f"{len(replicas)} replicas were given"
            )
        for replica in replicas:
            require_protocol(replica, "async dispatch", "it cannot be sharded")
        self.replicas = list(replicas)
        self.partition = partition
        first = self.replicas[0]
        self.machine: Machine = first.machine
        self.name = f"sharded-{first.name}"
        self.row_bytes = int(first.config.node_dim) * 4
        #: Cumulative cross-shard neighbour rows fetched (for telemetry).
        self.cross_shard_rows = 0

    # -- model protocol -------------------------------------------------------

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def backfill_targets(self) -> List[Any]:
        """The models a cache backfill warms: every shard."""
        return self.replicas

    @property
    def compute_device(self) -> Device:
        """The root shard's device (where gathered outputs land)."""
        return self.replicas[ROOT_SHARD].compute_device

    def make_request_batch(self, payloads: Sequence[Any]) -> Any:
        return self.replicas[0].make_request_batch(payloads)

    def cache_stats(self) -> Optional[Any]:
        """Per-shard cache counters merged into one view (``None`` uncached)."""
        return merge_cache_stats([replica.cache_stats() for replica in self.replicas])

    def warm_up(self, batch: Optional[Any] = None) -> None:
        """Warm every shard's GPU (context, weights, allocation)."""
        for replica in self.replicas:
            replica.warm_up(batch)

    # -- execution -------------------------------------------------------------

    def inference_iteration(self, batch: EventStream) -> None:
        """Run one batch split across the shards; blocks until gathered.

        Per shard: host-side sampling (``prepare_iteration``), then the
        cross-shard neighbour gather charged to the GPU<->GPU route, then
        asynchronous compute on the shard's GPU.  Device work on different
        shards overlaps in simulated time; the final per-shard output rows
        are transferred to the root GPU and the host blocks until the root
        has everything.
        """
        machine = self.machine
        shard_positions = self.partition.split_events(batch)
        dispatched: List[int] = []
        for index, positions in enumerate(shard_positions):
            if len(positions) == 0:
                continue
            replica = self.replicas[index]
            shard_batch = batch.select(positions)
            plan = replica.prepare_iteration(shard_batch)
            self._charge_cross_shard_gathers(index, plan)
            replica.dispatch_iteration(shard_batch, plan=plan)
            dispatched.append(index)
        self._cross_shard_invalidation(batch, shard_positions)
        root_device = self.compute_device
        for index in dispatched:
            if index == ROOT_SHARD:
                continue
            device = self.replicas[index].compute_device
            if device.name == root_device.name:
                continue
            out_bytes = int(len(shard_positions[index])) * 4
            # Blocking transfer: its ready time includes the shard's queued
            # compute, so the host advances past that shard's completion.
            machine.transfer(device, root_device, out_bytes, name="shard_result")
        if root_device.is_gpu:
            machine.device_synchronize(root_device, name="shard_root_sync")

    def _cross_shard_invalidation(
        self, batch: EventStream, shard_positions: Sequence[np.ndarray]
    ) -> None:
        """Broadcast touched-node invalidations across the shard caches.

        Each shard's own request path already invalidated (and re-inserted)
        the entries its *local* events touched; but a shard may have cached
        samples/embeddings of nodes whose events were routed to another
        shard.  Every shard therefore invalidates the nodes touched by the
        *other* shards' slices of the batch -- the coherence traffic graph
        sharding adds on top of the neighbour gathers.
        """
        caches = [replica.cache for replica in self.replicas]
        if not any(cache is not None for cache in caches):
            return
        touched_per_shard = [
            (
                batch.select(positions).touched_nodes()
                if len(positions)
                else np.empty(0, dtype=np.int64)
            )
            for positions in shard_positions
        ]
        for index, cache in enumerate(caches):
            if cache is None:
                continue
            remote = [
                nodes
                for other, nodes in enumerate(touched_per_shard)
                if other != index and nodes.size
            ]
            if not remote:
                continue
            cache.invalidate_nodes(np.unique(np.concatenate(remote)).tolist())

    def _charge_cross_shard_gathers(self, shard: int, plan: Any) -> None:
        """Charge remote neighbour-feature reads to the interconnect.

        Every sampled neighbour in ``plan.samples`` whose owner is another
        shard costs one ``row_bytes`` row over the ``owner -> shard`` route
        before this shard's compute can run.  Cache-served rows (hit nodes
        have no samples) need no gather: their neighbour features were
        fetched when the entry was populated.
        """
        machine = self.machine
        device = self.replicas[shard].compute_device
        remote_rows = np.zeros(self.partition.num_shards, dtype=np.int64)
        for sample in plan.samples:
            ids = sample.neighbor_ids[sample.mask.astype(bool)]
            if ids.size == 0:
                continue
            owners = self.partition.shard_of(ids.reshape(-1))
            remote_rows += np.bincount(owners, minlength=self.partition.num_shards)
        for owner, rows in enumerate(remote_rows.tolist()):
            if owner == shard or rows == 0:
                continue
            owner_device = self.replicas[owner].compute_device
            if owner_device.name == device.name:
                continue
            self.cross_shard_rows += rows
            # The gathered rows are the owner's *resident* feature table, not
            # outputs of its queued compute, so the copy must not serialize
            # behind the owner shard's kernels.
            machine.transfer(
                owner_device,
                device,
                rows * self.row_bytes,
                name="shard_gather",
                wait_for_source=False,
            )
