"""Seeded graph partitioners for sharded multi-GPU serving.

Sharded serving (:mod:`repro.serve.placement`) splits each dynamically
batched :class:`~repro.graph.events.EventStream` across GPUs by *node
ownership*: every node id is assigned to one shard, an event is processed on
the shard owning its source node, and neighbour features owned by other
shards must cross the GPU interconnect before compute -- the cross-shard
gather traffic the ``scaling`` experiment charges to peer/PCIe links.

Two assignment strategies are provided:

* :func:`hash_partition` -- a seeded multiplicative hash of the node id.
  Stateless and uniform in expectation, but blind to the degree skew of
  interaction graphs, so hot nodes can pile onto one shard.
* :func:`degree_balanced_partition` -- greedy longest-processing-time
  assignment over the observed degree distribution of an event stream:
  nodes are visited in decreasing degree order (ties shuffled by the seed)
  and each goes to the currently lightest shard, so per-shard *work* (not
  just node count) is balanced within one max-degree node of optimal.

Both are deterministic under a fixed seed, which keeps sharded serving runs
reproducible end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..domain import NON_NEGATIVE_INT, POSITIVE_INT, Domain
from .events import EventStream

#: Odd 64-bit multiplier (splitmix64 finalizer constant) for the seeded hash.
_HASH_MULTIPLIER = np.uint64(0xFF51AFD7ED558CCD)


@dataclass(frozen=True)
class GraphPartition:
    """A node -> shard assignment over a fixed id space.

    Attributes:
        num_shards: Number of shards (GPUs).
        assignment: ``(num_nodes,)`` int array mapping node id -> shard.
        method: Name of the partitioner that produced the assignment.
        seed: Seed the partitioner ran with.
    """

    num_shards: int
    assignment: np.ndarray
    method: str
    seed: int

    def __post_init__(self) -> None:
        POSITIVE_INT.check("num_shards", self.num_shards)
        if self.assignment.size:
            shards = Domain(0, self.num_shards, hi_open=True, integer=True)
            shards.check("lowest assigned shard", self.assignment.min())
            shards.check("highest assigned shard", self.assignment.max())

    @property
    def num_nodes(self) -> int:
        return int(self.assignment.size)

    def shard_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Shard owning each of the given node ids."""
        return self.assignment[np.asarray(node_ids, dtype=np.int64)]

    def node_counts(self) -> np.ndarray:
        """Number of nodes assigned to each shard."""
        return np.bincount(self.assignment, minlength=self.num_shards)

    def degree_loads(self, stream: EventStream) -> np.ndarray:
        """Per-shard summed degree (event endpoints) over ``stream``."""
        degrees = node_degrees(stream, self.num_nodes)
        loads = np.zeros(self.num_shards, dtype=np.int64)
        np.add.at(loads, self.assignment, degrees)
        return loads

    def balance(self, stream: EventStream) -> float:
        """Max/mean ratio of per-shard degree load (1.0 = perfectly even)."""
        loads = self.degree_loads(stream)
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else 1.0

    def edge_cut_fraction(self, stream: EventStream) -> float:
        """Fraction of events whose endpoints live on different shards."""
        if stream.num_events == 0:
            return 0.0
        cut = self.shard_of(stream.src) != self.shard_of(stream.dst)
        return float(np.count_nonzero(cut)) / stream.num_events

    def split_events(self, stream: EventStream) -> List[np.ndarray]:
        """Event positions grouped by the shard owning each event's source.

        Within each shard the positions stay in temporal order, so the
        per-shard sub-streams remain valid :class:`EventStream` slices.
        """
        owners = self.shard_of(stream.src)
        return [np.nonzero(owners == shard)[0] for shard in range(self.num_shards)]


def node_degrees(stream: EventStream, num_nodes: int) -> np.ndarray:
    """Interaction count of every node id over an event stream."""
    degrees = np.zeros(num_nodes, dtype=np.int64)
    np.add.at(degrees, stream.src, 1)
    np.add.at(degrees, stream.dst, 1)
    return degrees


def hash_partition(num_nodes: int, num_shards: int, seed: int = 0) -> GraphPartition:
    """Assign nodes to shards by a seeded multiplicative hash.

    Deterministic for a fixed ``(num_nodes, num_shards, seed)``; different
    seeds permute the assignment.
    """
    NON_NEGATIVE_INT.check("num_nodes", num_nodes)
    POSITIVE_INT.check("num_shards", num_shards)
    ids = np.arange(num_nodes, dtype=np.uint64)
    mixed = (ids + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) * _HASH_MULTIPLIER
    mixed ^= mixed >> np.uint64(33)
    assignment = (mixed % np.uint64(num_shards)).astype(np.int64)
    return GraphPartition(num_shards=num_shards, assignment=assignment, method="hash", seed=seed)


def degree_balanced_partition(
    stream: EventStream, num_shards: int, seed: int = 0, num_nodes: int = None
) -> GraphPartition:
    """Greedily balance per-shard degree load over an event stream.

    Nodes are assigned in decreasing degree order (equal-degree runs are
    shuffled by the seed) to the shard with the smallest accumulated degree,
    the classic LPT bound: no shard exceeds the mean load by more than one
    maximum-degree node.
    """
    POSITIVE_INT.check("num_shards", num_shards)
    total_nodes = int(num_nodes) if num_nodes is not None else stream.num_nodes
    degrees = node_degrees(stream, total_nodes)
    order = list(np.argsort(-degrees, kind="stable"))
    rng = random.Random(seed)
    # Shuffle within equal-degree runs so ties do not always favour low ids.
    shuffled: List[int] = []
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and degrees[order[stop]] == degrees[order[start]]:
            stop += 1
        run = order[start:stop]
        rng.shuffle(run)
        shuffled.extend(run)
        start = stop
    assignment = np.zeros(total_nodes, dtype=np.int64)
    loads = [0] * num_shards
    for node in shuffled:
        shard = min(range(num_shards), key=lambda s: (loads[s], s))
        assignment[node] = shard
        loads[shard] += int(degrees[node])
    return GraphPartition(num_shards=num_shards, assignment=assignment, method="degree", seed=seed)


#: Partitioner registry for the CLI / experiment sweeps.  Each factory takes
#: ``(stream, num_shards, seed)`` so callers can switch by name.
PARTITIONERS: Dict[str, Callable[..., GraphPartition]] = {
    "hash": lambda stream, num_shards, seed=0: hash_partition(
        stream.num_nodes, num_shards, seed=seed
    ),
    "degree": lambda stream, num_shards, seed=0: degree_balanced_partition(
        stream, num_shards, seed=seed
    ),
}


def available_partitioners() -> List[str]:
    return sorted(PARTITIONERS)


def make_partition(
    name: str, stream: EventStream, num_shards: int, seed: int = 0
) -> GraphPartition:
    """Build a partition of ``stream``'s node space by registry name."""
    key = name.lower()
    if key not in PARTITIONERS:
        raise KeyError(
            f"unknown partitioner {name!r}; available: "
            f"{', '.join(available_partitioners())}"
        )
    return PARTITIONERS[key](stream, num_shards, seed=seed)
