"""Graph substrates: discrete-time snapshot sequences, continuous-time event
streams, temporal neighbourhood sampling, JODIE's t-batching, and seeded
partitioners for sharded multi-GPU serving."""

from .events import EventStream
from .partition import (
    GraphPartition,
    available_partitioners,
    degree_balanced_partition,
    hash_partition,
    make_partition,
    node_degrees,
)
from .sampling import NeighborhoodSample, TemporalNeighborSampler
from .snapshots import GraphSnapshot, SnapshotSequence
from .tbatch import TBatch, validate_tbatches

__all__ = [
    "EventStream",
    "GraphPartition",
    "GraphSnapshot",
    "NeighborhoodSample",
    "SnapshotSequence",
    "TBatch",
    "TemporalNeighborSampler",
    "available_partitioners",
    "degree_balanced_partition",
    "hash_partition",
    "make_partition",
    "node_degrees",
    "validate_tbatches",
]
