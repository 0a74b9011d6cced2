"""Graph substrates: discrete-time snapshot sequences, continuous-time event
streams, temporal neighbourhood sampling, JODIE's t-batching, and seeded
partitioners for sharded multi-GPU serving."""

from .events import EventStream, InteractionEvent
from .partition import (
    PARTITIONERS,
    GraphPartition,
    available_partitioners,
    degree_balanced_partition,
    hash_partition,
    make_partition,
    node_degrees,
)
from .sampling import NeighborhoodSample, SamplingCostModel, TemporalNeighborSampler
from .snapshots import GraphSnapshot, SnapshotDelta, SnapshotSequence
from .tbatch import TBatch, build_tbatches, validate_tbatches

__all__ = [
    "EventStream",
    "GraphPartition",
    "GraphSnapshot",
    "InteractionEvent",
    "NeighborhoodSample",
    "PARTITIONERS",
    "SamplingCostModel",
    "SnapshotDelta",
    "SnapshotSequence",
    "TBatch",
    "TemporalNeighborSampler",
    "available_partitioners",
    "build_tbatches",
    "degree_balanced_partition",
    "hash_partition",
    "make_partition",
    "node_degrees",
    "validate_tbatches",
]
