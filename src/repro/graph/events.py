"""Continuous-time dynamic graphs as event streams.

CTDG models (JODIE, TGN, TGAT, DyRep, LDG) consume a stream of timestamped
interaction events ``(source, destination, timestamp, features)``.  The
stream is stored as flat numpy arrays sorted by time -- the layout the
reference implementations load from the Stanford SNAP CSV files -- and
supports the operations those models need: time-range slicing, mini-batching
in temporal order, and per-node interaction histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..domain import POSITIVE_INT


@dataclass(frozen=True)
class InteractionEvent:
    """A single interaction between two nodes at a point in time."""

    src: int
    dst: int
    timestamp: float
    features: np.ndarray

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[-1])


class EventStream:
    """A time-sorted sequence of interaction events.

    Attributes:
        src / dst: (E,) integer node ids.
        timestamps: (E,) float timestamps, non-decreasing.
        edge_features: (E, F) float edge features.
        num_nodes: Total number of distinct node ids the stream may reference.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        timestamps: np.ndarray,
        edge_features: Optional[np.ndarray] = None,
        num_nodes: Optional[int] = None,
    ) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if not (len(self.src) == len(self.dst) == len(self.timestamps)):
            raise ValueError("src, dst and timestamps must have equal length")
        if np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if edge_features is None:
            edge_features = np.zeros((len(self.src), 1), dtype=np.float32)
        self.edge_features = np.asarray(edge_features, dtype=np.float32)
        if self.edge_features.ndim != 2 or len(self.edge_features) != len(self.src):
            raise ValueError("edge_features must be (num_events, feature_dim)")
        inferred = int(max(self.src.max(initial=-1), self.dst.max(initial=-1)) + 1)
        self.num_nodes = int(num_nodes) if num_nodes is not None else inferred
        if self.num_nodes < inferred:
            raise ValueError("num_nodes smaller than the largest referenced id")

    # -- basic properties --------------------------------------------------

    @property
    def num_events(self) -> int:
        return int(len(self.src))

    @property
    def feature_dim(self) -> int:
        return int(self.edge_features.shape[1])

    @property
    def time_span(self) -> Tuple[float, float]:
        if self.num_events == 0:
            return (0.0, 0.0)
        return (float(self.timestamps[0]), float(self.timestamps[-1]))

    def __len__(self) -> int:
        return self.num_events

    def __getitem__(self, index: int) -> InteractionEvent:
        return InteractionEvent(
            src=int(self.src[index]),
            dst=int(self.dst[index]),
            timestamp=float(self.timestamps[index]),
            features=self.edge_features[index],
        )

    def __iter__(self) -> Iterator[InteractionEvent]:
        for index in range(self.num_events):
            yield self[index]

    # -- slicing -------------------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        timestamps: np.ndarray,
        edge_features: np.ndarray,
        num_nodes: int,
    ) -> "EventStream":
        """Build a stream from arrays already known to satisfy the invariants.

        Contiguous slices and ordered concatenations of validated streams are
        sorted and well-typed by construction, so re-running the constructor's
        dtype coercion and monotonicity scan on every mini-batch (the serving
        batcher creates thousands) is pure overhead.
        """
        stream = cls.__new__(cls)
        stream.src = src
        stream.dst = dst
        stream.timestamps = timestamps
        stream.edge_features = edge_features
        stream.num_nodes = num_nodes
        return stream

    def slice_indices(self, start: int, stop: int) -> "EventStream":
        """Sub-stream of events with positions in ``[start, stop)``."""
        return EventStream._trusted(
            self.src[start:stop],
            self.dst[start:stop],
            self.timestamps[start:stop],
            self.edge_features[start:stop],
            num_nodes=self.num_nodes,
        )

    def select(self, positions: np.ndarray) -> "EventStream":
        """Sub-stream of the events at the given ascending positions.

        Used by the sharded serving layer to pull one shard's events out of
        a batch; ascending positions keep the slice time-sorted, which the
        constructor then re-validates.
        """
        positions = np.asarray(positions, dtype=np.int64)
        return EventStream(
            self.src[positions],
            self.dst[positions],
            self.timestamps[positions],
            self.edge_features[positions],
            num_nodes=self.num_nodes,
        )

    def before(self, timestamp: float) -> "EventStream":
        """Events strictly earlier than ``timestamp``."""
        cutoff = int(np.searchsorted(self.timestamps, timestamp, side="left"))
        return self.slice_indices(0, cutoff)

    def iter_batches(self, batch_size: int) -> Iterator["EventStream"]:
        """Yield consecutive mini-batches of events in temporal order."""
        POSITIVE_INT.check("batch_size", batch_size)
        for start in range(0, self.num_events, batch_size):
            yield self.slice_indices(start, min(start + batch_size, self.num_events))

    @classmethod
    def concat(cls, streams: Sequence["EventStream"]) -> "EventStream":
        """Concatenate several streams into one, preserving event order.

        Used by the serving layer to merge per-request event slices into one
        dynamically batched iteration.  The pieces must follow each other in
        time (the constructor rejects decreasing timestamps) and must agree
        on the edge-feature width.
        """
        if not streams:
            raise ValueError("concat requires at least one stream")
        if len(streams) == 1:
            return streams[0]
        dims = {s.feature_dim for s in streams}
        if len(dims) != 1:
            raise ValueError(f"cannot concat streams with feature dims {sorted(dims)}")
        return cls(
            np.concatenate([s.src for s in streams]),
            np.concatenate([s.dst for s in streams]),
            np.concatenate([s.timestamps for s in streams]),
            np.concatenate([s.edge_features for s in streams]),
            num_nodes=max(s.num_nodes for s in streams),
        )

    # -- per-node views --------------------------------------------------------

    def active_nodes(self) -> np.ndarray:
        """Sorted unique node ids that appear in the stream."""
        return np.unique(np.concatenate([self.src, self.dst]))

    def touched_nodes(self) -> np.ndarray:
        """Sorted unique endpoints of this stream's events.

        The canonical "which nodes do these incoming events mutate" set the
        serving caches invalidate on: every event changes the temporal
        neighbourhood of both of its endpoints.  All cache-coherence sites
        (the model cache itself, cross-replica broadcasts, cross-shard
        broadcasts) derive the set through this one helper so the rule
        cannot drift between them.
        """
        return self.active_nodes()

    # -- conversion --------------------------------------------------------------

    def nbytes(self) -> int:
        """Host memory footprint of the stream arrays."""
        return int(
            self.src.nbytes + self.dst.nbytes + self.timestamps.nbytes + self.edge_features.nbytes
        )
