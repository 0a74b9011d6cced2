"""Discrete-time dynamic graphs as snapshot sequences.

DTDG models (EvolveGCN, ASTGNN, MolDGNN) consume a sequence of graph
snapshots, one per time step.  Each snapshot carries a (normalised) adjacency
matrix and node features; the sequence also knows how to compute the *delta*
between consecutive snapshots, which the paper's Sec. 5.2.2 proposes to
exploit to reduce CPU->GPU transfer volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from ..domain import POSITIVE_INT


@dataclass
class GraphSnapshot:
    """One time step of a discrete-time dynamic graph.

    Attributes:
        timestamp: Time of the snapshot.
        adjacency: Dense (N, N) adjacency (weighted; 0 means no edge).
        node_features: (N, F) node feature matrix.
    """

    timestamp: float
    adjacency: np.ndarray
    node_features: np.ndarray

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=np.float32)
        self.node_features = np.asarray(self.node_features, dtype=np.float32)
        if self.adjacency.ndim != 2 or self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if self.node_features.ndim != 2:
            raise ValueError("node_features must be 2-D")
        if self.node_features.shape[0] != self.adjacency.shape[0]:
            raise ValueError("node_features and adjacency disagree on node count")

    @property
    def num_nodes(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency))

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    def nbytes(self) -> int:
        """Host memory footprint of this snapshot."""
        return int(self.adjacency.nbytes + self.node_features.nbytes)


@dataclass(frozen=True)
class SnapshotDelta:
    """Difference between two consecutive snapshots.

    Attributes:
        added_edges / removed_edges: (K, 2) arrays of edge endpoints.
        changed_nodes: Node ids whose feature rows differ.
        delta_bytes: Bytes needed to ship only the changes
            (edge endpoint pairs + changed feature rows).
        full_bytes: Bytes needed to ship the full next snapshot.
    """

    added_edges: np.ndarray
    removed_edges: np.ndarray
    changed_nodes: np.ndarray
    delta_bytes: int
    full_bytes: int


class SnapshotSequence:
    """A time-ordered sequence of :class:`GraphSnapshot`."""

    def __init__(self, snapshots: Sequence[GraphSnapshot]) -> None:
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("a snapshot sequence needs at least one snapshot")
        num_nodes = snapshots[0].num_nodes
        feature_dim = snapshots[0].feature_dim
        previous_time = -np.inf
        for snapshot in snapshots:
            if snapshot.num_nodes != num_nodes:
                raise ValueError("all snapshots must share the node count")
            if snapshot.feature_dim != feature_dim:
                raise ValueError("all snapshots must share the feature dimension")
            if snapshot.timestamp < previous_time:
                raise ValueError("snapshots must be time-ordered")
            previous_time = snapshot.timestamp
        self._snapshots: List[GraphSnapshot] = snapshots

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, index: int) -> GraphSnapshot:
        return self._snapshots[index]

    def __iter__(self) -> Iterator[GraphSnapshot]:
        return iter(self._snapshots)

    # -- properties ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._snapshots[0].num_nodes

    @property
    def feature_dim(self) -> int:
        return self._snapshots[0].feature_dim

    @property
    def timestamps(self) -> np.ndarray:
        return np.array([s.timestamp for s in self._snapshots])

    def nbytes(self) -> int:
        return sum(s.nbytes() for s in self._snapshots)

    def window(self, start: int, length: int) -> "SnapshotSequence":
        """A sliding window of ``length`` snapshots starting at index ``start``."""
        POSITIVE_INT.check("window length", length)
        if start < 0 or start + length > len(self._snapshots):
            raise IndexError("window out of range")
        return SnapshotSequence(self._snapshots[start : start + length])

    # -- deltas -------------------------------------------------------------------

    def delta(self, index: int) -> SnapshotDelta:
        """Change set between snapshot ``index`` and ``index + 1``."""
        if not 0 <= index < len(self._snapshots) - 1:
            raise IndexError("delta index out of range")
        current = self._snapshots[index]
        nxt = self._snapshots[index + 1]
        added_mask = (current.adjacency == 0) & (nxt.adjacency != 0)
        removed_mask = (current.adjacency != 0) & (nxt.adjacency == 0)
        added_edges = np.argwhere(added_mask)
        removed_edges = np.argwhere(removed_mask)
        changed_nodes = np.nonzero(np.any(current.node_features != nxt.node_features, axis=1))[0]
        feature_dim = nxt.feature_dim
        delta_bytes = int(
            added_edges.size * 8
            + removed_edges.size * 8
            + changed_nodes.size * feature_dim * 4
        )
        return SnapshotDelta(
            added_edges=added_edges,
            removed_edges=removed_edges,
            changed_nodes=changed_nodes,
            delta_bytes=delta_bytes,
            full_bytes=nxt.nbytes(),
        )

    def average_delta_ratio(self) -> float:
        """Mean fraction of each snapshot that actually changes step to step."""
        if len(self._snapshots) < 2:
            return 0.0
        ratios = [
            self.delta(i).delta_bytes / max(1, self.delta(i).full_bytes)
            for i in range(len(self._snapshots) - 1)
        ]
        return float(np.mean(ratios))
