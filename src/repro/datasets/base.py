"""Dataset containers.

The paper evaluates the eight DGNNs on ten public datasets (Wikipedia,
Reddit, LastFM, Bitcoin-Alpha, the Reddit hyperlink network, a stochastic
block model, PeMS traffic data, the ISO17 molecular trajectories and the
Social Evolution and GitHub event logs).  None of those can be downloaded in
this offline environment, so :mod:`repro.datasets` generates seeded synthetic
datasets with the same *structure*: the containers below are what the models
and experiments consume, regardless of which generator produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..domain import Domain
from ..graph.events import EventStream
from ..graph.snapshots import SnapshotSequence


@dataclass
class TemporalInteractionDataset:
    """A continuous-time interaction dataset (Wikipedia/Reddit/LastFM-like).

    Attributes:
        name: Dataset name (e.g. ``"wikipedia"``).
        stream: The time-sorted interaction events.
        num_users: Number of "user" nodes (ids ``0 .. num_users-1``).
        num_items: Number of "item" nodes (ids ``num_users .. num_users+num_items-1``);
            zero for non-bipartite social streams.
        node_features: (num_nodes, node_dim) static node features.
    """

    name: str
    stream: EventStream
    num_users: int
    num_items: int
    node_features: np.ndarray

    def __post_init__(self) -> None:
        self.node_features = np.asarray(self.node_features, dtype=np.float32)
        if self.node_features.ndim != 2:
            raise ValueError("node_features must be 2-D")
        Domain(self.stream.num_nodes, integer=True).check("feature rows", len(self.node_features))

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def node_dim(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def edge_dim(self) -> int:
        return self.stream.feature_dim

    @property
    def is_bipartite(self) -> bool:
        return self.num_items > 0

    def nbytes(self) -> int:
        return int(self.stream.nbytes() + self.node_features.nbytes)


@dataclass
class SnapshotDataset:
    """A discrete-time dataset: a sequence of graph snapshots plus labels.

    Attributes:
        name: Dataset name (e.g. ``"bitcoin-alpha"``).
        snapshots: The snapshot sequence.
        edge_labels: Optional per-snapshot edge-label matrices (for the edge
            classification tasks EvolveGCN is evaluated on).
    """

    name: str
    snapshots: SnapshotSequence
    edge_labels: Optional[List[np.ndarray]] = None

    @property
    def num_nodes(self) -> int:
        return self.snapshots.num_nodes

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def feature_dim(self) -> int:
        return self.snapshots.feature_dim

    def nbytes(self) -> int:
        return self.snapshots.nbytes()


@dataclass
class TrafficDataset:
    """A road-network traffic dataset (PeMS-like) for ASTGNN.

    Attributes:
        name: Dataset name.
        adjacency: (N, N) sensor-graph adjacency.
        signal: (T, N, C) traffic signal tensor (flow/occupancy/speed).
        interval_minutes: Sampling interval of the signal.
    """

    name: str
    adjacency: np.ndarray
    signal: np.ndarray
    interval_minutes: int = 5

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=np.float32)
        self.signal = np.asarray(self.signal, dtype=np.float32)
        if self.adjacency.ndim != 2 or self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        if self.signal.ndim != 3 or self.signal.shape[1] != self.adjacency.shape[0]:
            raise ValueError("signal must be (time, nodes, channels)")

    @property
    def num_sensors(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def num_steps(self) -> int:
        return int(self.signal.shape[0])

    @property
    def num_channels(self) -> int:
        return int(self.signal.shape[2])

    def window(self, start: int, length: int) -> np.ndarray:
        """A (length, N, C) slice of the signal starting at ``start``."""
        if start < 0 or start + length > self.num_steps:
            raise IndexError("traffic window out of range")
        return self.signal[start : start + length]

    def nbytes(self) -> int:
        return int(self.adjacency.nbytes + self.signal.nbytes)


@dataclass
class MolecularDataset:
    """Molecular-dynamics trajectories (ISO17-like) for MolDGNN.

    Attributes:
        name: Dataset name.
        trajectories: One snapshot sequence per molecule trajectory, where the
            adjacency encodes bonded/close atom pairs and the node features
            encode atom type and position.
        atom_counts: Number of atoms in each trajectory.
    """

    name: str
    trajectories: List[SnapshotSequence]
    atom_counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.trajectories:
            raise ValueError("a molecular dataset needs at least one trajectory")
        if not self.atom_counts:
            self.atom_counts = [t.num_nodes for t in self.trajectories]

    @property
    def num_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def feature_dim(self) -> int:
        return self.trajectories[0].feature_dim

    def nbytes(self) -> int:
        return sum(t.nbytes() for t in self.trajectories)
