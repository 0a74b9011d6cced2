"""Synthetic discrete-time (snapshot) datasets.

Generators for the stand-ins of the datasets the paper feeds to EvolveGCN:
an evolving random graph (the Bitcoin-Alpha trust network and the Reddit
hyperlink network) and the IBM stochastic block model benchmark.  Each named
dataset is a row of :data:`repro.datasets.registry.DATASETS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..domain import POSITIVE_INT, PROBABILITY, Domain
from ..graph.snapshots import GraphSnapshot, SnapshotSequence
from .base import SnapshotDataset


@dataclass(frozen=True)
class SnapshotConfig:
    """Parameters of the synthetic snapshot-sequence generators."""

    name: str = "synthetic-snapshots"
    num_nodes: int = 200
    num_snapshots: int = 10
    feature_dim: int = 64
    edge_density: float = 0.02
    churn: float = 0.1
    signed: bool = False
    seed: int = 5

    def __post_init__(self) -> None:
        Domain(2, integer=True).check("num_nodes", self.num_nodes)
        POSITIVE_INT.check("num_snapshots", self.num_snapshots)
        Domain(0, 1, lo_open=True).check("edge_density", self.edge_density)
        PROBABILITY.check("churn", self.churn)


def generate_snapshot_sequence(config: SnapshotConfig) -> SnapshotDataset:
    """An evolving random graph: each step rewires a ``churn`` fraction of edges."""
    rng = np.random.default_rng(config.seed)
    n = config.num_nodes
    adjacency = _random_adjacency(rng, n, config.edge_density, config.signed)
    base_features = rng.standard_normal((n, config.feature_dim)).astype(np.float32) * 0.1
    snapshots: List[GraphSnapshot] = []
    edge_labels: List[np.ndarray] = []
    for step in range(config.num_snapshots):
        if step > 0:
            adjacency = _rewire(rng, adjacency, config.churn, config.edge_density, config.signed)
        drift = rng.standard_normal((n, config.feature_dim)).astype(np.float32) * 0.01
        snapshots.append(
            GraphSnapshot(
                timestamp=float(step),
                adjacency=adjacency.copy(),
                node_features=base_features + drift * step,
            )
        )
        edge_labels.append((adjacency > 0).astype(np.int64))
    return SnapshotDataset(
        name=config.name, snapshots=SnapshotSequence(snapshots), edge_labels=edge_labels
    )


def _random_adjacency(rng: np.random.Generator, n: int, density: float, signed: bool) -> np.ndarray:
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    mask = np.triu(mask) | np.triu(mask).T
    if signed:
        weights = rng.integers(-10, 11, size=(n, n)).astype(np.float32)
        weights[weights == 0] = 1.0
    else:
        weights = rng.uniform(0.5, 1.5, size=(n, n)).astype(np.float32)
    adjacency = np.where(mask, weights, 0.0).astype(np.float32)
    return (adjacency + adjacency.T) / 2.0 * (mask.astype(np.float32))


def _rewire(
    rng: np.random.Generator,
    adjacency: np.ndarray,
    churn: float,
    density: float,
    signed: bool,
) -> np.ndarray:
    """Remove a ``churn`` fraction of edges and add roughly as many new ones."""
    n = adjacency.shape[0]
    result = adjacency.copy()
    rows, cols = np.nonzero(np.triu(result))
    num_edges = len(rows)
    num_changes = int(num_edges * churn)
    if num_edges and num_changes:
        drop = rng.choice(num_edges, size=num_changes, replace=False)
        result[rows[drop], cols[drop]] = 0.0
        result[cols[drop], rows[drop]] = 0.0
    additions = 0
    target_additions = max(1, num_changes)
    while additions < target_additions:
        i, j = rng.integers(0, n, size=2)
        if i == j or result[i, j] != 0:
            continue
        weight = float(rng.integers(-10, 11)) if signed else float(rng.uniform(0.5, 1.5))
        if weight == 0:
            weight = 1.0
        result[i, j] = weight
        result[j, i] = weight
        additions += 1
    return result


def generate_block_model(config: SnapshotConfig) -> SnapshotDataset:
    """A stochastic block model whose communities drift (reads only the sizes and seed)."""
    nodes, steps = config.num_nodes, config.num_snapshots
    rng = np.random.default_rng(config.seed)
    num_blocks = 4
    assignment = rng.integers(0, num_blocks, size=nodes)
    p_in, p_out = (0.08, 0.005)
    snapshots: List[GraphSnapshot] = []
    features = np.eye(num_blocks, dtype=np.float32)[assignment]
    features = np.concatenate(
        [features, rng.standard_normal((nodes, 28)).astype(np.float32) * 0.1], axis=1
    )
    for step in range(steps):
        # A few nodes switch communities each step: the "dynamic" in the benchmark.
        switchers = rng.choice(nodes, size=max(1, nodes // 50), replace=False)
        assignment[switchers] = rng.integers(0, num_blocks, size=len(switchers))
        same_block = assignment[:, None] == assignment[None, :]
        probs = np.where(same_block, p_in, p_out)
        mask = rng.random((nodes, nodes)) < probs
        np.fill_diagonal(mask, False)
        mask = np.triu(mask) | np.triu(mask).T
        adjacency = mask.astype(np.float32)
        snapshots.append(
            GraphSnapshot(timestamp=float(step), adjacency=adjacency, node_features=features)
        )
    return SnapshotDataset(name=config.name, snapshots=SnapshotSequence(snapshots))
