"""Synthetic discrete-time (snapshot) datasets.

Stand-ins for the datasets the paper feeds to EvolveGCN: the Bitcoin-Alpha
trust network (signed, weighted, slowly growing), the Reddit hyperlink
network (larger, denser snapshots -- the reason EvolveGCN's memory-copy share
is much higher on Reddit than on Bitcoin in Fig. 7(i)/(j)) and the IBM
stochastic block model benchmark.
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


# -- named dataset presets ------------------------------------------------------

def bitcoin_alpha(scale: str = "small", seed: int = 23) -> SnapshotDataset:
    """Bitcoin-Alpha trust network stand-in: small, sparse, signed weights."""
    sizes = {
        "tiny": (60, 6),
        "small": (300, 12),
        # The real Bitcoin-Alpha graph has 3783 nodes; the "paper" scale is
        # capped so dense snapshot storage stays laptop-friendly.
        "paper": (1200, 20),
    }
    nodes, steps = _pick(scale, sizes)
    return generate_snapshot_sequence(
        SnapshotConfig(
            name="bitcoin-alpha", num_nodes=nodes, num_snapshots=steps,
            feature_dim=64, edge_density=0.01, churn=0.08, signed=True, seed=seed,
        )
    )


def reddit_hyperlinks(scale: str = "small", seed: int = 29) -> SnapshotDataset:
    """Reddit hyperlink network stand-in: larger, denser snapshots.

    The larger per-snapshot payload is what drives EvolveGCN's higher
    memory-copy share on Reddit in the paper's Fig. 7(i).
    """
    sizes = {
        "tiny": (120, 6),
        "small": (600, 12),
        # The real hyperlink network has ~35k subreddits; capped for dense
        # snapshot storage, but kept several times larger than Bitcoin-Alpha
        # so the relative memory-copy behaviour is preserved.
        "paper": (1500, 16),
    }
    nodes, steps = _pick(scale, sizes)
    return generate_snapshot_sequence(
        SnapshotConfig(
            name="reddit-hyperlinks", num_nodes=nodes, num_snapshots=steps,
            feature_dim=128, edge_density=0.02, churn=0.15, signed=False, seed=seed,
        )
    )


def stochastic_block_model(scale: str = "small", seed: int = 31) -> SnapshotDataset:
    """IBM stochastic-block-model benchmark stand-in with drifting communities."""
    sizes = {
        "tiny": (80, 6),
        "small": (400, 10),
        "paper": (1000, 50),
    }
    nodes, steps = _pick(scale, sizes)
    rng = np.random.default_rng(seed)
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
    return SnapshotDataset(name="sbm", snapshots=SnapshotSequence(snapshots))


def _pick(scale: str, sizes: dict):
    if scale not in sizes:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(sizes)}")
    return sizes[scale]
